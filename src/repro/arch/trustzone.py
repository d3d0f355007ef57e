"""ARM TrustZone model: two worlds, TZASC, monitor, secure boot.

Section 3.2's characterisation, mechanised:

* the system splits into a normal and a **single** secure world — a
  second ``create_enclave`` raises, which is the "costly trust
  relationship" limitation Sanctuary later removes;
* separation is enforced *in hardware on the bus* by the
  :class:`~repro.memory.tzasc.TrustZoneAddressSpaceController`: non-secure
  transactions into secure windows are rejected, which is also the DMA
  protection story ("temporarily assigning memory regions exclusively to
  SoC components");
* the **monitor code** performs world switches and verifies all
  secure-world code during boot using digital signatures (a real RSA
  verification against the vendor key);
* secure channels to peripherals: a TZASC window claimed for one master;
* *no* cache partitioning and *no* flush on world switch — the gap
  TruSpy-style attacks (ref [44]) exploit, reproduced faithfully.
"""

from __future__ import annotations

from repro.arch.base import (
    AES_TABLES_SIZE,
    ArchFeatures,
    EnclaveContext,
    EnclaveHandle,
    SecurityArchitecture,
)
from repro.attestation.measure import Measurement
from repro.common import PlatformClass, PrivilegeLevel, World
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA, RSAKey, generate_rsa_key
from repro.crypto.sha256 import sha256
from repro.errors import EnclaveError, SecurityViolation
from repro.memory.paging import PAGE_SIZE
from repro.memory.tzasc import SecureWindow, TrustZoneAddressSpaceController

SECURE_WORLD_SIZE = 1 << 22  # 4 MiB secure world


class TrustZone(SecurityArchitecture):
    """TrustZone on a mobile SoC."""

    NAME = "trustzone"

    def install(self) -> None:
        soc = self.soc
        dram = soc.regions.get("dram")
        self.secure_base = dram.base + dram.size // 8
        self.tzasc = TrustZoneAddressSpaceController()
        self.tzasc.add_window(SecureWindow(
            "secure-world", self.secure_base, SECURE_WORLD_SIZE))
        soc.bus.add_controller("tzasc", self.tzasc)

        self._rng = XorShiftRNG(0x72E5)
        #: Vendor signing key; the public half is fused into the SoC.
        self._vendor_key: RSAKey = generate_rsa_key(256, self._rng)
        self._verifier = RSA(self._vendor_key)
        self.secure_boot_ok = False
        self._secure_image: bytes = b""
        self._peripheral_channels: dict[str, str] = {}
        self._enclave_created = False
        self._alloc_cursor = self.secure_base

    # -- secure boot -----------------------------------------------------------

    def sign_image(self, image: bytes) -> int:
        """Vendor-side signing (happens at the factory, not on-device)."""
        digest = int.from_bytes(sha256(image)[:16], "little")
        return RSA(self._vendor_key).sign_crt(digest % self._vendor_key.n)

    def provision_secure_image(self, image: bytes, signature: int) -> bool:
        """Monitor boot step: verify and install the secure-world image."""
        digest = int.from_bytes(sha256(image)[:16], "little")
        if not self._verifier.verify(digest % self._vendor_key.n, signature):
            self.secure_boot_ok = False
            raise SecurityViolation(
                "secure boot: signature verification failed")
        self._secure_image = image
        # The monitor loads the verified image into the secure window; a
        # CPU in secure state performs the stores, so the TZASC admits them.
        core = self.soc.cores[0]
        saved_world = core.world
        self.soc.set_world(0, World.SECURE)
        try:
            for i in range(0, len(image), 8):
                chunk = image[i:i + 8].ljust(8, b"\x00")
                core.write_mem(self.secure_base + i,
                               int.from_bytes(chunk, "little"))
        finally:
            self.soc.set_world(0, saved_world)
        self.secure_boot_ok = True
        return True

    def boot_measurement(self) -> bytes:
        """Measurement of the verified secure-world image."""
        measurement = Measurement()
        measurement.extend(self._secure_image, label="secure-world-image")
        return measurement.value

    # -- monitor: world switch (SMC) ----------------------------------------------

    def smc(self, core_id: int, to_secure: bool) -> None:
        """Secure Monitor Call: switch one core's world."""
        if to_secure and not self.secure_boot_ok:
            raise SecurityViolation(
                "monitor refuses secure entry before verified boot")
        self.soc.set_world(core_id,
                           World.SECURE if to_secure else World.NORMAL)

    # -- peripheral secure channels ---------------------------------------------------

    def secure_channel(self, peripheral_master: str, window_name: str,
                       base: int, size: int) -> None:
        """Claim a window exclusively for one peripheral + secure world."""
        self.tzasc.add_window(SecureWindow(window_name, base, size,
                                           secure_only=True))
        self.tzasc.claim(window_name, peripheral_master)
        self._peripheral_channels[peripheral_master] = window_name

    def features(self) -> ArchFeatures:
        return ArchFeatures(
            name=self.NAME,
            target_platform=PlatformClass.MOBILE,
            software_tcb="monitor + entire secure world",
            hardware_tcb="CPU security state + TZASC + SoC enhancements",
            enclave_count="1",
            memory_encryption=False,
            llc_partitioning=False,
            cache_exclusion=False,
            flush_on_switch=False,
            dma_protection="tzasc-claim",
            peripheral_secure_channel=True,
            attestation="secure-boot only",
            code_isolation=True,
            requires_new_hardware=False,  # deployed on commodity ARM SoCs
        )

    # -- "enclave" = the one secure world --------------------------------------------

    def create_enclave(self, name: str, size: int = AES_TABLES_SIZE,
                       core_id: int = 0) -> EnclaveHandle:
        if self._enclave_created:
            raise EnclaveError(
                "TrustZone provides a single enclave (the secure world); "
                "deploy additional apps inside it or use Sanctuary")
        if not self.secure_boot_ok:
            # Boot a trivial verified image implicitly for convenience.
            image = f"secure-os:{name}".encode()
            self.provision_secure_image(image, self.sign_image(image))
        self._enclave_created = True
        enclave_id = self._allocate_id()
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        base = self._alloc_cursor + PAGE_SIZE  # skip the image page
        self._alloc_cursor = base + pages * PAGE_SIZE
        handle = EnclaveHandle(
            enclave_id=enclave_id, name=name, base=base, paddr=base,
            size=pages * PAGE_SIZE, core_id=core_id, domain="secure-world",
            measurement=self.boot_measurement(), initialized=True)
        self.enclaves[enclave_id] = handle
        return handle

    def enclave_context(self, handle: EnclaveHandle) -> EnclaveContext | None:
        if not self.secure_boot_ok:
            return None  # the monitor refuses secure entry
        return EnclaveContext(PrivilegeLevel.KERNEL, secure=True,
                              flush_l1=False, page_table=None)

    def enter_enclave(self, handle: EnclaveHandle) -> None:
        self.smc(handle.core_id, to_secure=True)
        super().enter_enclave(handle)

    def exit_enclave(self, handle: EnclaveHandle) -> None:
        self.smc(handle.core_id, to_secure=False)
        core = self.soc.cores[handle.core_id]
        core.domain = None
        # No cache flush on the world switch: the TruSpy gap.

    def enclave_read(self, handle: EnclaveHandle, offset: int) -> int:
        if not 0 <= offset < handle.size:
            raise EnclaveError(f"offset {offset:#x} outside secure region")
        return self.soc.cores[handle.core_id].read_mem(handle.base + offset)

    def enclave_write(self, handle: EnclaveHandle, offset: int,
                      value: int) -> None:
        if not 0 <= offset < handle.size:
            raise EnclaveError(f"offset {offset:#x} outside secure region")
        self.soc.cores[handle.core_id].write_mem(handle.base + offset, value)
