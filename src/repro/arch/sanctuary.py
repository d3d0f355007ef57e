"""Sanctuary model: TrustZone-based user-space enclaves on isolated cores.

Sanctuary "solves the main problem of currently deployed TrustZone-based
architectures by providing an arbitrary number of user-space enclaves
without introducing new hardware components".  Mechanically:

* enclaves run in the **normal world** on a temporarily dedicated physical
  core; the secure world holds only vendor security primitives (a small
  attestation service here), so no app developer needs a vendor contract;
* isolation of enclave memory "is enforced by exploiting a feature of
  ARM's TrustZone-enabled address space controller": a TZASC window over
  the enclave's memory, *claimed exclusively* for the enclave's core —
  every other master (other cores, DMA) is rejected at the bus;
* it "cannot provide cache partitioning of the shared last-level cache"
  (no new hardware!), so instead enclave memory is **excluded from the
  shared caches** and core-private caches are flushed on enclave exits.
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
from repro.attestation.report import AttestationReport
from repro.common import PlatformClass, PrivilegeLevel
from repro.crypto.rng import XorShiftRNG
from repro.errors import EnclaveError
from repro.memory.paging import PAGE_SIZE
from repro.memory.regions import MemoryRegion, Permissions
from repro.memory.tzasc import SecureWindow, TrustZoneAddressSpaceController

#: Dedicated physical pool for Sanctuary enclaves, outside regular DRAM.
POOL_BASE = 0xC000_0000
POOL_SIZE = 1 << 22


class Sanctuary(SecurityArchitecture):
    """Sanctuary on a mobile SoC (no new hardware: TZASC + cache config)."""

    NAME = "sanctuary"

    def install(self) -> None:
        soc = self.soc
        soc.regions.add(MemoryRegion(
            "sanctuary-pool", POOL_BASE, POOL_SIZE,
            perms=Permissions.rwx(), cacheable=True))
        # The defining cache defence: the pool never reaches the shared LLC.
        soc.hierarchy.exclude_from_llc(POOL_BASE, POOL_SIZE)

        self.tzasc = TrustZoneAddressSpaceController()
        soc.bus.add_controller("sanctuary-tzasc", self.tzasc)

        self._rng = XorShiftRNG(0x5AC7)
        #: Vendor-provided security primitive in the secure world: local
        #: attestation under a device key that never leaves it.
        self._attestation_key = self._rng.bytes(32)
        self._alloc_cursor = POOL_BASE
        #: core id -> enclave id currently bound to that core.
        self.core_binding: dict[int, int] = {}

    def features(self) -> ArchFeatures:
        return ArchFeatures(
            name=self.NAME,
            target_platform=PlatformClass.MOBILE,
            software_tcb="vendor security primitives (secure world) only",
            hardware_tcb="TrustZone CPU state + TZASC",
            enclave_count="N",
            memory_encryption=False,
            llc_partitioning=False,
            cache_exclusion=True,
            flush_on_switch=True,
            dma_protection="tzasc-claim",
            peripheral_secure_channel=True,  # inherited TrustZone primitive
            attestation="local+remote",
            code_isolation=True,
            requires_new_hardware=False,
        )

    # -- lifecycle -----------------------------------------------------------

    def create_enclave(self, name: str, size: int = AES_TABLES_SIZE,
                       core_id: int = 0) -> EnclaveHandle:
        if core_id in self.core_binding:
            raise EnclaveError(
                f"core {core_id} already dedicated to enclave "
                f"{self.core_binding[core_id]}")
        enclave_id = self._allocate_id()
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        base = self._alloc_cursor
        self._alloc_cursor += pages * PAGE_SIZE
        if self._alloc_cursor > POOL_BASE + POOL_SIZE:
            raise EnclaveError("sanctuary pool exhausted")

        window = f"sanctuary-{enclave_id}"
        # The TZASC feature: a normal-world window exclusively claimed for
        # the enclave's core.  secure_only=False — enclaves are normal
        # world; exclusivity, not the NS bit, is the isolation.
        self.tzasc.add_window(SecureWindow(window, base, pages * PAGE_SIZE,
                                           secure_only=False))
        core_name = self.soc.cores[core_id].config.name
        self.tzasc.claim(window, core_name)
        self.core_binding[core_id] = enclave_id

        handle = EnclaveHandle(
            enclave_id=enclave_id, name=name, base=base, paddr=base,
            size=pages * PAGE_SIZE, core_id=core_id,
            domain=f"sanctuary-enclave-{enclave_id}")
        handle.metadata["window"] = window
        self.enclaves[enclave_id] = handle
        measurement = Measurement()
        measurement.extend(name.encode(), label=f"sanctuary:{name}")
        handle.measurement = measurement.value
        handle.initialized = True
        return handle

    def destroy_enclave(self, handle: EnclaveHandle) -> None:
        window = handle.metadata.get("window")
        core_name = self.soc.cores[handle.core_id].config.name
        if window is not None:
            self.tzasc.release(window, core_name)
        self.core_binding.pop(handle.core_id, None)
        # Enclave memory scrubbed before the core rejoins the OS pool.
        self.soc.memory.clear_range(handle.paddr, handle.size)
        self.soc.hierarchy.flush_core(handle.core_id)
        super().destroy_enclave(handle)

    # -- context switching ---------------------------------------------------------

    def enclave_context(self, handle: EnclaveHandle) -> EnclaveContext:
        # User-space enclaves; the core's L1 is flushed on entry and exit.
        core = self.soc.cores[handle.core_id]
        return EnclaveContext(PrivilegeLevel.USER, core.world.is_secure,
                              flush_l1=True, page_table=None)

    def exit_enclave(self, handle: EnclaveHandle) -> None:
        core = self.soc.cores[handle.core_id]
        core.domain = None
        core.privilege = PrivilegeLevel.KERNEL
        self.soc.hierarchy.flush_core(handle.core_id)  # flush_l1

    # -- enclave memory access --------------------------------------------------------

    def enclave_read(self, handle: EnclaveHandle, offset: int) -> int:
        if not 0 <= offset < handle.size:
            raise EnclaveError(f"offset {offset:#x} outside enclave")
        return self.soc.cores[handle.core_id].read_mem(handle.base + offset)

    def enclave_write(self, handle: EnclaveHandle, offset: int,
                      value: int) -> None:
        if not 0 <= offset < handle.size:
            raise EnclaveError(f"offset {offset:#x} outside enclave")
        self.soc.cores[handle.core_id].write_mem(handle.base + offset, value)

    # -- attestation (secure-world primitive) ----------------------------------

    def attest(self, handle: EnclaveHandle,
               nonce: bytes) -> AttestationReport:
        if not handle.initialized:
            raise EnclaveError("attesting an uninitialised enclave")
        return AttestationReport.create(
            self._attestation_key, handle.measurement, nonce,
            params=handle.name.encode())

    @property
    def attestation_key_for_verifier(self) -> bytes:
        return self._attestation_key
