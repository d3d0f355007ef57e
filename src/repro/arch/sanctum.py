"""Sanctum model: monitor-owned paging, LLC page colouring, DMA filter.

Sanctum "resembles Intel SGX regarding its high-level concept" but differs
in exactly the ways Section 3.1 lists, and each difference is mechanised:

* the microcode TCB becomes a software **monitor**: enclave page tables
  are created and owned by the monitor; the OS never holds a writable
  reference to them (so the Foreshadow PTE lever does not exist);
* isolation is enforced by "small hardware changes around the page table
  walker": a walk hook on every MMU vetoes any translation that resolves
  into an enclave-owned frame from outside that enclave;
* **no memory encryption** — a physical bus probe sees enclave plaintext
  (contrast with SGX's MEE);
* "basic DMA attack protection by modifying the memory controller" — a
  whitelist filter confines DMA to a dedicated window;
* **LLC partitioning through page colouring**: enclave frames come from
  reserved colours, so no attacker-reachable address maps to an enclave
  LLC set; core-private caches are flushed on enclave switches.
"""

from __future__ import annotations

from repro.arch.base import (
    AES_TABLES_SIZE,
    ArchFeatures,
    EnclaveHandle,
    SecurityArchitecture,
)
from repro.attestation.measure import Measurement
from repro.attestation.report import AttestationReport
from repro.cache.partition import color_of, num_colors
from repro.common import PlatformClass, PrivilegeLevel
from repro.crypto.rng import XorShiftRNG
from repro.errors import EnclaveError, PageFault
from repro.memory.dma import DMAFilter
from repro.memory.paging import PAGE_SIZE, PageFlags

ENCLAVE_VA_BASE = 0x2000_0000
ENCLAVE_VA_STRIDE = 0x10_0000

#: Size of the DMA-permitted window at the top of the OS half of DRAM.
DMA_WINDOW_SIZE = 1 << 20


class Sanctum(SecurityArchitecture):
    """Sanctum on an open RISC-V-style high-performance SoC."""

    NAME = "sanctum"

    def install(self) -> None:
        soc = self.soc
        dram = soc.regions.get("dram")
        llc = soc.hierarchy.l2
        self.colors = num_colors(llc.num_sets, llc.line_size)
        #: Colours reserved for enclaves (the monitor's allocation policy).
        self.enclave_colors = {self.colors - 1} if self.colors > 1 else set()

        self._rng = XorShiftRNG(0x5A9C)
        self._attestation_key = self._rng.bytes(32)

        #: frame paddr -> owning enclave id (the walker's isolation table).
        self.frame_owner: dict[int, int] = {}
        self.active_enclave: dict[int, int | None] = {}

        # Walker hardware change: installed on every core's MMU.
        for core_id, mmu in enumerate(soc.mmus):
            mmu.walk_hooks.append(self._make_walk_hook(core_id))

        # Memory-controller DMA filter: DMA confined to a fixed window.
        self.dma_window_base = dram.base + dram.size // 4
        soc.bus.add_controller(
            "sanctum-dma-filter",
            DMAFilter(self.dma_window_base, DMA_WINDOW_SIZE))

        # Frame pools: enclave frames from reserved colours, OS/user frames
        # from the rest.  Both walk the same DRAM range.
        self._frame_cursor = dram.base
        self._frame_limit = dram.base + dram.size // 4
        self._free_enclave_frames: list[int] = []
        self._free_user_frames: list[int] = []

        #: The untrusted OS's own address space (it cannot map enclave
        #: frames into it: the walk hook fires even for kernel mappings).
        self.os_page_table = soc.make_page_table(asid=1)

    # -- frame allocation under the colouring policy -------------------------

    def _refill_frames(self) -> None:
        llc = self.soc.hierarchy.l2
        while not self._free_enclave_frames or not self._free_user_frames:
            if self._frame_cursor + PAGE_SIZE > self._frame_limit:
                raise EnclaveError("Sanctum frame pool exhausted")
            frame = self._frame_cursor
            self._frame_cursor += PAGE_SIZE
            color = color_of(frame, llc.num_sets, llc.line_size)
            if color in self.enclave_colors:
                self._free_enclave_frames.append(frame)
            else:
                self._free_user_frames.append(frame)

    def alloc_enclave_frame(self) -> int:
        """Monitor-only: a frame from the reserved enclave colours."""
        self._refill_frames()
        return self._free_enclave_frames.pop(0)

    def alloc_attacker_page(self) -> int:
        """OS/user frames never carry an enclave colour — by policy."""
        self._refill_frames()
        return self._free_user_frames.pop(0)

    def attacker_can_map(self, paddr: int) -> bool:
        """The walker check: enclave-owned frames are unmappable outside."""
        from repro.memory.paging import PAGE_SIZE
        return (paddr & ~(PAGE_SIZE - 1)) not in self.frame_owner

    # -- the page-table-walker hardware change ---------------------------------

    def _make_walk_hook(self, core_id: int):
        def hook(va: int, paddr: int, flags: PageFlags,
                 privilege: PrivilegeLevel, secure: bool) -> None:
            owner = self.frame_owner.get(paddr & ~(PAGE_SIZE - 1))
            if owner is None:
                return
            if self.active_enclave.get(core_id) != owner:
                fault = PageFault(va, "read",
                                  "sanctum: frame owned by another enclave")
                fault.paddr = None  # the walker aborts; nothing forwards
                fault.flags = flags
                raise fault
        return hook

    def features(self) -> ArchFeatures:
        return ArchFeatures(
            name=self.NAME,
            target_platform=PlatformClass.SERVER_DESKTOP,
            software_tcb="security monitor",
            hardware_tcb="CPU + page-walker checks + MC DMA filter",
            enclave_count="N",
            memory_encryption=False,
            llc_partitioning=True,
            cache_exclusion=False,
            flush_on_switch=True,
            dma_protection="mc-filter",
            peripheral_secure_channel=False,
            attestation="local+remote",
            code_isolation=True,
            requires_new_hardware=True,
        )

    # -- lifecycle ------------------------------------------------------------

    def create_enclave(self, name: str, size: int = AES_TABLES_SIZE,
                       core_id: int = 0) -> EnclaveHandle:
        enclave_id = self._allocate_id()
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        va_base = ENCLAVE_VA_BASE + enclave_id * ENCLAVE_VA_STRIDE
        # The monitor builds the enclave's page table itself; the OS never
        # sees it.  Stored on the handle's metadata, not reachable by
        # attacker-facing APIs.
        page_table = self.soc.make_page_table(asid=16 + enclave_id)
        first = None
        frames = []
        for i in range(pages):
            frame = self.alloc_enclave_frame()
            frames.append(frame)
            if first is None:
                first = frame
            self.frame_owner[frame] = enclave_id
            page_table.map(
                va_base + i * PAGE_SIZE, frame,
                PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER |
                PageFlags.EXECUTE)
        handle = EnclaveHandle(
            enclave_id=enclave_id, name=name, base=va_base, paddr=first,
            size=pages * PAGE_SIZE, core_id=core_id,
            domain=f"sanctum-enclave-{enclave_id}")
        handle.metadata["page_table"] = page_table
        handle.metadata["frames"] = frames
        self.enclaves[enclave_id] = handle
        measurement = Measurement()
        for frame in frames:
            measurement.extend_memory(self.soc.memory, frame, PAGE_SIZE,
                                      label=f"{name}:frame")
        handle.measurement = measurement.value
        handle.initialized = True
        return handle

    def destroy_enclave(self, handle: EnclaveHandle) -> None:
        for frame in handle.metadata.get("frames", []):
            self.frame_owner.pop(frame, None)
            self.soc.memory.clear_range(frame, PAGE_SIZE)  # monitor scrubs
            self._free_enclave_frames.append(frame)
        super().destroy_enclave(handle)

    # -- context switching -----------------------------------------------------

    def enclave_context(self, handle: EnclaveHandle) -> None:
        return None  # the switch also flushes the TLB

    def enter_enclave(self, handle: EnclaveHandle) -> None:
        core = self.soc.cores[handle.core_id]
        core.domain = handle.domain
        core.privilege = PrivilegeLevel.USER
        page_table = handle.metadata["page_table"]
        core.mmu.set_context(page_table.root, asid=page_table.asid)
        self.active_enclave[handle.core_id] = handle.enclave_id
        # Core-exclusive caches flushed on the way *in* as well: no OS
        # state survives into the enclave's timing.
        self.soc.hierarchy.flush_core(handle.core_id)
        core.mmu.flush_tlb()

    def exit_enclave(self, handle: EnclaveHandle) -> None:
        core = self.soc.cores[handle.core_id]
        core.domain = None
        core.privilege = PrivilegeLevel.KERNEL
        core.mmu.set_context(self.os_page_table.root,
                             asid=self.os_page_table.asid)
        self.active_enclave[handle.core_id] = None
        self.soc.hierarchy.flush_core(handle.core_id)
        core.mmu.flush_tlb()

    # -- enclave memory access -----------------------------------------------------

    def enclave_read(self, handle: EnclaveHandle, offset: int) -> int:
        if not 0 <= offset < handle.size:
            raise EnclaveError(f"offset {offset:#x} outside enclave")
        return self.soc.cores[handle.core_id].read_mem(handle.base + offset)

    def enclave_write(self, handle: EnclaveHandle, offset: int,
                      value: int) -> None:
        if not 0 <= offset < handle.size:
            raise EnclaveError(f"offset {offset:#x} outside enclave")
        self.soc.cores[handle.core_id].write_mem(handle.base + offset, value)

    # -- attestation ------------------------------------------------------------------

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
