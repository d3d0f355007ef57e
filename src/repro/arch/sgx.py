"""Intel SGX model: EPC, MEE, OS-managed paging, secure page swap.

The properties Section 3.1 compares — and the attack surface Section 4
exploits — are reproduced mechanistically:

* enclave memory lives in a dedicated physical window (the EPC) covered by
  the :class:`~repro.memory.mee.MemoryEncryptionEngine` → DMA aborts and
  physical dumps see ciphertext;
* EPC pages are only CPU-readable while the owning enclave is the active
  context on that core (abort-page semantics modelled as a bus denial);
* **the untrusted OS owns the page tables** — it can clear present bits,
  which together with the secure-page-swap path decrypting enclave pages
  into L1 is exactly Foreshadow's lever;
* the shared LLC is *not* partitioned and caches are *not* flushed on
  enclave switches (refs [8, 44]: cache attacks on SGX are practical);
* attestation: measurement at build, reports MAC'd with a CPU-fused key.
"""

from __future__ import annotations

import struct

from repro.arch.base import (
    AES_TABLES_SIZE,
    ArchFeatures,
    EnclaveContext,
    EnclaveHandle,
    SecurityArchitecture,
)
from repro.attestation.measure import Measurement
from repro.attestation.report import AttestationReport
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.tlb import TLB
from repro.common import PlatformClass, PrivilegeLevel
from repro.cpu.core import Core
from repro.crypto.rng import XorShiftRNG
from repro.errors import AccessFault, EnclaveError, SecurityViolation
from repro.memory.bus import BusTransaction, SystemBus
from repro.memory.mee import MemoryEncryptionEngine
from repro.memory.mmu import MMU
from repro.memory.paging import FrameAllocator, PAGE_MASK, PAGE_SIZE, PageFlags
from repro.memory.phys import WORD_MASK, WORD_SIZE

#: Enclave virtual base; each enclave gets a 1 MiB VA window.
ENCLAVE_VA_BASE = 0x1000_0000
ENCLAVE_VA_STRIDE = 0x10_0000

EPC_SIZE = 1 << 22  # 4 MiB enclave page cache


class _EPCAccessControl:
    """Abort-page semantics: EPC is only readable in the owning enclave."""

    def __init__(self, sgx: "SGX") -> None:
        self.sgx = sgx

    def check(self, txn: BusTransaction, region) -> None:
        base, end = self.sgx.epc_base, self.sgx.epc_base + EPC_SIZE
        if not (txn.addr < end and base < txn.end):
            return
        if txn.master.kind != "cpu":
            return  # the MEE controller already aborts non-CPU masters
        core_name = txn.master.name.split("-")[0]
        page = txn.addr & ~(PAGE_SIZE - 1)
        owner = self.sgx.epc_owner.get(page)
        active = self.sgx.active_enclave.get(core_name)
        if owner is None or owner != active:
            raise AccessFault(txn.addr, txn.access,
                              "EPC access outside owning enclave (abort page)")


class SGX(SecurityArchitecture):
    """Intel SGX on a stationary high-performance SoC."""

    NAME = "sgx"

    def install(self) -> None:
        soc = self.soc
        dram = soc.regions.get("dram")
        # EPC sits at the bottom of DRAM; page-table frames at the top.
        self.epc_base = dram.base
        self.epc_allocator = FrameAllocator(self.epc_base,
                                            EPC_SIZE // PAGE_SIZE)
        self._rng = XorShiftRNG(0x5E5E)
        #: CPU-fused keys: never exposed outside this object (the hardware).
        self._mee_key = self._rng.next_u64()
        self._attestation_key = self._rng.bytes(32)
        self._swap_key = self._rng.bytes(32)

        self.mee = MemoryEncryptionEngine(self.epc_base, EPC_SIZE,
                                          self._mee_key)
        soc.bus.add_transform("sgx-mee", self.mee)
        soc.bus.add_controller("sgx-mee-dma-abort", self.mee)
        soc.bus.add_controller("sgx-epc-access", _EPCAccessControl(self))

        self.epc_owner: dict[int, int] = {}  # page paddr -> enclave id
        self.active_enclave: dict[str, int | None] = {}
        #: The untrusted OS's page table — SGX trusts it for *management*
        #: only; confidentiality is supposed to come from the EPC + MEE.
        self.os_page_table = soc.make_page_table(asid=1)
        #: Swapped-out page blobs: va -> (ciphertext, MAC over va and it).
        self._swapped: dict[int, tuple[bytes, bytes]] = {}

    def features(self) -> ArchFeatures:
        return ArchFeatures(
            name=self.NAME,
            target_platform=PlatformClass.SERVER_DESKTOP,
            software_tcb="none (CPU microcode only)",
            hardware_tcb="CPU package incl. MEE",
            enclave_count="N",
            memory_encryption=True,
            llc_partitioning=False,
            cache_exclusion=False,
            flush_on_switch=False,
            dma_protection="mee-abort",
            peripheral_secure_channel=False,
            attestation="local+remote",
            code_isolation=True,
            requires_new_hardware=True,
        )

    # -- lifecycle -----------------------------------------------------------

    def create_enclave(self, name: str, size: int = AES_TABLES_SIZE,
                       core_id: int = 0) -> EnclaveHandle:
        enclave_id = self._allocate_id()
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        va_base = ENCLAVE_VA_BASE + enclave_id * ENCLAVE_VA_STRIDE
        first_paddr = None
        for i in range(pages):
            frame = self.epc_allocator.alloc()
            if first_paddr is None:
                first_paddr = frame
            self.epc_owner[frame] = enclave_id
            self.os_page_table.map(
                va_base + i * PAGE_SIZE, frame,
                PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER |
                PageFlags.EXECUTE)
        handle = EnclaveHandle(
            enclave_id=enclave_id, name=name, base=va_base,
            paddr=first_paddr, size=pages * PAGE_SIZE, core_id=core_id,
            domain=f"sgx-enclave-{enclave_id}")
        self.enclaves[enclave_id] = handle
        measurement = Measurement()
        self.enter_enclave(handle)
        try:
            evidence = self._load_pages(handle)
        finally:
            self.exit_enclave(handle)
        measurement.extend(evidence, label=f"enclave:{name}")
        handle.measurement = measurement.value
        handle.initialized = True
        return handle

    # -- page-batched enclave loads (EADD / EINIT) ------------------------------

    def _load_pages(self, handle: EnclaveHandle) -> bytes:
        """EADD every page of ``handle`` through its core, then EINIT:
        returns the measured evidence, the low byte of each word of the
        first page as loaded.

        EADD writes every enclave byte through the CPU (and therefore
        through the MEE, which tags it — from now on any DRAM-side tamper
        is caught on the next enclave read).  The first words carry the
        enclave's code image (distinct per app), so distinct enclaves get
        distinct measurements."""
        core = self.soc.cores[handle.core_id]
        image = handle.name.encode().ljust(32, b"\x00")[:32]
        for off in range(0, handle.size, PAGE_SIZE):
            words = [0] * (PAGE_SIZE // WORD_SIZE)
            if off == 0:
                words[:4] = [int.from_bytes(image[i:i + WORD_SIZE], "little")
                             for i in range(0, 32, WORD_SIZE)]
            self._move_page(core, handle.base + off, len(words), words)
        return bytes(word & 0xFF for word in self._move_page(
            core, handle.base, min(handle.size, PAGE_SIZE) // WORD_SIZE))

    def _move_page(self, core: Core, va: int, count: int,
                   words: list[int] | None = None,
                   reload: bool = False) -> list[int]:
        """``count`` consecutive word loads from ``va`` (``words`` None) or
        stores of ``words`` there, each store followed by a load of the
        word it stored with ``reload`` (ELDU's decrypt-to-L1), all in one
        page: exactly what as many ``core.write_mem``/``core.read_mem``
        calls do.  Returns the loaded words.

        The first word takes that per-word path: it translates (walking
        and filling the TLB on a miss), meets the bus's verdict for the
        page and faults where the loop would.  When :meth:`_page_region`
        holds, the rest move at once (:meth:`_move_words`).  Otherwise,
        or when an MEE tag fails, the per-word loop moves them.
        """
        if (va & PAGE_MASK) + count * WORD_SIZE > PAGE_SIZE:
            raise ValueError("a page move must stay within one page")
        values: list[int] = []

        def move(i: int) -> None:
            addr = va + i * WORD_SIZE
            if words is not None:
                core.write_mem(addr, words[i])
            if words is None or reload:
                values.append(core.read_mem(addr))

        move(0)
        rest = count - 1
        mmu = core.mmu
        entry = (mmu.tlb.peek(mmu.asid, va & ~PAGE_MASK)
                 if rest and type(mmu.tlb) is TLB else None)
        region = entry and self._page_region(core, entry.paddr)
        if region:
            moved = self._move_words(
                core, entry, region,
                entry.paddr | (va + WORD_SIZE) & PAGE_MASK, rest,
                None if words is None else words[1:], reload)
            if moved is not None:
                return values + moved
        for i in range(1, count):
            move(i)
        return values

    def _page_region(self, core: Core, paddr: int):
        """The memory region holding the page at ``paddr`` when its words
        may move as one batch, else None: every step of the per-word path
        gives them all one outcome.  The core's memory path, MMU, TLB, bus
        and hierarchy are the stock ones and the MMU is paged; no walk hook
        or bus snooper watches and no cache is way-partitioned (so no fill
        can fail); every bus controller is the MEE or the EPC check and
        every transform the MEE, and each of their ranges holds the page
        wholly or not at all; one non-device region holds it.  These
        preconditions alone decide.
        """
        mmu, bus, hierarchy = core.mmu, self.soc.bus, self.soc.hierarchy
        if (type(core)._translate is not Core._translate
                or type(core).read_mem is not Core.read_mem
                or type(core).write_mem is not Core.write_mem
                or type(mmu) is not MMU or mmu.root is None or mmu.walk_hooks
                or type(bus) is not SystemBus or bus._snoopers
                or type(hierarchy) is not CacheHierarchy
                or any(cache.partition is not None
                       for cache in (*hierarchy.l1s, hierarchy.l2))):
            return None
        ranges = []
        for _, unit in bus._controllers:
            if type(unit) is _EPCAccessControl:
                base = unit.sgx.epc_base
                ranges.append((base, base + EPC_SIZE))
            elif type(unit) is MemoryEncryptionEngine:
                ranges.append((unit.base, unit.end))
            else:
                return None
        for _, unit in bus._transforms:
            if type(unit) is not MemoryEncryptionEngine:
                return None
            ranges.append((unit.base, unit.end))
        end = paddr + PAGE_SIZE
        if any(paddr < hi and lo < end and not (lo <= paddr and end <= hi)
               for lo, hi in ranges):
            return None
        region = bus.regions.find(paddr)
        if region is None or region.device or end > region.end:
            return None
        return region

    def _move_words(self, core: Core, entry, region, paddr: int, count: int,
                    words: list[int] | None,
                    reload: bool = False) -> list[int] | None:
        """The batch half of :meth:`_move_page`: ``count`` words at
        ``paddr`` whose page is resident in the TLB as ``entry``.  Their
        TLB hits, bus transactions and charges are counted, the MEE seals
        or opens them as one list, memory is copied once and the caches
        advance line by line (:meth:`CacheHierarchy.access_words`).
        Returns the loaded words, or None (with nothing changed) when an
        MEE tag fails.  A reload reads back what its store just sealed,
        so it verifies and decrypts to the stored word."""
        soc = self.soc
        bus, memory, tlb = soc.bus, soc.memory, core.mmu.tlb
        addrs = range(paddr, paddr + count * WORD_SIZE, WORD_SIZE)
        mees = [t for _, t in bus._transforms if t.base <= paddr < t.end]
        if words is None:
            values = list(struct.unpack(
                f"<{count}Q", memory.read_bytes(paddr, count * WORD_SIZE)))
            for mee in reversed(mees):
                values = mee.open_words(addrs, values)
                if values is None:
                    return None
        else:
            values = data = [word & WORD_MASK for word in words]
            for mee in mees:
                data = mee.seal_words(addrs, data)
            memory.write_bytes(paddr, struct.pack(f"<{count}Q", *data))
        stores = words is not None
        loads = not stores or reload
        for mee in mees:
            mee.encrypted_writes += stores * count
            mee.decrypted_reads += loads * count
        accesses = (stores + loads) * count
        tlb.hit_again(entry, accesses)
        bus.transaction_count += accesses
        core.cycles += accesses * tlb.access_latency(True) + \
            soc.hierarchy.access_words(core.config.core_id, paddr, count,
                                       stores, core.domain, region.cacheable,
                                       reload)
        energy = core.config.energy_per_mem_pj
        for addr, value in zip(addrs, values):
            for _ in range(stores + loads):
                core.energy_pj += energy
                core._note_l1_fill(addr, value)
        return values if loads else []

    def destroy_enclave(self, handle: EnclaveHandle) -> None:
        for page in [p for p, owner in self.epc_owner.items()
                     if owner == handle.enclave_id]:
            del self.epc_owner[page]
        super().destroy_enclave(handle)

    # -- context switching ---------------------------------------------------------

    def enclave_context(self, handle: EnclaveHandle) -> EnclaveContext:
        # User-mode enclaves inside the OS's address space.
        core = self.soc.cores[handle.core_id]
        return EnclaveContext(PrivilegeLevel.USER, core.world.is_secure,
                              flush_l1=False, page_table=self.os_page_table)

    def enter_enclave(self, handle: EnclaveHandle) -> None:
        super().enter_enclave(handle)
        core = self.soc.cores[handle.core_id]
        self.active_enclave[core.config.name] = handle.enclave_id

    def exit_enclave(self, handle: EnclaveHandle) -> None:
        core = self.soc.cores[handle.core_id]
        core.domain = None
        core.privilege = PrivilegeLevel.KERNEL
        self.active_enclave[core.config.name] = None
        # No cache flush on exit: SGX's documented (and exploited) gap.

    # -- enclave-context memory access ------------------------------------------------

    def _read_word_as_enclave(self, handle: EnclaveHandle,
                              offset: int) -> int:
        core = self.soc.cores[handle.core_id]
        return core.read_mem(handle.base + offset)

    def enclave_read(self, handle: EnclaveHandle, offset: int) -> int:
        if not 0 <= offset < handle.size:
            raise EnclaveError(f"offset {offset:#x} outside enclave")
        return self._read_word_as_enclave(handle, offset)

    def enclave_write(self, handle: EnclaveHandle, offset: int,
                      value: int) -> None:
        """Word write as the enclave (stores land MEE-encrypted in EPC)."""
        if not 0 <= offset < handle.size:
            raise EnclaveError(f"offset {offset:#x} outside enclave")
        core = self.soc.cores[handle.core_id]
        core.write_mem(handle.base + offset, value)

    # -- attestation -----------------------------------------------------------------

    def attest(self, handle: EnclaveHandle,
               nonce: bytes) -> AttestationReport:
        if not handle.initialized:
            raise EnclaveError("attesting an uninitialised enclave")
        return AttestationReport.create(
            self._attestation_key, handle.measurement, nonce,
            params=handle.name.encode())

    @property
    def attestation_key_for_verifier(self) -> bytes:
        """Provisioned to the attestation service (the verifier side)."""
        return self._attestation_key

    # -- local attestation (EREPORT / EGETKEY) -------------------------------------

    def _report_key(self, target: EnclaveHandle) -> bytes:
        """The CPU-derived key binding reports to one target enclave."""
        from repro.crypto.hmacmod import hmac_sha256
        return hmac_sha256(self._attestation_key,
                           b"report-key" + target.measurement)

    def local_attest(self, source: EnclaveHandle, target: EnclaveHandle,
                     nonce: bytes) -> AttestationReport:
        """EREPORT: a report about ``source``, verifiable only by ``target``.

        The MAC key is derived from the *target's* identity, so only the
        enclave the report was destined for can check it — the hardware
        primitive under SGX's local-attestation handshake.
        """
        if not source.initialized or not target.initialized:
            raise EnclaveError("local attestation needs initialised enclaves")
        return AttestationReport.create(
            self._report_key(target), source.measurement, nonce,
            params=source.name.encode())

    def egetkey(self, handle: EnclaveHandle) -> bytes:
        """EGETKEY: hand the report key to the *currently executing* enclave.

        The hardware check: only the enclave that is the active context on
        its core may obtain its own report key.
        """
        core = self.soc.cores[handle.core_id]
        if self.active_enclave.get(core.config.name) != handle.enclave_id:
            raise EnclaveError(
                "EGETKEY outside the enclave's execution context")
        return self._report_key(handle)

    # -- secure page swapping (EWB / ELDU) -------------------------------------

    def _swap_crypt(self, va: int, data: bytes) -> bytes:
        """``data`` XORed with the swap keystream of the page at ``va``:
        EWB's encryption and ELDU's decryption."""
        keystream = XorShiftRNG(
            int.from_bytes(self._swap_key[:8], "little") ^ va)
        mixed = int.from_bytes(data, "little") ^ int.from_bytes(
            keystream.bytes(len(data)), "little")
        return mixed.to_bytes(len(data), "little")

    def _swap_mac(self, va: int, blob: bytes) -> bytes:
        """The MAC binding an EWB blob to its page's virtual address,
        under a key derived from the CPU-fused swap key."""
        from repro.crypto.hmacmod import hmac_sha256
        key = hmac_sha256(self._swap_key, b"ewb-mac")
        return hmac_sha256(key, va.to_bytes(8, "little") + blob)

    def swap_out(self, handle: EnclaveHandle, page_offset: int) -> None:
        """EWB: encrypt an enclave page out to regular memory, unmap it."""
        va = handle.base + page_offset
        if va % PAGE_SIZE:
            raise EnclaveError("page_offset must be page-aligned")
        entry = self.os_page_table.lookup(va)
        if entry is None:
            raise EnclaveError("page not mapped")
        paddr, _ = entry
        # Hardware path: read the page as the enclave (decrypting), then
        # re-encrypt under the swap key into a MAC'd software blob.
        self.enter_enclave(handle)
        try:
            words = self._move_page(self.soc.cores[handle.core_id], va,
                                    PAGE_SIZE // WORD_SIZE)
        finally:
            self.exit_enclave(handle)
        blob = self._swap_crypt(va, struct.pack(f"<{len(words)}Q", *words))
        self._swapped[va] = (blob, self._swap_mac(va, blob))
        self.os_page_table.update_flags(va, clear_flags=PageFlags.PRESENT)
        del self.epc_owner[paddr]
        self.soc.mmus[handle.core_id].flush_tlb()

    def swap_in(self, handle: EnclaveHandle, page_offset: int) -> None:
        """ELDU: decrypt a swapped page back into the EPC — *via the L1*.

        The OS may invoke this at will.  The decrypted words transit the
        core's load/store path inside the enclave context, so the page's
        plaintext ends up L1-resident — the state Foreshadow harvests.
        A blob altered while swapped out fails its MAC: ELDU then raises
        :class:`SecurityViolation`, allocates nothing and keeps the blob.
        """
        va = handle.base + page_offset
        swapped = self._swapped.get(va)
        if swapped is None:
            raise EnclaveError(f"page {va:#x} is not swapped out")
        blob, mac = swapped
        if self._swap_mac(va, blob) != mac:
            raise SecurityViolation(f"ELDU: page {va:#x} fails its MAC")
        del self._swapped[va]
        frame = self.epc_allocator.alloc()
        self.epc_owner[frame] = handle.enclave_id
        self.os_page_table.remap(va, frame)
        self.os_page_table.update_flags(va, set_flags=PageFlags.PRESENT)
        self.soc.mmus[handle.core_id].flush_tlb()
        plain = self._swap_crypt(va, blob)
        self.enter_enclave(handle)
        try:
            self._move_page(self.soc.cores[handle.core_id], va,
                            PAGE_SIZE // WORD_SIZE,
                            list(struct.unpack(f"<{len(plain) // WORD_SIZE}Q",
                                               plain)),
                            reload=True)
        finally:
            self.exit_enclave(handle)
