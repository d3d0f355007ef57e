"""Common interface every security architecture implements.

The comparison engine (TAB-S3) reads :class:`ArchFeatures`; the attack
suite drives enclaves through :class:`EnclaveHandle` and the standard
:class:`AESVictim` deployment, which every architecture can host.  The
victim's table lookups go through the *full* simulated memory path of its
SoC — MMU, bus controllers, cache hierarchy — so whatever protections the
architecture installed are what the attacker actually faces.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.attestation.report import AttestationReport
from repro.common import PlatformClass, PrivilegeLevel
from repro.cpu.soc import SoC
from repro.errors import EnclaveError

if TYPE_CHECKING:
    from repro.memory.paging import PageTable

#: Size of the five AES lookup tables (Te0-Te3 + final S-box), each 256
#: 4-byte entries, padded to its own 1 KiB so tables never share lines.
AES_TABLE_STRIDE = 1024
AES_TABLES_SIZE = 5 * AES_TABLE_STRIDE
#: Enclave-relative offset where the victim stores its AES key (two words).
AES_KEY_OFFSET = AES_TABLES_SIZE


@dataclass(frozen=True)
class ArchFeatures:
    """The Section-3 comparison axes, one row of TAB-S3."""

    name: str
    target_platform: PlatformClass
    software_tcb: str  # what software must be trusted
    hardware_tcb: str  # what hardware must be trusted
    enclave_count: str  # "1" | "N" | "none"
    memory_encryption: bool
    llc_partitioning: bool
    cache_exclusion: bool
    flush_on_switch: bool
    dma_protection: str  # "none" | "mee-abort" | "mc-filter" | "tzasc-claim"
    peripheral_secure_channel: bool
    attestation: str  # "none" | "local+remote" | "remote"
    code_isolation: bool
    requires_new_hardware: bool
    realtime_capable: bool = True


@dataclass
class EnclaveHandle:
    """One protected execution compartment."""

    enclave_id: int
    name: str
    base: int  # virtual base of enclave memory as the enclave sees it
    paddr: int  # physical base
    size: int
    core_id: int
    domain: str
    measurement: bytes = b""
    initialized: bool = False
    metadata: dict = field(default_factory=dict)


class EnclaveContext(NamedTuple):
    """How a core runs between ``enter_enclave`` and ``exit_enclave``."""

    privilege: PrivilegeLevel
    secure: bool  # the core's world (only TrustZone's monitor switches it)
    flush_l1: bool  # the core's private caches are flushed on both switches
    page_table: PageTable | None  # MMU context set on entry; None keeps it


class SecurityArchitecture(abc.ABC):
    """Base class: lifecycle + the feature/attack-facing API."""

    #: Human-readable architecture name (class attribute in subclasses).
    NAME = "abstract"

    def __init__(self, soc: SoC) -> None:
        self.soc = soc
        self._next_enclave_id = 1
        self.enclaves: dict[int, EnclaveHandle] = {}
        self.install()

    # -- subclass responsibilities ------------------------------------------

    @abc.abstractmethod
    def install(self) -> None:
        """Configure the SoC: bus controllers, regions, monitor state."""

    @abc.abstractmethod
    def features(self) -> ArchFeatures:
        """Static + mechanism-derived feature row."""

    @abc.abstractmethod
    def create_enclave(self, name: str, size: int = AES_TABLES_SIZE,
                       core_id: int = 0) -> EnclaveHandle:
        """Allocate and protect an enclave; measurement covers its memory."""

    @abc.abstractmethod
    def enclave_read(self, handle: EnclaveHandle, offset: int) -> int:
        """One word read *as the enclave* at ``base + offset``.

        Implementations must route through the SoC's real memory path with
        the enclave's execution context active, so the access is subject
        to — and shielded by — whatever the architecture installed.
        """

    @abc.abstractmethod
    def enclave_write(self, handle: EnclaveHandle, offset: int,
                      value: int) -> None:
        """One word write as the enclave at ``base + offset``."""

    def attest(self, handle: EnclaveHandle,
               nonce: bytes) -> AttestationReport:
        """Produce an attestation report for the enclave, if supported."""
        raise EnclaveError(f"{self.NAME} does not support attestation")

    # -- shared helpers -------------------------------------------------------

    def _allocate_id(self) -> int:
        enclave_id = self._next_enclave_id
        self._next_enclave_id += 1
        return enclave_id

    def destroy_enclave(self, handle: EnclaveHandle) -> None:
        """Tear an enclave down (subclasses extend for cleanup duties)."""
        self.enclaves.pop(handle.enclave_id, None)
        handle.initialized = False

    def attacker_can_map(self, paddr: int) -> bool:
        """Can an attacker-controlled address space map ``paddr`` at all?

        Bus-level defences say no at transaction time; *translation-level*
        defences (Sanctum's page-walker ownership check) say no here —
        the attacker never obtains a usable virtual mapping.  Default:
        yes (no translation-level defence).
        """
        return True

    def alloc_attacker_page(self) -> int:
        """A physical page an unprivileged attacker process may use freely.

        The default hands out plain DRAM pages from the middle of memory.
        Architectures whose defence acts through frame allocation
        (Sanctum's page colouring) override this: attacker pages then come
        only from the colours the OS is allowed to allocate, which is the
        entire mechanism.
        """
        if not hasattr(self, "_attacker_allocator"):
            from repro.memory.paging import FrameAllocator
            dram = self.soc.regions.get("dram")
            base = dram.base + dram.size // 2
            self._attacker_allocator = FrameAllocator(base, 2048)
        return self._attacker_allocator.alloc()

    # -- the standard cache-attack victim ---------------------------------------

    def deploy_aes_victim(self, key: bytes,
                          core_id: int = 0) -> "AESVictim":
        """Host a T-table AES service inside a fresh enclave.

        The returned victim's ``encrypt`` runs with the enclave context
        active on ``core_id``; each T-table lookup performs a real word
        read at ``table_base + table*1024 + index*4`` through the SoC.
        """
        handle = self.create_enclave(f"aes-victim-{self._next_enclave_id}",
                                     size=AES_TABLES_SIZE + 64,
                                     core_id=core_id)
        return AESVictim(self, handle, key)

    # -- context management used by AESVictim --------------------------------------

    def enclave_context(self, handle: EnclaveHandle) -> EnclaveContext | None:
        """The core state ``enter_enclave`` establishes for ``handle``, or
        ``None`` when the switch does more than :class:`EnclaveContext`
        describes.  Default: the core keeps its privilege and world."""
        core = self.soc.cores[handle.core_id]
        return EnclaveContext(core.privilege, core.world.is_secure,
                              flush_l1=False, page_table=None)

    def enter_enclave(self, handle: EnclaveHandle) -> None:
        """Make ``handle`` the active context on its core: its domain,
        then :meth:`enclave_context`."""
        core = self.soc.cores[handle.core_id]
        context = self.enclave_context(handle)
        core.domain = handle.domain
        core.privilege = context.privilege
        if context.page_table is not None:
            core.mmu.set_context(context.page_table.root,
                                 asid=context.page_table.asid)
        if context.flush_l1:
            self.soc.hierarchy.flush_core(handle.core_id)

    def exit_enclave(self, handle: EnclaveHandle) -> None:
        """Leave enclave context (default: restore OS domain)."""
        core = self.soc.cores[handle.core_id]
        core.domain = None


class AESVictim:
    """A T-table AES-128 service running inside an enclave.

    This is the shared victim of every cache side-channel experiment
    (TAB-S41): same cipher, same table layout, different architecture
    underneath.
    """

    def __init__(self, arch: SecurityArchitecture, handle: EnclaveHandle,
                 key: bytes) -> None:
        self.arch = arch
        self.handle = handle
        self.key = key
        self.table_base = handle.base  # enclave-virtual address of Te0
        self.encryptions = 0

        # The enclave provisions its key into protected memory — this is
        # the secret Foreshadow-class attacks try to pull out of the L1.
        arch.enter_enclave(handle)
        try:
            for i in range(2):
                arch.enclave_write(
                    handle, AES_KEY_OFFSET + 8 * i,
                    int.from_bytes(key[8 * i:8 * i + 8], "little"))
        finally:
            arch.exit_enclave(handle)

        # Imported here: only a deployed victim needs the AES tables,
        # not every command that imports an architecture.
        from repro.crypto.aes import TTableAES

        def on_lookup(table: int, index: int) -> None:
            # Word-aligned touch of the entry's cache line: the timing
            # channel is line-granular, so alignment loses nothing.
            offset = (table * AES_TABLE_STRIDE + index * 4) & ~7
            self.arch.enclave_read(self.handle, offset)

        self._cipher = TTableAES(key, on_lookup=on_lookup)

    @property
    def core_id(self) -> int:
        return self.handle.core_id

    @property
    def table_paddr(self) -> int:
        """Physical base of the victim's tables (oracle for tests only)."""
        return self.handle.paddr

    def encrypt(self, plaintext: bytes) -> bytes:
        """Service one encryption request inside the enclave.

        The key is (re)loaded from enclave memory first — on every real
        TEE the key schedule transits the L1 when the enclave runs, which
        is the state terminal-fault attacks harvest.
        """
        self.arch.enter_enclave(self.handle)
        try:
            for i in range(2):
                self.arch.enclave_read(self.handle, AES_KEY_OFFSET + 8 * i)
            ciphertext = self._cipher.encrypt_block(plaintext)
        finally:
            self.arch.exit_enclave(self.handle)
        self.encryptions += 1
        return ciphertext
