"""Hardware-assisted security architectures (Section 3 of the paper).

Each module configures a simulated :class:`~repro.cpu.soc.SoC` the way the
real architecture configures real silicon: which bus controllers exist,
who owns the page tables, what the cache hierarchy does on enclave
switches, where attestation keys live.  The common interface in
:mod:`repro.arch.base` is what the attack suite and the comparison engine
drive.

========== ============================ ==================================
module     architecture                 defining mechanism modelled
========== ============================ ==================================
sgx        Intel SGX [16]               EPC + MEE, OS-managed paging,
                                        secure page swap, attestation keys
sanctum    Sanctum [11]                 monitor-owned paging, LLC page
                                        colouring, DMA filter
trustzone  ARM TrustZone [2]            two worlds, TZASC, monitor,
                                        secure boot, peripheral channels
sanctuary  Sanctuary [7]                core-isolated user-space enclaves,
                                        cache exclusion
smart      SMART [12]                   ROM + PC-gated key, interrupt
                                        discipline, cleanup
sancus     Sancus [33]                  zero-software TCB (HW HMAC engine)
trustlite  TrustLite [26]               Secure Loader + locked EA-MPU
tytan      TyTAN [6]                    TrustLite + secure boot/storage,
                                        real-time capable
========== ============================ ==================================

The package namespace is lazy (PEP 562): each name imports its
submodule on first access, so ``import repro.arch.null`` (every Figure 1
cell) loads none of the eight architectures.
"""

from repro.common import lazy_exports

__all__, _lazy_getattr, _lazy_dir = lazy_exports(__name__, {
    "base": ("AESVictim", "ArchFeatures", "EnclaveContext",
             "EnclaveHandle", "SecurityArchitecture"),
    "sgx": ("SGX",),
    "sanctum": ("Sanctum",),
    "trustzone": ("TrustZone",),
    "sanctuary": ("Sanctuary",),
    "smart": ("SMART",),
    "sancus": ("Sancus",),
    "trustlite": ("TrustLite",),
    "tytan": ("TyTAN",),
})
__all__ = sorted([*__all__, "ALL_ARCHITECTURES"])


def __getattr__(name: str):
    """Lazy names, plus ``ALL_ARCHITECTURES``: the eight classes in the
    paper's presentation order."""
    if name != "ALL_ARCHITECTURES":
        return _lazy_getattr(name)
    value = globals()[name] = tuple(_lazy_getattr(cls) for cls in (
        "SGX", "Sanctum", "TrustZone", "Sanctuary", "SMART", "Sancus",
        "TrustLite", "TyTAN"))
    return value


def __dir__() -> list[str]:
    return sorted({*_lazy_dir(), "ALL_ARCHITECTURES"})
