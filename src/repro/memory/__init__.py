"""Memory subsystem: physical memory, bus, paging/MMU, MPU, TZASC, DMA, MEE.

Everything a hardware-assisted security architecture hangs off lives here:

* :class:`PhysicalMemory` — byte-addressable backing store.
* :class:`SystemBus` — routes master transactions through pluggable access
  control (this is where TrustZone's TZASC, Sanctum's DMA filter and SMART's
  PC-gated key vault are enforced).
* :mod:`repro.memory.paging` / :class:`MMU` — radix page tables *stored in
  simulated physical memory* so an untrusted OS really can flip
  present/reserved bits (the Foreshadow precondition).
* :class:`MPU` / :class:`ExecutionAwareMPU` — embedded-class protection
  (TrustLite/TyTAN).
* :class:`DMAEngine` — a non-CPU bus master for DMA-attack experiments.
* :class:`MemoryEncryptionEngine` — SGX-style transparent encryption of a
  protected physical range.
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "phys": ("PhysicalMemory",),
    "regions": ("MemoryRegion", "Permissions", "RegionMap"),
    "bus": ("BusMaster", "BusTransaction", "SystemBus"),
    "paging": ("PAGE_SIZE", "PageFlags", "PageTable", "pte_pack",
               "pte_unpack"),
    "mmu": ("MMU", "TranslationResult"),
    "mpu": ("ExecutionAwareMPU", "MPU", "MPURegion"),
    "tzasc": ("TrustZoneAddressSpaceController", "WorldState"),
    "dma": ("DMAEngine",),
    "mee": ("MemoryEncryptionEngine",),
    "rom": ("KeyVault", "ROMRegion"),
    "disturbance": ("DisturbanceModel", "ROW_SIZE"),
})
