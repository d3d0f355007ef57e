"""SoC composition and the three platform classes of Figure 1.

A :class:`SoC` wires physical memory, the bus, the cache hierarchy,
per-core MMUs/TLBs and cores into one object that security architectures
(:mod:`repro.arch`) then configure.  The factory functions build the
paper's platform classes with representative microarchitectures and
energy budgets:

=================  ==========================  =======================
factory            cores                       security-relevant traits
=================  ==========================  =======================
make_server_soc    4 speculative, deep window  MMU, big shared LLC, high
                                               energy budget
make_mobile_soc    2 speculative, shallower    TrustZone world state,
                                               software DVFS shared across
                                               worlds (CLKSCREW surface)
make_embedded_soc  1 in-order                  no MMU (identity), MPU-
                                               class protection, tiny
                                               caches, tight energy budget
=================  ==========================  =======================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.tlb import TLB
from repro.common import PlatformClass, World
from repro.cpu.core import (
    CSR_DVFS_FREQ,
    CSR_DVFS_VOLT,
    Core,
    CoreConfig,
)
from repro.cpu.dvfs import DVFSController, OperatingPoint, VoltageDomain
from repro.cpu.speculative import SpeculativeConfig, SpeculativeCore
from repro.memory.bus import SystemBus
from repro.memory.dma import DMAEngine
from repro.memory.mmu import MMU
from repro.memory.paging import FrameAllocator, PAGE_SIZE, PageTable
from repro.memory.phys import PhysicalMemory
from repro.memory.regions import RegionMap, standard_layout
from repro.memory.tzasc import WorldState


@dataclass
class SoCConfig:
    """Everything needed to build a platform instance."""

    name: str
    platform: PlatformClass
    num_cores: int = 2
    speculative: bool = True
    #: "fast" = predecoded dispatch engine; "reference" = the retained
    #: step-at-a-time oracle interpreter (repro.cpu.reference), used by the
    #: differential equivalence harness.
    interpreter: str = "fast"
    spec: SpeculativeConfig = field(default_factory=SpeculativeConfig)
    hierarchy: HierarchyConfig | None = None
    has_mmu: bool = True
    tlb_sets: int = 16
    tlb_ways: int = 4
    shared_tlb: bool = False  # SMT-style sharing between cores 0 and 1
    dram_size: int = 1 << 28
    freq_mhz: float = 1000.0
    energy_per_instr_pj: float = 10.0
    energy_per_mem_pj: float = 25.0
    dvfs_software_controllable: bool = True
    dvfs_secure_world_gated: bool = False
    dvfs_hardware_limit_mhz: float | None = None

    @property
    def dram_base(self) -> int:
        """Base address of DRAM in the layout a SoC of this config gets."""
        return standard_layout(self.dram_size).get("dram").base


class SoC:
    """A complete simulated system-on-chip."""

    def __init__(self, config: SoCConfig) -> None:
        self.config = config
        self.memory = PhysicalMemory(size=1 << 40)
        self.regions: RegionMap = standard_layout(config.dram_size)
        self.bus = SystemBus(self.memory, self.regions)
        self.hierarchy = CacheHierarchy(
            config.hierarchy or HierarchyConfig(num_cores=config.num_cores))
        if self.hierarchy.config.num_cores < config.num_cores:
            raise ValueError("hierarchy has fewer L1s than cores")
        self.world_state = WorldState()
        self.dma_engines: dict[str, DMAEngine] = {}

        # Page-table frames live at the top of DRAM.
        dram = self.regions.get("dram")
        pt_frames = 256
        self.pt_allocator = FrameAllocator(
            dram.end - pt_frames * PAGE_SIZE, pt_frames)

        self.dvfs = DVFSController(
            software_controllable=config.dvfs_software_controllable,
            secure_world_gated=config.dvfs_secure_world_gated)

        self.tlbs: list[TLB | None] = []
        self.mmus: list[MMU] = []
        self.cores: list[Core] = []
        shared_tlb = TLB(config.tlb_sets, config.tlb_ways) \
            if config.shared_tlb else None
        for i in range(config.num_cores):
            if config.has_mmu:
                tlb = shared_tlb if config.shared_tlb and i < 2 else \
                    TLB(config.tlb_sets, config.tlb_ways)
            else:
                tlb = None
            self.tlbs.append(tlb)
            mmu = MMU(self.bus, core_name=f"core{i}", tlb=tlb)
            self.mmus.append(mmu)
            core_cfg = CoreConfig(
                core_id=i, name=f"core{i}",
                energy_per_instr_pj=config.energy_per_instr_pj,
                energy_per_mem_pj=config.energy_per_mem_pj)
            if config.interpreter == "reference":
                from repro.cpu.reference import (
                    ReferenceCore,
                    ReferenceSpeculativeCore,
                )
                spec_cls, plain_cls = ReferenceSpeculativeCore, ReferenceCore
            elif config.interpreter == "fast":
                spec_cls, plain_cls = SpeculativeCore, Core
            else:
                raise ValueError(
                    f"unknown interpreter {config.interpreter!r}")
            if config.speculative:
                core = spec_cls(core_cfg, self.bus, self.hierarchy,
                                mmu, spec=config.spec)
            else:
                core = plain_cls(core_cfg, self.bus, self.hierarchy, mmu)
            self._wire_dvfs_csrs(core)
            self.cores.append(core)

        self.dvfs.add_domain(VoltageDomain(
            name="cluster0",
            point=OperatingPoint(config.freq_mhz, 900.0),
            hardware_limit_mhz=config.dvfs_hardware_limit_mhz,
            cores=[core.config.name for core in self.cores]))

    # -- helpers -----------------------------------------------------------

    def _wire_dvfs_csrs(self, core: Core) -> None:
        def write_freq(c: Core, value: int) -> None:
            domain = self.dvfs.domain_of_core(c.config.name)
            if domain is None:
                return
            self.dvfs.set_point(
                domain.name,
                OperatingPoint(float(value), domain.point.voltage_mv),
                from_secure_world=c.world.is_secure)

        def write_volt(c: Core, value: int) -> None:
            domain = self.dvfs.domain_of_core(c.config.name)
            if domain is None:
                return
            self.dvfs.set_point(
                domain.name,
                OperatingPoint(domain.point.freq_mhz, float(value)),
                from_secure_world=c.world.is_secure)

        core.csr_write_hooks[CSR_DVFS_FREQ] = write_freq
        core.csr_write_hooks[CSR_DVFS_VOLT] = write_volt

    def add_dma_engine(self, name: str = "dma0",
                       secure: bool = False) -> DMAEngine:
        """Attach a DMA-capable peripheral to the bus."""
        engine = DMAEngine(self.bus, name=name, secure=secure)
        self.dma_engines[name] = engine
        return engine

    def make_page_table(self, asid: int = 0) -> PageTable:
        """Allocate a fresh address space rooted in reserved DRAM."""
        return PageTable(self.memory, self.pt_allocator, asid=asid)

    def set_world(self, core_id: int, world: World) -> None:
        """Monitor-level world switch for one core (TrustZone model)."""
        core = self.cores[core_id]
        core.world = world
        self.world_state.set_world(core.config.name, world)
        if world.is_secure:
            self.dvfs.secure_active_cores.add(core.config.name)
        else:
            self.dvfs.secure_active_cores.discard(core.config.name)

    # -- aggregate accounting (Figure 1 bottom rows) ---------------------------

    @property
    def total_cycles(self) -> int:
        return sum(core.cycles for core in self.cores)

    @property
    def total_energy_pj(self) -> float:
        return sum(core.energy_pj for core in self.cores)

    def wall_time_us(self) -> float:
        """Elapsed time of the busiest core at the current clock."""
        domain = self.dvfs.domains()[0]
        busiest = max((core.cycles for core in self.cores), default=0)
        return busiest / domain.point.freq_mhz

    @property
    def dram_base(self) -> int:
        return self.regions.get("dram").base


def server_soc_config(num_cores: int = 4) -> SoCConfig:
    """Stationary high-performance platform (SGX/Sanctum host)."""
    return SoCConfig(
        name="server", platform=PlatformClass.SERVER_DESKTOP,
        num_cores=num_cores, speculative=True,
        spec=SpeculativeConfig(transient_window=128),
        hierarchy=HierarchyConfig(num_cores=num_cores, l1_sets=64, l1_ways=8,
                                  l2_sets=1024, l2_ways=16),
        has_mmu=True, shared_tlb=True, freq_mhz=3000.0,
        energy_per_instr_pj=40.0, energy_per_mem_pj=100.0,
        dvfs_software_controllable=True)


def mobile_soc_config(num_cores: int = 2) -> SoCConfig:
    """Mobile high-performance platform (TrustZone/Sanctuary host)."""
    return SoCConfig(
        name="mobile", platform=PlatformClass.MOBILE,
        num_cores=num_cores, speculative=True,
        spec=SpeculativeConfig(transient_window=32),
        hierarchy=HierarchyConfig(num_cores=num_cores, l1_sets=64, l1_ways=4,
                                  l2_sets=512, l2_ways=8),
        has_mmu=True, freq_mhz=2000.0,
        energy_per_instr_pj=8.0, energy_per_mem_pj=20.0,
        dvfs_software_controllable=True, dvfs_secure_world_gated=False)


def embedded_soc_config() -> SoCConfig:
    """Low-energy embedded platform (SMART/TrustLite host).

    In-order, MMU-less, near-cacheless: microarchitectural attacks find no
    purchase here, but neither do MMU-based isolation architectures — the
    design tension Section 3.3 describes.
    """
    return SoCConfig(
        name="embedded", platform=PlatformClass.EMBEDDED,
        num_cores=1, speculative=False,
        hierarchy=HierarchyConfig(num_cores=1, l1_sets=4, l1_ways=1,
                                  l2_sets=8, l2_ways=1,
                                  l1_latency=1, l2_latency=2,
                                  dram_latency=10),
        has_mmu=False, dram_size=1 << 24, freq_mhz=50.0,
        energy_per_instr_pj=1.0, energy_per_mem_pj=2.0,
        dvfs_software_controllable=False)


def make_server_soc(num_cores: int = 4) -> SoC:
    """A fresh SoC of :func:`server_soc_config`."""
    return SoC(server_soc_config(num_cores))


def make_mobile_soc(num_cores: int = 2) -> SoC:
    """A fresh SoC of :func:`mobile_soc_config`."""
    return SoC(mobile_soc_config(num_cores))


def make_embedded_soc() -> SoC:
    """A fresh SoC of :func:`embedded_soc_config`."""
    return SoC(embedded_soc_config())


#: Standard factory per platform class.  Worker processes rebuild a
#: platform's SoC from this registry, so entries must stay module-level
#: functions (resolvable by reference in any interpreter).
SOC_FACTORIES = {
    PlatformClass.SERVER_DESKTOP: make_server_soc,
    PlatformClass.MOBILE: make_mobile_soc,
    PlatformClass.EMBEDDED: make_embedded_soc,
}


def soc_factory_for(platform: PlatformClass):
    """The registered SoC factory for ``platform``."""
    try:
        return SOC_FACTORIES[platform]
    except KeyError:
        raise KeyError(f"no SoC factory registered for {platform!r}") \
            from None
