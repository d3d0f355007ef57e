"""Platform profiles: the three Figure 1 columns.

A profile names (a) a platform class, whose microarchitecture the
:func:`repro.cpu.soc.soc_factory_for` registry builds, (b) *exposure
priors* — how plausible each adversary's physical preconditions are on
that platform class, and (c) a measured performance/energy
characterisation from a reference workload.

The exposure priors are the only non-measured model inputs in Figure 1's
regeneration, and they encode exactly the paper's stated reasoning:
"classical physical attacks ... are not considered a main threat in
servers and desktop computers, while they are prominent on IoT devices
that allow potential adversaries in close proximity", and
microarchitectural attacks presume co-resident attacker software, which
is the normal condition on multi-tenant servers and the exception on
single-purpose embedded nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common import PlatformClass

if TYPE_CHECKING:
    from repro.cpu.soc import SoC


@dataclass(frozen=True)
class PlatformProfile:
    """One platform class with its priors."""

    platform: PlatformClass
    description: str
    #: Probability that a physical adversary can reach the device.
    physical_access_prior: float
    #: Probability that attacker software co-resides with victims.
    co_residency_prior: float

    def __post_init__(self) -> None:
        for name in ("physical_access_prior", "co_residency_prior"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")


STANDARD_PLATFORMS: tuple[PlatformProfile, ...] = (
    PlatformProfile(
        platform=PlatformClass.SERVER_DESKTOP,
        description="stationary high-performance (SGX/Sanctum hosts)",
        physical_access_prior=0.1,  # locked data centres / homes
        co_residency_prior=1.0),    # multi-tenancy is the business model
    PlatformProfile(
        platform=PlatformClass.MOBILE,
        description="mobile high-performance (TrustZone/Sanctuary hosts)",
        physical_access_prior=0.6,  # devices are lost, stolen, borrowed
        co_residency_prior=0.7),    # third-party apps, but sandboxed
    PlatformProfile(
        platform=PlatformClass.EMBEDDED,
        description="low-energy embedded/IoT (SMART/TrustLite hosts)",
        physical_access_prior=0.95,  # deployed in the field
        co_residency_prior=0.2),     # mostly single-purpose firmware
)


def profile_for(platform: PlatformClass) -> PlatformProfile:
    """Standard profile for a platform class."""
    for profile in STANDARD_PLATFORMS:
        if profile.platform is platform:
            return profile
    raise KeyError(platform)


@dataclass
class WorkloadResult:
    """Measured characterisation of one reference-workload run."""

    cycles: int
    instructions: int
    wall_time_us: float
    energy_pj: float

    @property
    def throughput_ops_per_s(self) -> float:
        if self.wall_time_us <= 0:
            return 0.0
        return 1e6 / self.wall_time_us

    @property
    def energy_per_op_pj(self) -> float:
        return self.energy_pj


def reference_workload(soc: SoC, blocks: int = 8) -> WorkloadResult:
    """A fixed crypto-service workload, identical across platforms.

    Encrypts ``blocks`` AES blocks with every table lookup going through
    the SoC's memory hierarchy from core 0 — cache behaviour, clock speed
    and per-operation energy all shape the outcome, which is what the
    performance/energy rows of Figure 1 summarise.
    """
    # Imported here: only the workload cell runs the cipher, so a warm
    # render that reads every cell from the cache loads no crypto.
    from repro.crypto.aes import TTableAES

    core = soc.cores[0]
    dram = soc.regions.get("dram")
    table_base = dram.base + 0x4000

    def on_lookup(table: int, index: int) -> None:
        paddr = (table_base + table * 1024 + index * 4) & ~7
        access = soc.hierarchy.access(0, paddr)
        core.cycles += access.latency
        core.energy_pj += core.config.energy_per_mem_pj

    cipher = TTableAES(bytes(range(16)), on_lookup=on_lookup)
    start_cycles = core.cycles
    start_energy = core.energy_pj
    block = bytes(16)
    for _ in range(blocks):
        block = cipher.encrypt_block(block)
        # Per-block instruction stream cost (ALU work around the loads).
        core.cycles += 600
        core.instret += 600
        core.energy_pj += 600 * core.config.energy_per_instr_pj
    cycles = core.cycles - start_cycles
    freq = soc.dvfs.domains()[0].point.freq_mhz
    return WorkloadResult(
        cycles=cycles,
        instructions=blocks * 600,
        wall_time_us=cycles / freq,
        energy_pj=core.energy_pj - start_energy)
