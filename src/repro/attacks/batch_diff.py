"""Lockstep differential harness: batched attack kernels vs scalar oracles.

The contract of :mod:`repro.attacks.batch` is **bit-identity**, the same
bar the CPU fast path (:mod:`repro.cpu.diff`), the power instrument
(:mod:`repro.power.diff`) and the ensemble engine are held to: for any
attack configuration the kernel accepts, the batched and scalar paths
must produce

* the same :class:`~repro.attacks.base.AttackResult` (name, category,
  success, score, leaked material, details — recovered keys included);
* the same end state on the attack's RNG stream (the batched path must
  *consume* randomness exactly like the scalar loop);
* the same SoC end state: cache lines, tags, LRU stamps and per-level
  stats at every level, bus transaction and denial counts, per-core
  cycle/energy/domain/privilege/world state, the speculative cores' L1
  views, the MMUs (identity caches, context, walk counts) and TLBs
  (entries, stamps, hit/miss counts), the MEE counters, the TrustZone
  world state and DVFS secure set, SGX's active enclaves, and the
  victim's encryption counter.

Scenarios run on every victim host the kernels model (null, SGX,
TrustZone, Sanctuary) and on Sanctum, which they decline.

:func:`run_pair` builds two identically-seeded environments from one
immutable scenario, runs the scalar oracle on one and the batched kernel
on the other, and raises :class:`AttackDivergence` naming the first
mismatching observable.  ``tests/test_attack_differential.py`` drives
this with hypothesis across platforms, victims and configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import SGX, Sanctuary, Sanctum, TrustZone
from repro.arch.null import NullArchitecture
from repro.attacks import batch
from repro.attacks.base import AttackerProcess
from repro.attacks.cache_sca import (
    EvictTimeAttack,
    FlushReloadAttack,
    PrimeProbeAttack,
    SharedAESService,
    _CacheAttackConfig,
)
from repro.attacks.timing import KocherTimingAttack
from repro.common import PrivilegeLevel
from repro.cpu.soc import make_embedded_soc, make_mobile_soc, make_server_soc
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA, generate_rsa_key


class AttackDivergence(AssertionError):
    """The batched and scalar attacks disagreed on an observable."""


_SOC_FACTORIES = {
    "server-desktop": make_server_soc,
    "mobile": make_mobile_soc,
    "embedded": make_embedded_soc,
}

_HOSTS = {
    "null": NullArchitecture,
    "sgx": SGX,
    "trustzone": TrustZone,
    "sanctuary": Sanctuary,
    "sanctum": Sanctum,
}

_CACHE_ATTACKS = {
    "prime+probe": PrimeProbeAttack,
    "flush+reload": FlushReloadAttack,
    "evict+time": EvictTimeAttack,
}


@dataclass(frozen=True)
class CacheScenario:
    """One cache-SCA configuration, replayable on either path."""

    attack: str = "flush+reload"  # key into _CACHE_ATTACKS
    platform: str = "server-desktop"  # key into _SOC_FACTORIES
    host: str = "null"  # key into _HOSTS: the architecture under test
    enclave_victim: bool = True  # False: SharedAESService
    seed: int = 0x5CA
    samples_per_value: int = 4
    plaintext_values: int = 4
    target_bytes: tuple[int, ...] = (0, 5)
    victim_core: int = 0
    cold_tlb: bool = False  # flush every TLB before the attack runs
    #: The victim core starts with a previous tenant's leftovers: a
    #: stray domain label, user privilege and a full L1.
    dirty_core: bool = False

    def build(self):
        """Fresh (attack, rng, soc) triple; deterministic in ``self``."""
        soc = _SOC_FACTORIES[self.platform]()
        arch = _HOSTS[self.host](soc)
        rng = XorShiftRNG(self.seed)
        key = rng.bytes(16)
        if self.enclave_victim:
            victim = arch.deploy_aes_victim(key, core_id=self.victim_core)
        else:
            victim = SharedAESService(soc, key, core_id=self.victim_core)
        attacker = AttackerProcess(
            arch, core_id=min(1, len(soc.cores) - 1))
        config = _CacheAttackConfig(
            samples_per_value=self.samples_per_value,
            plaintext_values=self.plaintext_values,
            target_bytes=self.target_bytes)
        attack = _CACHE_ATTACKS[self.attack](victim, attacker, rng, config)
        if self.cold_tlb:
            for mmu in soc.mmus:
                mmu.flush_tlb()
        if self.dirty_core:
            core = soc.cores[self.victim_core]
            core.domain, core.privilege = "tenant", PrivilegeLevel.USER
            l1 = soc.hierarchy.l1s[self.victim_core]
            for line in range(l1.num_sets * l1.ways):
                soc.hierarchy.access(self.victim_core,
                                     soc.dram_base + 0x20_0000 + line * 64,
                                     domain="tenant")
        return attack, rng, soc


@dataclass(frozen=True)
class TimingScenario:
    """One Kocher-timing configuration, replayable on either path."""

    rsa_bits: int = 48
    samples: int = 64
    max_bits: int = 6
    noise_std: float = 0.0
    constant_time: bool = False
    key_seed: int = 0xCE7
    seed: int = 0x70C4

    def build(self):
        key = generate_rsa_key(self.rsa_bits, XorShiftRNG(self.key_seed))
        rng = XorShiftRNG(self.seed)
        attack = KocherTimingAttack(
            RSA(key, constant_time=self.constant_time),
            samples=self.samples, max_bits=self.max_bits,
            noise_std=self.noise_std, rng=rng)
        return attack, rng, None


def soc_state(soc, arch=None) -> tuple:
    """Every SoC observable a batched attack must leave bit-identical
    (plus ``arch``'s enclave bookkeeping, when given)."""
    if soc is None:
        return ()
    levels = []
    for cache in (*soc.hierarchy.l1s, soc.hierarchy.l2):
        stats = cache.stats
        levels.append((
            [list(ts) for ts in cache._tags],
            [[None if ln is None
              else (ln.tag, ln.addr, ln.domain, ln.dirty) for ln in ways]
             for ways in cache._sets],
            [(p._stamp, tuple(p._last_use)) for p in cache._policies],
            (stats.hits, stats.misses, stats.evictions, stats.flushes)))
    cores = [(core.cycles, core.energy_pj, core.domain, core.instret,
              core.privilege, core.world,
              dict(getattr(core, "_l1_view", {}) or {}))
             for core in soc.cores]
    mmus = [(dict(mmu._identity_cache), mmu.root, mmu.asid, mmu.walk_count)
            for mmu in soc.mmus]
    tlbs = [None if tlb is None else (
        [[None if e is None else (e.asid, e.vpn, e.paddr, e.flags, e.stamp)
          for e in entries] for entries in tlb._sets],
        tlb._stamp, tlb.hits, tlb.misses) for tlb in soc.tlbs]
    bus = soc.bus
    mees = [(t.encrypted_writes, t.decrypted_reads, t.integrity_failures)
            for _, t in bus._transforms]
    worlds = (dict(soc.world_state._worlds),
              sorted(soc.dvfs.secure_active_cores))
    enclaves = dict(getattr(arch, "active_enclave", {}))
    return (levels, bus.transaction_count, bus.denied_count, cores, mmus,
            tlbs, mees, worlds, enclaves)


@dataclass(frozen=True)
class AttackOutcome:
    """One path's result plus every compared side observable."""

    result: object
    rng_state: int
    encryptions: int
    soc: tuple


def scalar_run(scenario) -> AttackOutcome:
    """Run the scenario on the retained scalar oracle."""
    attack, rng, soc = scenario.build()
    result = attack._run_scalar()
    return _outcome(attack, result, rng, soc)


def batched_run(scenario) -> AttackOutcome:
    """Run the scenario through the batched kernel; a declined kernel is
    a :class:`AttackDivergence` (use :func:`batch.try_run_batched`
    directly to test fallback behaviour)."""
    attack, rng, soc = scenario.build()
    result = batch.try_run_batched(attack)
    if result is None:
        raise AttackDivergence(
            f"batched kernel declined scenario {scenario!r}")
    return _outcome(attack, result, rng, soc)


def _outcome(attack, result, rng, soc) -> AttackOutcome:
    victim = getattr(attack, "victim", None)
    return AttackOutcome(result, rng._state,
                         getattr(victim, "encryptions", 0),
                         soc_state(soc, getattr(victim, "arch", None)))


def _compare(field: str, batched, scalar) -> None:
    if batched != scalar:
        raise AttackDivergence(
            f"{field} diverged\n  batched: {batched!r}\n"
            f"  scalar:  {scalar!r}")


def assert_identical(batched: AttackOutcome, scalar: AttackOutcome) -> None:
    """Full observable equality between the two paths."""
    br, sr = batched.result, scalar.result
    _compare("result.name", br.name, sr.name)
    _compare("result.category", br.category, sr.category)
    _compare("result.success", br.success, sr.success)
    _compare("result.score", br.score, sr.score)
    _compare("result.leaked", br.leaked, sr.leaked)
    _compare("result.details", br.details, sr.details)
    _compare("rng end state", batched.rng_state, scalar.rng_state)
    _compare("victim encryptions", batched.encryptions, scalar.encryptions)
    _compare("soc end state", batched.soc, scalar.soc)


def run_pair(scenario) -> tuple[AttackOutcome, AttackOutcome]:
    """Run both paths and assert full bit-identity; return both sides."""
    batched = batched_run(scenario)
    scalar = scalar_run(scenario)
    assert_identical(batched, scalar)
    return batched, scalar
