"""Lockstep differential harness: batched attack kernels vs scalar oracles.

The contract of :mod:`repro.attacks.batch` is **bit-identity**, the same
bar the CPU fast path (:mod:`repro.cpu.diff`), the power instrument
(:mod:`repro.power.diff`) and the sweep's lane replay are held to: for any
attack configuration the kernel accepts, the batched and scalar paths
must produce

* the same :class:`~repro.attacks.base.AttackResult` (name, category,
  success, score, leaked material, details — recovered keys included);
* the same end state on the attack's RNG stream (the batched path must
  *consume* randomness exactly like the scalar loop);
* the same SoC end state: every observable
  :func:`repro.cpu.diff.soc_observables` names (cores, cache tags, lines,
  LRU stamps and stats, TLBs, MMU contexts, bus and MEE counters,
  world/DVFS state, memory) plus each MMU's identity-translation memo,
  SGX's active enclaves, and the victim's encryption counter.

Scenarios run on every victim host the kernels model (null, SGX,
TrustZone, Sanctuary) and on Sanctum, which they decline.

:func:`batched_run` and :func:`scalar_run` each build a fresh
environment from one immutable scenario and return an
:class:`AttackOutcome`; ``repro.lockstep.run_pair(scenario, batched_run,
scalar_run)`` runs both and raises a
:class:`~repro.lockstep.Divergence` naming the first mismatching
observable (e.g. ``soc.llc.lru[3]``).  ``tests/test_attack_differential.py``
drives this with hypothesis across platforms, victims and configurations.
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
from repro.cpu.diff import soc_observables
from repro.cpu.soc import make_embedded_soc, make_mobile_soc, make_server_soc
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA, generate_rsa_key
from repro.lockstep import Divergence


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


def soc_state(soc, arch=None) -> dict:
    """:func:`~repro.cpu.diff.soc_observables` plus the attack lane's two
    extras: each MMU's identity-translation memo (the kernels gate on its
    size) and ``arch``'s active enclaves, when given."""
    if soc is None:
        return {}
    state = soc_observables(soc)
    state["identity_memo"] = [dict(mmu._identity_cache) for mmu in soc.mmus]
    state["active_enclave"] = dict(getattr(arch, "active_enclave", {}))
    return state


@dataclass(frozen=True)
class AttackOutcome:
    """One path's result plus every compared side observable."""

    result: object
    rng_state: int
    encryptions: int
    soc: dict


def scalar_run(scenario) -> AttackOutcome:
    """Run the scenario on the retained scalar oracle."""
    attack, rng, soc = scenario.build()
    result = attack._run_scalar()
    return _outcome(attack, result, rng, soc)


def batched_run(scenario) -> AttackOutcome:
    """Run the scenario through the batched kernel; a declined kernel is
    a :class:`~repro.lockstep.Divergence` (use
    :func:`batch.try_run_batched` directly to test fallback behaviour)."""
    attack, rng, soc = scenario.build()
    result = batch.try_run_batched(attack)
    if result is None:
        raise Divergence(f"batched kernel declined scenario {scenario!r}")
    return _outcome(attack, result, rng, soc)


def _outcome(attack, result, rng, soc) -> AttackOutcome:
    victim = getattr(attack, "victim", None)
    return AttackOutcome(result, rng._state,
                         getattr(victim, "encryptions", 0),
                         soc_state(soc, getattr(victim, "arch", None)))
