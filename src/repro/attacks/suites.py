"""Per-adversary attack suites as pickling-safe module functions.

These used to be methods on ``EvaluationMatrix``; they live here so a
``ProcessPoolExecutor`` worker can run any ``(platform, category)`` cell
by reference — a suite is a pure function of ``(arch, rng, knobs)`` with
no instance state behind it.  Each cell passes its *own* independently
seeded RNG (see :mod:`repro.runner.seeding`), so no suite can perturb
another's stream.

Every suite takes the runner's one lane switch, ``reference`` (default
``False``): the fast lane routes Flush+Reload, Kocher timing and the
power capture through their batched kernels, the reference lane runs
the scalar oracles.  It is an execution strategy, not a measurement
input: results, RNG streams and SoC end state are bit-identical on
either lane, and configurations the kernels do not model fall back to
the scalar path on their own.
"""

from __future__ import annotations

import repro.obs as obs
from repro.arch.null import NullArchitecture
from repro.attacks.base import AttackCategory, AttackResult, AttackerProcess
from repro.attacks.cache_sca import (
    FlushReloadAttack,
    SharedAESService,
    _CacheAttackConfig,
)
from repro.attacks.dpa import cpa_recover_key, key_recovery_rate
from repro.attacks.fault_attacks import BellcoreRSAAttack
from repro.attacks.knobs import FIGURE1_CATEGORIES, PRIOR_ATTRS, MatrixKnobs
from repro.attacks.meltdown import MeltdownAttack
from repro.attacks.software import (
    CodeInjectionAttack,
    DMAAttack,
    KernelMemoryProbeAttack,
)
from repro.attacks.spectre import SpectreV1Attack
from repro.attacks.timing import KocherTimingAttack
from repro.crypto.aes import AES128
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA, generate_rsa_key
from repro.power.instrument import capture_aes_traces
from repro.power.leakage import HammingWeightModel

#: The knob and row-layout names are defined in the leaf
#: :mod:`repro.attacks.knobs` (importable without loading any suite)
#: and re-exported here.
__all__ = [
    "FIGURE1_CATEGORIES",
    "MatrixKnobs",
    "PRIOR_ATTRS",
    "SUITES",
    "local_suite",
    "microarch_suite",
    "physical_suite",
    "remote_suite",
]


def remote_suite(arch: NullArchitecture, rng: XorShiftRNG,
                 knobs: MatrixKnobs,
                 reference: bool = False) -> list[AttackResult]:
    with obs.span("attack:code-injection", cat="attack"):
        return [CodeInjectionAttack(arch).run()]


def local_suite(arch: NullArchitecture, rng: XorShiftRNG,
                knobs: MatrixKnobs,
                reference: bool = False) -> list[AttackResult]:
    dram = arch.soc.regions.get("dram")
    secret_paddr = dram.base + dram.size // 2 - 0x8000
    secret = rng.bytes(8)
    arch.soc.memory.write_bytes(secret_paddr, secret)
    with obs.span("attack:kernel-memory-probe", cat="attack"):
        probe = KernelMemoryProbeAttack(arch, secret_paddr=secret_paddr,
                                        secret_value=secret).run()
    with obs.span("attack:dma", cat="attack"):
        dma = DMAAttack(arch, secret_paddr, expected=secret).run()
    return [probe, dma]


def microarch_suite(arch: NullArchitecture, rng: XorShiftRNG,
                    knobs: MatrixKnobs,
                    reference: bool = False) -> list[AttackResult]:
    """The fast lane runs Flush+Reload on the batched attack kernels
    (:mod:`repro.attacks.batch`)."""
    soc = arch.soc
    secret = bytes(0x41 + rng.next_below(26)
                   for _ in range(knobs.secret_len))
    with obs.span("attack:spectre-v1", cat="attack"):
        results = [SpectreV1Attack(soc, secret, rng=rng).run()]
    with obs.span("attack:meltdown", cat="attack"):
        results.append(MeltdownAttack(soc, secret).run())
    service = SharedAESService(soc, rng.bytes(16), core_id=0)
    attacker_core = min(1, len(soc.cores) - 1)
    attacker = AttackerProcess(arch, core_id=attacker_core)
    config = _CacheAttackConfig(
        samples_per_value=knobs.fr_samples,
        plaintext_values=knobs.fr_values,
        target_bytes=(0, 5))
    with obs.span("attack:flush-reload", cat="attack",
                  samples=knobs.fr_samples, values=knobs.fr_values):
        results.append(FlushReloadAttack(service, attacker, rng,
                                         config, batch=not reference).run())
    return results


def physical_suite(arch: NullArchitecture, rng: XorShiftRNG,
                   knobs: MatrixKnobs,
                   reference: bool = False) -> list[AttackResult]:
    """The fast lane captures the power traces and runs Kocher timing
    on their batched kernels."""
    # Power: CPA on an unprotected AES running on the device.  Batched
    # acquisition is bit-identical to the scalar instrument
    # (repro.power.diff proves it), so the payload digest is the same on
    # either lane.
    aes_key = rng.bytes(16)
    traces = capture_aes_traces(
        lambda leak: AES128(aes_key, leak_hook=leak), knobs.traces,
        HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(rng.next_u64())),
        rng=XorShiftRNG(rng.next_u64()), batch=not reference)
    with obs.span("attack:cpa-power", cat="attack", traces=knobs.traces):
        rate = key_recovery_rate(cpa_recover_key(traces), aes_key)
    cpa_result = AttackResult(
        name="cpa-power", category=AttackCategory.PHYSICAL,
        success=rate >= 0.9, score=rate,
        details={"traces": knobs.traces})
    # Faults: Bellcore on an unprotected CRT signer.
    rsa_key = generate_rsa_key(knobs.rsa_bits,
                               XorShiftRNG(rng.next_u64()))
    with obs.span("attack:bellcore-rsa", cat="attack",
                  rsa_bits=knobs.rsa_bits):
        bellcore = BellcoreRSAAttack(RSA(rsa_key),
                                     rng=XorShiftRNG(rng.next_u64())).run()
    # Timing: Kocher against square-and-multiply.
    with obs.span("attack:kocher-timing", cat="attack",
                  samples=knobs.timing_samples):
        timing = KocherTimingAttack(
            RSA(rsa_key), samples=knobs.timing_samples,
            max_bits=knobs.timing_bits,
            rng=XorShiftRNG(rng.next_u64()),
            batch=not reference).run()
    return [cpa_result, bellcore, timing]


#: Suite entry point per adversary category, keyed in Figure 1 row
#: order (:data:`FIGURE1_CATEGORIES`).
SUITES = {
    AttackCategory.REMOTE: remote_suite,
    AttackCategory.LOCAL: local_suite,
    AttackCategory.MICROARCHITECTURAL: microarch_suite,
    AttackCategory.PHYSICAL: physical_suite,
}

