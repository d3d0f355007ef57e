"""Per-adversary attack suites as pickling-safe module functions.

These used to be methods on ``EvaluationMatrix``; they live here so a
``ProcessPoolExecutor`` worker can run any ``(platform, category)`` cell
by reference — a suite is a pure function of ``(arch, rng, knobs)`` with
no instance state behind it.  Each cell passes its *own* independently
seeded RNG (see :mod:`repro.runner.seeding`), so no suite can perturb
another's stream.
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
from repro.common import accepts_keyword
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
    "run_suite",
]


def remote_suite(arch: NullArchitecture, rng: XorShiftRNG,
                 knobs: MatrixKnobs) -> list[AttackResult]:
    with obs.span("attack:code-injection", cat="attack"):
        return [CodeInjectionAttack(arch).run()]


def local_suite(arch: NullArchitecture, rng: XorShiftRNG,
                knobs: MatrixKnobs) -> list[AttackResult]:
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
                    batch: bool = True) -> list[AttackResult]:
    """``batch`` (the default) routes the Flush+Reload cell through the
    batched attack kernels (:mod:`repro.attacks.batch`) — an execution
    strategy, not a measurement input: results, RNG streams and SoC end
    state are bit-identical to the scalar path, with automatic scalar
    fallback for configurations the kernels don't cover.
    ``batch=False`` runs the scalar oracle."""
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
                                         config, batch=batch).run())
    return results


def physical_suite(arch: NullArchitecture, rng: XorShiftRNG,
                   knobs: MatrixKnobs,
                   batch: bool = True) -> list[AttackResult]:
    """``batch`` picks the Kocher timing lane, as in
    :func:`microarch_suite`."""
    # Power: CPA on an unprotected AES running on the device.  Acquisition
    # is batched (bit-identical to the scalar reference; repro.power.diff
    # proves it), so the cell's payload digest is unchanged.
    aes_key = rng.bytes(16)
    traces = capture_aes_traces(
        lambda leak: AES128(aes_key, leak_hook=leak), knobs.traces,
        HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(rng.next_u64())),
        rng=XorShiftRNG(rng.next_u64()), batch=True)
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
            rng=XorShiftRNG(rng.next_u64()), batch=batch).run()
    return [cpa_result, bellcore, timing]


#: Suite entry point per adversary category, keyed in Figure 1 row
#: order (:data:`FIGURE1_CATEGORIES`).
SUITES = {
    AttackCategory.REMOTE: remote_suite,
    AttackCategory.LOCAL: local_suite,
    AttackCategory.MICROARCHITECTURAL: microarch_suite,
    AttackCategory.PHYSICAL: physical_suite,
}


def run_suite(suite, arch: NullArchitecture, rng: XorShiftRNG,
              knobs: MatrixKnobs,
              reference: bool = False) -> list[AttackResult]:
    """Run one suite on the fast lane, or on its scalar oracle lane when
    ``reference`` is set.  The ``batch=False`` keyword is passed only
    for the reference lane, so suites without the knob (and three-arg
    stand-ins) keep the plain ``suite(arch, rng, knobs)`` call shape."""
    if reference and accepts_keyword(suite, "batch"):
        return suite(arch, rng, knobs, batch=False)
    return suite(arch, rng, knobs)

