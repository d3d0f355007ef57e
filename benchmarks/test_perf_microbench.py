"""Simulator micro-benchmarks: the hot paths downstream users will feel.

Not a paper artefact — these track the cost of the simulation primitives
(cache access, full-path core loads, AES variants, attack building
blocks) so performance regressions in the substrate are visible in CI.
"""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cpu import make_embedded_soc, make_server_soc
from repro.crypto.aes import AES128, MaskedAES, TTableAES
from repro.crypto.rng import XorShiftRNG
from repro.crypto.sha256 import sha256
from repro.isa import assemble

#: Microbenchmarks time the substrate, not the paper; they only run when
#: explicitly requested (``make bench`` / ``pytest --run-bench``).
pytestmark = pytest.mark.bench

KEY = bytes(range(16))
BLOCK = bytes(16)


def test_perf_cache_hierarchy_access(benchmark):
    hierarchy = CacheHierarchy(HierarchyConfig(num_cores=2))
    addrs = [0x8000_0000 + i * 64 for i in range(512)]

    def run():
        for addr in addrs:
            hierarchy.access(0, addr)

    benchmark(run)


def test_perf_core_load_loop(benchmark):
    soc = make_embedded_soc()
    core = soc.cores[0]
    program = assemble("""
    entry:
        li r1, 0x80008000
        li r2, 0
        li r3, 64
    loop:
        load r4, 0(r1)
        addi r1, r1, 64
        addi r2, r2, 1
        blt r2, r3, loop
        halt
    """, base=0x8000_1000)

    def run():
        core.load_program(program, entry="entry")
        core.run()

    benchmark(run)


def test_perf_speculative_core_with_mispredicts(benchmark):
    soc = make_server_soc()
    core = soc.cores[0]
    # A data-dependent branch pattern: plenty of mispredictions.
    program = assemble("""
    entry:
        li r1, 0
        li r2, 100
        li r5, 3
    loop:
        addi r1, r1, 1
        mul r4, r1, r1
        and r4, r4, r5
        beq r4, r0, skip
        nop
    skip:
        blt r1, r2, loop
        halt
    """, base=0x8000_1000)

    def run():
        core.load_program(program, entry="entry")
        core.run()

    benchmark(run)


@pytest.mark.parametrize("cipher_name,factory", [
    ("reference", lambda: AES128(KEY)),
    ("ttable", lambda: TTableAES(KEY)),
    ("masked", lambda: MaskedAES(KEY, XorShiftRNG(1))),
])
def test_perf_aes_block(benchmark, cipher_name, factory):
    cipher = factory()
    benchmark(cipher.encrypt_block, BLOCK)


@pytest.mark.parametrize("mode", ["scalar", "batched"])
def test_perf_trace_acquisition(benchmark, mode):
    """200-trace noisy Hamming-weight acquisition of round-1 AES leakage
    — the dominant cost of every physical-suite cell.  The two modes are
    bit-identical (tests/test_power_differential.py proves it); the gap
    between them is the vectorization win the batched kernels exist for."""
    from repro.power.instrument import capture_aes_traces
    from repro.power.leakage import HammingWeightModel

    def run():
        return capture_aes_traces(
            lambda leak: AES128(KEY, leak_hook=leak), 200,
            HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(3)),
            rng=XorShiftRNG(4), batch=(mode == "batched"))

    traces = benchmark(run)
    assert len(traces) == 200


@pytest.mark.parametrize("mode", ["scalar", "batched"])
def test_perf_cache_sca(benchmark, mode):
    """Evict+Time against an enclave-protected AES victim on the server
    SoC — the heaviest cache-probe loop in the attack suite (every
    sample is a full enclave encryption behind per-line evictions).
    The two modes are bit-identical (tests/test_attack_differential.py
    proves it); the gap is the batched attack kernels' win, and
    ``check_regression.SPEEDUP_FLOORS`` gates the in-run ratio at
    3.0x (measured comfortably above it)."""
    from repro.arch.null import NullArchitecture
    from repro.attacks.base import AttackerProcess
    from repro.attacks.cache_sca import EvictTimeAttack, _CacheAttackConfig

    def run():
        soc = make_server_soc()
        arch = NullArchitecture(soc)
        arch.install()
        rng = XorShiftRNG(0x5CA)
        victim = arch.deploy_aes_victim(rng.bytes(16), core_id=0)
        attacker = AttackerProcess(arch, core_id=1)
        config = _CacheAttackConfig(samples_per_value=6,
                                    plaintext_values=8,
                                    target_bytes=(0,))
        return EvictTimeAttack(victim, attacker, rng, config,
                               batch=(mode == "batched")).run()

    result = benchmark(run)
    assert result.details["recovered"].keys() == {0}


@pytest.mark.parametrize("mode", ["scalar", "batched"])
def test_perf_prime_probe(benchmark, mode):
    """Prime+Probe on TAB-S41's quick SGX row (2 bytes, 8 values x 8
    samples; 4096 attacker set sweeps and 128 enclave encryptions
    through the paged MMU and the MEE).  The two modes are bit-identical
    (tests/test_attack_differential.py proves it); the gap is the
    closed-form set sweeps and the TLB-hit replay of the batched
    kernel.  Each round attacks a freshly deployed enclave; only the
    attack is timed.  ``check_regression.SPEEDUP_FLOORS`` gates the
    in-run ratio; second-scale scalar rounds, so gated on ``min_s``."""
    from repro.arch.sgx import SGX
    from repro.attacks.base import AttackerProcess
    from repro.attacks.cache_sca import PrimeProbeAttack, _CacheAttackConfig

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    config = _CacheAttackConfig(samples_per_value=8, plaintext_values=8,
                                target_bytes=(0, 5))

    def deploy():
        arch = SGX(make_server_soc())
        victim = arch.deploy_aes_victim(key, core_id=0)
        attack = PrimeProbeAttack(victim, AttackerProcess(arch, core_id=1),
                                  XorShiftRNG(0x41), config,
                                  batch=(mode == "batched"))
        return (attack,), {}

    result = benchmark.pedantic(PrimeProbeAttack.run, setup=deploy,
                                rounds=3, iterations=1, warmup_rounds=1)
    assert result.success


@pytest.mark.parametrize("mode", ["scalar", "batched"])
def test_perf_kocher_timing(benchmark, mode):
    """Kocher timing key recovery at quick-knob scale (600 samples,
    8 bits against 64-bit RSA) — the physical suite's timing lane.
    Bit-identical across modes; the floor-gated ratio protects the
    batched big-int pipeline's speedup from silent decay."""
    from repro.attacks.timing import KocherTimingAttack
    from repro.crypto.rsa import RSA, generate_rsa_key

    key = generate_rsa_key(64, XorShiftRNG(0xCE7))

    def run():
        return KocherTimingAttack(
            RSA(key), samples=600, max_bits=8, rng=XorShiftRNG(0x70C4),
            batch=(mode == "batched")).run()

    result = benchmark(run)
    assert result.success


@pytest.mark.parametrize("mode", ["scalar", "block"])
def test_perf_gauss_block(benchmark, mode):
    """4800 Gaussian noise draws — one quick-sizing physical cell's
    measurement noise (300 traces x 16 samples).  ``block`` is the
    lane-parallel kernel, bit-identical to ``scalar`` per-call draws
    (tests/test_crypto_rsa.py proves it); ``check_regression``'s
    ``SPEEDUP_FLOORS`` gates the in-run ratio at 3.0x."""
    def run():
        rng = XorShiftRNG(3)
        if mode == "block":
            return rng.gauss_block(4800, 0.0, 1.0)
        return [rng.gauss(0.0, 1.0) for _ in range(4800)]

    assert len(benchmark(run)) == 4800


def test_perf_cpa_key_recovery_batched(benchmark):
    """End-to-end CPA: batched 300-trace acquisition plus full 16-byte
    key recovery — the whole attacker pipeline as the matrix runs it."""
    from repro.attacks.dpa import cpa_recover_key
    from repro.power.instrument import capture_aes_traces
    from repro.power.leakage import HammingWeightModel

    def run():
        traces = capture_aes_traces(
            lambda leak: AES128(KEY, leak_hook=leak), 300,
            HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(3)),
            rng=XorShiftRNG(4), batch=True)
        return cpa_recover_key(traces)

    assert benchmark(run) == KEY


def test_perf_sha256_1kib(benchmark):
    data = bytes(range(256)) * 4
    benchmark(sha256, data)


def test_perf_enclave_encrypt_full_path(benchmark):
    """One enclave AES encryption through MMU+MEE+bus+caches (SGX)."""
    from repro.arch import SGX
    sgx = SGX(make_server_soc())
    victim = sgx.deploy_aes_victim(KEY)
    benchmark(victim.encrypt, BLOCK)


def test_perf_runner_cell_remote_embedded(benchmark):
    """One full matrix cell through the runner's worker entry point:
    SoC build + suite run + payload serialisation."""
    from repro.attacks.suites import MatrixKnobs
    from repro.runner import CellSpec, execute_spec
    spec = CellSpec(seed=0x2019, platform="embedded", category="remote",
                    knobs=MatrixKnobs.quick().as_key())
    payload = benchmark(execute_spec, spec)
    benchmark.extra_info["cell_wall_time_s"] = \
        round(payload["cell_wall_time_s"], 5)


def test_perf_inactive_span_helper(benchmark):
    """The module-level span helper with no active tracer — the price
    every instrumented library call site pays on the unobserved fast
    path (one global read + a shared null context)."""
    import repro.obs as obs

    def run():
        for _ in range(1000):
            with obs.span("phase", cat="attack"):
                pass

    benchmark(run)


def test_observation_overhead_is_bounded():
    """Full in-cell telemetry (tracer active, metrics attached) must
    stay within 2x of the unobserved run of the same cell — and the
    unobserved path, which is what the committed BENCH baselines gate,
    carries only the no-op helpers."""
    import time as _time

    from repro.attacks.suites import MatrixKnobs
    from repro.runner import CellSpec, execute_spec

    spec = CellSpec(seed=0x2019, platform="embedded", category="local",
                    knobs=MatrixKnobs.quick().as_key())

    def best_of(fn, rounds: int = 7) -> float:
        times = []
        for _ in range(rounds):
            t0 = _time.perf_counter()
            fn()
            times.append(_time.perf_counter() - t0)
        return min(times)

    unobserved = best_of(lambda: execute_spec(spec))
    observed = best_of(lambda: execute_spec(spec, collect=True))
    assert observed <= max(unobserved * 2.0, unobserved + 0.005), (
        f"telemetry overhead too high: observed {observed * 1e3:.2f}ms "
        f"vs unobserved {unobserved * 1e3:.2f}ms")


@pytest.mark.parametrize("mode", ["scalar", "ensemble"])
def test_perf_quick_matrix(benchmark, mode):
    """The full 15-cell quick matrix through the runner: every
    (platform, category) attack cell plus the three workload cells.
    ``ensemble`` (a name kept so the committed baselines still match)
    is the default lane: the kernel sweep's lane replay and the batched
    attack kernels; ``scalar`` is ``ExperimentRunner(reference=True)``,
    the retained oracles.  The two modes produce bit-identical payloads
    (fingerprints are asserted below); the wall-time gap is the combined vectorization
    win, and ``check_regression.SPEEDUP_FLOORS`` gates the in-run ratio
    so the speedup cannot silently decay.

    ``benchmark.pedantic`` pins rounds: each measurement is a second-
    scale full matrix (noise self-averages within a round), so a handful
    of rounds bounds CI cost without ceding statistical footing.  The
    regression gate compares this bench on ``min_s`` for the same
    reason — see ``check_regression.MIN_GATED``.
    """
    from repro.attacks.suites import SUITES, MatrixKnobs
    from repro.common import PlatformClass
    from repro.runner import (
        WORKLOAD_CATEGORY,
        CellSpec,
        ExperimentRunner,
        payload_fingerprint,
    )

    knobs = MatrixKnobs.quick()
    categories = [c.value for c in SUITES] + [WORKLOAD_CATEGORY]
    specs = [CellSpec(seed=0x2019, platform=p.value, category=category,
                      knobs=knobs.as_key())
             for p in (PlatformClass.EMBEDDED, PlatformClass.MOBILE,
                       PlatformClass.SERVER_DESKTOP)
             for category in categories]
    runner = ExperimentRunner(reference=mode == "scalar")

    def run():
        return runner.run(specs)

    payloads = benchmark.pedantic(run, rounds=2, iterations=1,
                                  warmup_rounds=1)
    assert len(payloads) == 15
    benchmark.extra_info["fingerprints"] = {
        f"{spec.platform}:{spec.category}": payload_fingerprint(
            payloads[spec])
        for spec in specs}


def test_perf_runner_cached_matrix(benchmark, tmp_path):
    """A fully warmed cache turns the quick matrix into pure lookups —
    this tracks the memoisation overhead (15 key hashes + JSON reads)."""
    from repro.core.matrix import EvaluationMatrix
    from repro.runner import ExperimentRunner, ResultCache
    cache = ResultCache(tmp_path)
    warm = ExperimentRunner(cache=cache)
    EvaluationMatrix(runner=warm).evaluate()
    assert warm.stats.cache_misses == 15

    runner = ExperimentRunner(cache=cache)

    def cached_run():
        return EvaluationMatrix(runner=runner).evaluate()

    cells = benchmark(cached_run)
    assert len(cells) == 12
    assert runner.stats.cache_hits == 15
    benchmark.extra_info["cache_hits"] = runner.stats.cache_hits
    benchmark.extra_info["hit_rate"] = runner.stats.hit_rate


@pytest.mark.parametrize("mode", ["direct", "service"])
def test_perf_service_overhead(benchmark, mode):
    """The quick matrix executed directly vs through the evaluation
    service (one in-process worker, cold cache each round) — the price
    of the directory protocol itself: job scan, per-cell ``O_EXCL``
    lease acquire/release, heartbeat bookkeeping, crash-safe cache
    publish, intactness re-checks.  Both lanes produce identical
    payloads; ``check_regression.OVERHEAD_CEILINGS`` gates the in-run
    ratio at 1.15x so the service can never quietly cost more than 15%
    over a direct run.  Matrix-scale rounds, so gated on ``min_s``
    (see ``check_regression.MIN_GATED``)."""
    import shutil
    import tempfile
    from pathlib import Path

    from repro.runner import ExperimentRunner, ResultCache, RetryPolicy
    from repro.service import JobQueue, JobSpec, ServiceWorker

    job = JobSpec.matrix(quick=True)
    specs = job.cells()
    scratch: list[Path] = []

    def setup():
        root = Path(tempfile.mkdtemp(prefix="repro-bench-service-"))
        scratch.append(root)
        return (root,), {}

    if mode == "direct":
        def run(root):
            return len(ExperimentRunner().run(specs))
    else:
        def run(root):
            queue = JobQueue(root / "queue")
            queue.submit(job)
            worker = ServiceWorker(
                queue, cache=ResultCache(root / "cells"),
                ttl_s=30.0, poll_s=0.01,
                retry=RetryPolicy(max_retries=2, base_delay_s=0.01,
                                  max_delay_s=0.1))
            stats = worker.run_until_drained()
            assert stats.cells_failed == 0
            return stats.cells_computed

    try:
        produced = benchmark.pedantic(run, setup=setup, rounds=2,
                                      iterations=1, warmup_rounds=1)
        assert produced == len(specs)
    finally:
        for root in scratch:
            shutil.rmtree(root, ignore_errors=True)


@pytest.mark.parametrize("mode", ["reference", "memoized"])
def test_perf_spec_scan(benchmark, mode):
    """The quick scan sweep (13 gadgets x 10 grid configs) serially
    through ``execute_spec``, reference explorer vs the memoized
    engine.  The memoized lane measures its steady state: the scanner's
    memo is process-global by design (recordings are keyed on the full
    knob signature, corpus revision included), so the warmup round
    populates it and the measured rounds replay — exactly what repeat
    sweeps, runner retries, and watch-style callers see.  Both lanes
    produce byte-identical reports (``tests/test_spec_memo.py`` proves
    it cell by cell); ``check_regression.SPEEDUP_FLOORS`` gates the
    in-run ratio so the win cannot silently decay.  Sweep-scale rounds,
    so gated on ``min_s`` (see ``check_regression.MIN_GATED``)."""
    from repro.runner import payload_fingerprint
    from repro.runner.engine import execute_spec
    from repro.spec import scan_specs

    specs = scan_specs(quick=True)
    reference = mode == "reference"

    def run():
        return [execute_spec(s, reference=reference) for s in specs]

    payloads = benchmark.pedantic(run, rounds=2, iterations=1,
                                  warmup_rounds=1)
    assert len(payloads) == len(specs)
    for payload in payloads:
        for row in payload["rows"]:
            assert row["leaked"] == row["expected"], row
    benchmark.extra_info["fingerprints"] = {
        payload["config"]: payload_fingerprint(payload)
        for payload in payloads}
