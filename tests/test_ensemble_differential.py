"""Differential equivalence: struct-of-arrays ensemble vs scalar cores.

Sibling of ``tests/test_differential.py`` one layer up: hypothesis
generates the same random programs and memory images, but here N
identically prepared instances advance together through
:class:`repro.cpu.ensemble.CoreEnsemble` while their scalar twins run
the retained ``Core`` loop one by one.  The harness
(:func:`repro.cpu.diff.run_ensemble_vs_scalar` and
:func:`~repro.cpu.diff.lockstep_ensemble`) compares through
``compare_socs``, so the bar is the full bit-identity contract of
:func:`~repro.cpu.diff.soc_observables`: registers, PC, CSRs, traps,
cycles, instret, energy, cache tags/lines/LRU stamps/counters, TLB, MMU,
bus and MEE state, and the sparse physical-memory image.

Directed tests pin the edges hypothesis cannot aim at: empty and
singleton ensembles, mixed-configuration (heterogeneous cache
geometry) ensembles, automatic peel-off for speculative cores, and the
runner-level determinism property — an ``ensemble=True`` workload cell
must produce the *same payload fingerprint* as its scalar twin.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given

from repro.attacks.dpa import traces_to_success
from repro.common import PlatformClass
from repro.core.sweep import (
    build_sweep_instances,
    run_kernel_sweep,
    sweep_max_steps,
    sweep_window,
)
from repro.cpu.diff import lockstep_ensemble, run_ensemble_vs_scalar
from repro.cpu.ensemble import CoreEnsemble
from repro.cpu.soc import make_embedded_soc, make_mobile_soc
from repro.isa import assemble
from tests.test_differential import _SETTINGS, _programs

DRAM = 0x8000_0000
SCRATCH = DRAM + 0x4000
#: Array-memory window covering the fuzz programs' scratch traffic;
#: accesses outside it (the strategies also aim at SCRATCH+4096 and the
#: unmapped hole) peel, so both execution paths stay exercised.
WINDOW = (SCRATCH, 0x200)

MAX_STEPS = 300

ALL_PLATFORMS = (PlatformClass.EMBEDDED, PlatformClass.MOBILE,
                 PlatformClass.SERVER_DESKTOP)


def _fuzz_pairs(case, n):
    """``n`` (ensemble, scalar) twin pairs, memory varied per instance."""
    program, memory = case
    pairs = []
    for i in range(n):
        twins = []
        for _ in range(2):
            soc = make_embedded_soc()
            for addr, value in memory.items():
                soc.memory.write_byte(addr, (value + 17 * i) & 0xFF)
            soc.cores[0].load_program(program)
            twins.append(soc)
        pairs.append(tuple(twins))
    return pairs


class TestFuzzedEnsembles:
    @_SETTINGS
    @given(_programs())
    def test_batched_run_matches_scalar(self, case):
        run_ensemble_vs_scalar(_fuzz_pairs(case, 3), max_steps=MAX_STEPS,
                               window=WINDOW)

    @_SETTINGS
    @given(_programs())
    def test_lockstep_matches_scalar(self, case):
        lockstep_ensemble(_fuzz_pairs(case, 2), max_steps=MAX_STEPS,
                          window=WINDOW)

    @_SETTINGS
    @given(_programs())
    def test_windowless_ensemble_matches_scalar(self, case):
        """No memory window: every load/store peels, and the peeled
        scalar path must still reproduce the oracle bit for bit."""
        run_ensemble_vs_scalar(_fuzz_pairs(case, 2), max_steps=MAX_STEPS,
                               window=None)


def _sweep_pairs(platform, n, iters, seed=7):
    ensemble_side = build_sweep_instances(platform, seed, n, iters)
    scalar_side = build_sweep_instances(platform, seed, n, iters)
    return list(zip(ensemble_side, scalar_side))


class TestDirectedEnsembles:
    def test_empty_ensemble(self):
        report = CoreEnsemble([]).run(max_steps=16)
        assert report.peeled == []
        assert report.traps == []
        assert report.cycles == []
        assert run_ensemble_vs_scalar([], max_steps=16).peeled == []

    def test_singleton_ensemble(self):
        pairs = _sweep_pairs(PlatformClass.EMBEDDED, 1, 32)
        report = run_ensemble_vs_scalar(
            pairs, max_steps=sweep_max_steps(32),
            window=sweep_window(pairs[0][0]))
        assert report.peeled == [False]

    def test_mixed_config_ensemble(self):
        """Heterogeneous cache geometries (4x1/8x1 embedded vs 16x8/32x16
        server) in one ensemble, all bit-identical to their twins."""
        pairs = (_sweep_pairs(PlatformClass.EMBEDDED, 2, 24)
                 + _sweep_pairs(PlatformClass.SERVER_DESKTOP, 2, 24)
                 + _sweep_pairs(PlatformClass.MOBILE, 2, 24))
        windows = {sweep_window(pair[0]) for pair in pairs}
        assert len(windows) == 1  # same DRAM layout => shared window
        report = run_ensemble_vs_scalar(pairs,
                                        max_steps=sweep_max_steps(24),
                                        window=windows.pop())
        assert report.peeled == [False] * len(pairs)

    def test_speculative_core_peels_and_matches(self):
        """A speculative core cannot vectorize: it must peel to its own
        scalar run — and its siblings must stay on the array path."""
        program = assemble("""
        entry:
            li r1, 5
            li r2, 0
        loop:
            addi r2, r2, 3
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """, base=DRAM + 0x1000)
        pairs = _sweep_pairs(PlatformClass.EMBEDDED, 2, 16)
        window = sweep_window(pairs[0][0])
        twins = []
        for _ in range(2):
            soc = make_mobile_soc()
            soc.cores[0].load_program(program, entry="entry")
            twins.append(soc)
        pairs.append(tuple(twins))
        report = run_ensemble_vs_scalar(pairs,
                                        max_steps=sweep_max_steps(16),
                                        window=window)
        assert report.peeled == [False, False, True]
        assert "speculation" in report.peel_reasons[2]


class TestSweepDeterminism:
    @pytest.mark.parametrize("platform", ALL_PLATFORMS,
                             ids=lambda p: p.value)
    def test_kernel_sweep_summary_identical(self, platform):
        scalar = run_kernel_sweep(platform, 0xA5, 6, 40, ensemble=False)
        vector = run_kernel_sweep(platform, 0xA5, 6, 40, ensemble=True)
        assert scalar == vector

    @pytest.mark.parametrize("platform", ALL_PLATFORMS,
                             ids=lambda p: p.value)
    def test_workload_cell_fingerprints_match(self, platform):
        """The manifest-level determinism check: an ensemble run of a
        workload cell is indistinguishable from a scalar run — same
        payload, same fingerprint, same cache entry."""
        import dataclasses

        from repro.attacks.suites import MatrixKnobs
        from repro.runner import (
            WORKLOAD_CATEGORY,
            CellSpec,
            execute_spec,
            payload_fingerprint,
        )

        knobs = dataclasses.replace(MatrixKnobs.quick(),
                                    sweep_instances=4, sweep_iters=16)
        spec = CellSpec(seed=0x2019, platform=platform.value,
                        category=WORKLOAD_CATEGORY, knobs=knobs.as_key())
        scalar = execute_spec(spec, reference=True)
        vector = execute_spec(spec)
        assert scalar["sweep"] == vector["sweep"]
        assert payload_fingerprint(scalar) == payload_fingerprint(vector)


class _RecordingAcquire:
    """Callable acquire stub that records how it was invoked."""

    def __init__(self):
        self.calls = []

    def __call__(self, n, batch=None):
        from repro.power.instrument import capture_aes_traces
        from repro.power.leakage import HammingWeightModel
        from repro.crypto.aes import AES128
        from repro.crypto.rng import XorShiftRNG

        self.calls.append({"n": n, "batch": batch})
        return capture_aes_traces(
            lambda leak: AES128(bytes(16), leak_hook=leak), n,
            HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(3)),
            rng=XorShiftRNG(4), batch=True)


def _analyse_nothing(traces):
    return bytes(16)


class TestBatchRouting:
    """Regression tests for the ``batch=`` forwarding bugfix: the old
    ``"batch" in inspect.signature(acquire).parameters`` check dropped
    ``**kwargs`` forwarders (and partials over them) onto the scalar
    path silently."""

    def test_direct_acquire_gets_batch(self):
        acquire = _RecordingAcquire()
        traces_to_success(acquire, _analyse_nothing, bytes(16), [8])
        assert acquire.calls == [{"n": 8, "batch": True}]

    def test_kwargs_forwarder_gets_batch(self):
        acquire = _RecordingAcquire()

        def forwarder(n, **kwargs):
            return acquire(n, **kwargs)

        traces_to_success(forwarder, _analyse_nothing, bytes(16), [8],
                          batch=False)
        assert acquire.calls == [{"n": 8, "batch": False}]

    def test_partial_wrapped_forwarder_gets_batch(self):
        acquire = _RecordingAcquire()

        def forwarder(tag, n, **kwargs):
            assert tag == "sweep"
            return acquire(n, **kwargs)

        wrapped = functools.partial(forwarder, "sweep")
        traces_to_success(wrapped, _analyse_nothing, bytes(16), [8])
        assert acquire.calls == [{"n": 8, "batch": True}]

    def test_decorated_acquire_gets_batch(self):
        acquire = _RecordingAcquire()

        def with_logging(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                return fn(*args, **kwargs)
            return inner

        def base(n, batch=None):
            return acquire(n, batch=batch)

        traces_to_success(with_logging(base), _analyse_nothing,
                          bytes(16), [8], batch=False)
        assert acquire.calls == [{"n": 8, "batch": False}]

    def test_batchless_acquire_invoked_unchanged(self):
        calls = []

        def plain(n):
            calls.append(n)
            return _RecordingAcquire()(n)

        traces_to_success(plain, _analyse_nothing, bytes(16), [8])
        assert calls == [8]
