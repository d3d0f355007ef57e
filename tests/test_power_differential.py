"""Differential suite: batched acquisition vs the scalar reference.

The batched instrument's contract is bit-identity (same sample matrix,
same metadata, same RNG stream consumption, same recovered keys), not
approximate equality — mirroring ``tests/test_differential.py`` for the
CPU engine.  Hypothesis drives :mod:`repro.power.diff` across
masked/shuffled/noisy configurations; targeted tests pin the edges
(N=0, N=1, multi-round capture, observability neutrality) and the
routing fallbacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.attacks.dpa import cpa_recover_key, dpa_recover_key
from repro.crypto.aes import AES128, TTableAES
from repro.crypto.aes_batch import BatchAES128
from repro.crypto.rng import XorShiftRNG
from repro.lockstep import compare, run_pair
from repro.power.batch import BatchPowerInstrument, batch_cipher_for
from repro.power.diff import (
    SCAConfig,
    batched_capture,
    scalar_capture,
    trace_observables,
)
from repro.power.instrument import capture_aes_traces
from repro.power.leakage import HammingWeightModel, IdentityModel
from tests.conftest import AES_KEY, AES_KEY2


def _identical(cfg: SCAConfig) -> None:
    run_pair(cfg, batched_capture, scalar_capture)  # raises on any mismatch


class TestDifferentialHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        num_traces=st.integers(min_value=0, max_value=24),
        masked=st.booleans(),
        shuffle=st.booleans(),
        noise_std=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        rounds=st.sampled_from([(1,), (10,), (1, 10), (2, 5), (10, 1),
                                (1, 5, 10)]),
        seed=st.integers(min_value=1, max_value=2**63),
    )
    def test_batched_capture_is_bit_identical(self, key, num_traces,
                                              masked, shuffle, noise_std,
                                              rounds, seed):
        _identical(SCAConfig(
            key=key, num_traces=num_traces, masked=masked,
            shuffle=shuffle, noise_std=noise_std,
            rounds_of_interest=rounds, seed=seed,
            mask_seed=seed ^ 0x5EED, noise_seed=seed ^ 0xA0A0))


class TestDifferentialEdges:
    def test_single_trace(self):
        _identical(SCAConfig(key=AES_KEY, num_traces=1))

    def test_empty_capture(self):
        batched, scalar = run_pair(SCAConfig(key=AES_KEY, num_traces=0),
                                   batched_capture, scalar_capture)
        assert len(batched.traces) == 0
        assert batched.traces.samples.shape == (0, 16)
        assert batched.traces.plaintexts == ()

    def test_first_and_last_round(self):
        _identical(SCAConfig(key=AES_KEY, num_traces=12,
                             rounds_of_interest=(1, 10)))

    def test_masked_shuffled_noisy(self):
        _identical(SCAConfig(key=AES_KEY2, num_traces=24, masked=True,
                             shuffle=True, noise_std=2.5))

    def test_rounds_outside_cipher_stay_silent(self):
        # Rounds the cipher never reaches leave their slots at 0.0 on
        # both paths (the scalar hook simply never fires for them).
        batched, _ = run_pair(SCAConfig(
            key=AES_KEY, num_traces=6, rounds_of_interest=(1, 11)),
            batched_capture, scalar_capture)
        assert np.all(batched.traces.samples[:, 16:] == 0.0)

    def test_observed_and_unobserved_batched_runs_identical(self):
        cfg = SCAConfig(key=AES_KEY, num_traces=16, shuffle=True)
        unobserved = batched_capture(cfg)
        with obs.activate(obs.Tracer(scope="power-diff", seed=7)):
            observed = batched_capture(cfg)
            assert obs.current_tracer().records  # span actually taken
        compare("traces", trace_observables(observed.traces),
                trace_observables(unobserved.traces))

    def test_recovered_keys_match_scalar(self):
        cfg = SCAConfig(key=AES_KEY2, num_traces=300, noise_std=1.0)
        batched, scalar = run_pair(cfg, batched_capture, scalar_capture)
        assert cpa_recover_key(batched.traces) \
            == cpa_recover_key(scalar.traces) == AES_KEY2
        assert dpa_recover_key(batched.traces) \
            == dpa_recover_key(scalar.traces)


class TestRouting:
    def _scalar_twin(self, factory, n, shuffle=False):
        return capture_aes_traces(
            factory, n,
            HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(3)),
            rng=XorShiftRNG(4), shuffle=shuffle, batch=False)

    def test_batch_knob_defaults_on_and_matches_scalar(self):
        def factory(leak):
            return AES128(AES_KEY, leak_hook=leak)

        batched = capture_aes_traces(
            factory, 20, HammingWeightModel(noise_std=1.0,
                                            rng=XorShiftRNG(3)),
            rng=XorShiftRNG(4))
        compare("traces", trace_observables(batched),
                trace_observables(self._scalar_twin(factory, 20)))

    def test_ttable_cipher_falls_back_to_scalar(self):
        def factory(leak):
            return TTableAES(AES_KEY, leak_hook=leak)

        assert batch_cipher_for(factory) is None
        batched = capture_aes_traces(
            factory, 8, HammingWeightModel(noise_std=1.0,
                                           rng=XorShiftRNG(3)),
            rng=XorShiftRNG(4))
        compare("traces", trace_observables(batched),
                trace_observables(self._scalar_twin(factory, 8)))

    def test_fault_hooked_cipher_falls_back(self):
        def factory(leak):
            return AES128(AES_KEY, leak_hook=leak,
                          fault_hook=lambda rnd, state: None)

        assert batch_cipher_for(factory) is None

    def test_aliased_streams_fall_back(self):
        shared = XorShiftRNG(9)
        model = HammingWeightModel(noise_std=1.0, rng=shared)
        instrument = BatchPowerInstrument(model, (1,), shuffle=True,
                                          rng=shared)
        assert not instrument.can_capture(BatchAES128(AES_KEY))
        # The routing layer transparently produces the scalar result.
        a = capture_aes_traces(
            lambda leak: AES128(AES_KEY, leak_hook=leak), 8,
            HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(9)),
            rng=XorShiftRNG(9), shuffle=True)
        b = capture_aes_traces(
            lambda leak: AES128(AES_KEY, leak_hook=leak), 8,
            HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(9)),
            rng=XorShiftRNG(9), shuffle=True, batch=False)
        compare("traces", trace_observables(a), trace_observables(b))

    def test_identity_model_batches(self):
        instrument = BatchPowerInstrument(IdentityModel(), (1,))
        assert instrument.can_capture(BatchAES128(AES_KEY))

    def test_custom_model_without_leak_block_falls_back(self):
        class Oscilloscope:
            def leak(self, value):
                return float(value)

        instrument = BatchPowerInstrument(Oscilloscope(), (1,))
        assert not instrument.can_capture(BatchAES128(AES_KEY))


class TestBatchedAESKernel:
    def test_ciphertexts_match_scalar_aes(self):
        rng = XorShiftRNG(0xC0DE)
        pts = [rng.bytes(16) for _ in range(32)]
        matrix = np.frombuffer(b"".join(pts),
                               dtype=np.uint8).reshape(32, 16)
        cts, inter = BatchAES128(AES_KEY).encrypt_blocks(matrix, (1, 10))
        cipher = AES128(AES_KEY)
        for row, pt in zip(cts, pts):
            assert bytes(row) == cipher.encrypt_block(pt)
        assert set(inter) == {1, 10}
        assert inter[1].shape == (32, 16)

    def test_masked_intermediates_are_masked_share(self):
        # The masked cipher leaks S(state) ^ m_out; with a twin RNG we
        # can predict m_out and unmask back to the plain intermediates.
        rng = XorShiftRNG(0x77)
        twin = XorShiftRNG(0x77)
        from repro.crypto.aes_batch import BatchMaskedAES
        pts = np.frombuffer(AES_KEY2 * 3,
                            dtype=np.uint8).reshape(3, 16).copy()
        cts, inter = BatchMaskedAES(twin, AES_KEY).encrypt_blocks(
            pts, (1,))
        plain_cts, plain_inter = BatchAES128(AES_KEY).encrypt_blocks(
            pts, (1,))
        assert np.array_equal(cts, plain_cts)
        draws = np.array(rng.u64_block(18 * 3),
                         dtype=np.uint64).reshape(3, 18)
        m_out = draws[:, 1].astype(np.uint8)[:, np.newaxis]
        assert np.array_equal(inter[1] ^ m_out, plain_inter[1])

    def test_bad_block_length_rejected(self):
        instrument = BatchPowerInstrument(IdentityModel(), (1,))
        with pytest.raises(ValueError):
            instrument.capture(BatchAES128(AES_KEY), [b"short"])


class TestDegenerateDPAPartitions:
    def test_constant_plaintext_byte_yields_no_differential(self):
        # Every candidate predicts a constant bit -> every partition is
        # degenerate -> all peaks stay 0 and the argmax defaults to 0.
        from repro.attacks.dpa import dpa_attack
        from repro.power.trace import TraceSet
        traces = TraceSet(4)
        for i in range(8):
            traces.add([float(i)] * 4, bytes([0x42] * 16),
                       bytes([i] * 16))
        best, peaks = dpa_attack(traces, 0)
        assert best == 0
        assert np.all(peaks == 0.0)

    def test_single_trace_partition_is_degenerate(self):
        from repro.attacks.dpa import dpa_attack
        from repro.power.trace import TraceSet
        traces = TraceSet(2)
        traces.add([1.0, 2.0], bytes(range(16)), bytes(16))
        best, peaks = dpa_attack(traces, 3)
        assert best == 0
        assert np.all(peaks == 0.0)
