"""Classical physical attacks: timing, DPA/CPA, faults, CLKSCREW."""

import functools
import warnings

import numpy as np
import pytest

from repro.attacks.clkscrew_attack import ClkscrewAttack
from repro.attacks.dpa import (
    cpa_attack,
    cpa_recover_key,
    dpa_recover_key,
    key_recovery_rate,
    traces_to_success,
)
from repro.attacks.fault_attacks import (
    AESLastRoundDFA,
    BellcoreRSAAttack,
    make_glitchable_aes_victim,
)
from repro.attacks.timing import KocherTimingAttack
from repro.common import PlatformClass, World
from repro.cpu import SoC, SoCConfig, make_mobile_soc
from repro.crypto.aes import AES128, SBOX, MaskedAES
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA, generate_rsa_key
from repro.power.instrument import PowerInstrument, capture_aes_traces
from repro.power.leakage import HammingWeightModel
from tests.conftest import AES_KEY2


@pytest.fixture(scope="module")
def rsa_key():
    return generate_rsa_key(64, XorShiftRNG(5))


class TestKocherTiming:
    def test_recovers_bits_from_square_multiply(self, rsa_key):
        result = KocherTimingAttack(RSA(rsa_key), samples=800,
                                    max_bits=12,
                                    rng=XorShiftRNG(9)).run()
        assert result.success
        assert result.score == 1.0

    def test_defeated_by_montgomery_ladder(self, rsa_key):
        result = KocherTimingAttack(RSA(rsa_key, constant_time=True),
                                    samples=800, max_bits=12,
                                    rng=XorShiftRNG(9)).run()
        assert not result.success

    def test_tolerates_small_noise(self, rsa_key):
        result = KocherTimingAttack(RSA(rsa_key), samples=1200,
                                    max_bits=8, noise_std=0.5,
                                    rng=XorShiftRNG(11)).run()
        assert result.score >= 0.75


@pytest.fixture(scope="module")
def unprotected_traces():
    return capture_aes_traces(
        lambda leak: AES128(AES_KEY2, leak_hook=leak), 400,
        HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(3)),
        rng=XorShiftRNG(4))


class TestPowerAnalysis:
    def test_cpa_recovers_full_key(self, unprotected_traces):
        assert cpa_recover_key(unprotected_traces) == AES_KEY2

    def test_dpa_recovers_most_of_key(self, unprotected_traces):
        rate = key_recovery_rate(dpa_recover_key(unprotected_traces),
                                 AES_KEY2)
        assert rate >= 0.8

    def test_cpa_peak_at_correct_candidate(self, unprotected_traces):
        best, peaks = cpa_attack(unprotected_traces, 0)
        assert best == AES_KEY2[0]
        runner_up = sorted(peaks)[-2]
        assert peaks[best] > 1.3 * runner_up  # clear margin

    def test_masking_defeats_first_order_cpa(self):
        mask_rng = XorShiftRNG(11)
        traces = capture_aes_traces(
            lambda leak: MaskedAES(AES_KEY2, mask_rng, leak_hook=leak),
            400, HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(3)),
            rng=XorShiftRNG(4))
        rate = key_recovery_rate(cpa_recover_key(traces), AES_KEY2)
        assert rate <= 0.2

    def test_shuffling_degrades_cpa(self):
        traces = capture_aes_traces(
            lambda leak: AES128(AES_KEY2, leak_hook=leak), 400,
            HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(3)),
            rng=XorShiftRNG(4), shuffle=True)
        rate = key_recovery_rate(cpa_recover_key(traces), AES_KEY2)
        assert rate <= 0.5

    def test_success_grows_with_traces(self):
        def acquire(n):
            return capture_aes_traces(
                lambda leak: AES128(AES_KEY2, leak_hook=leak), n,
                HammingWeightModel(noise_std=2.5, rng=XorShiftRNG(7)),
                rng=XorShiftRNG(8))

        rates = traces_to_success(acquire, cpa_recover_key, AES_KEY2,
                                  [30, 400])
        assert rates[400] >= rates[30]
        assert rates[400] >= 0.9


_HW = np.array([bin(x).count("1") for x in range(256)], dtype=np.float64)
_SBOX = np.array(SBOX, dtype=np.int64)


def _per_candidate_cpa(traces, byte_index):
    """Reference CPA: one candidate at a time, each with its own 1-D
    hypothesis, mean, norm and ``hyp @ centered`` product."""
    samples = traces.samples
    pt = traces.plaintext_bytes(byte_index)
    centered = samples - samples.mean(axis=0)
    sample_norms = np.sqrt((centered ** 2).sum(axis=0))
    sample_norms[sample_norms == 0] = 1.0
    peaks = np.zeros(256)
    for candidate in range(256):
        hyp = _HW[_SBOX[pt ^ candidate]]
        hyp = hyp - hyp.mean()
        norm = np.sqrt((hyp ** 2).sum())
        if norm == 0:
            continue
        corr = hyp @ centered / (norm * sample_norms)
        peaks[candidate] = np.abs(corr).max()
    return int(peaks.argmax()), peaks


def _cipher_factory(kind):
    if kind == "masked":
        mask_rng = XorShiftRNG(11)
        return lambda leak: MaskedAES(AES_KEY2, mask_rng, leak_hook=leak)
    return lambda leak: AES128(AES_KEY2, leak_hook=leak)


class TestCPAMatchesPerCandidateLoop:
    """All-candidate CPA scores every candidate bit-identically to the
    per-candidate loop it replaced."""

    @pytest.mark.parametrize("kind", ["unprotected", "shuffled", "masked"])
    @pytest.mark.parametrize("num_traces", [50, 300, 1000])
    def test_peaks_bit_identical(self, kind, num_traces):
        traces = capture_aes_traces(
            _cipher_factory(kind), num_traces,
            HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(3)),
            rng=XorShiftRNG(4), shuffle=(kind == "shuffled"))
        expected_key = []
        for byte_index in range(16):
            best, peaks = cpa_attack(traces, byte_index)
            ref_best, ref_peaks = _per_candidate_cpa(traces, byte_index)
            assert np.array_equal(peaks, ref_peaks)
            assert best == ref_best
            expected_key.append(ref_best)
        assert cpa_recover_key(traces) == bytes(expected_key)

    def test_constant_plaintext_byte_scores_zero(self):
        # Byte 0 never varies, so every candidate's hypothesis is
        # constant: zero norm, no correlation, no division warning.
        rng = XorShiftRNG(21)
        plaintexts = [bytes([0x5A]) + rng.bytes(15) for _ in range(64)]
        traces = PowerInstrument(
            HammingWeightModel(noise_std=1.0, rng=XorShiftRNG(3))).capture(
                _cipher_factory("unprotected"), plaintexts)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            best, peaks = cpa_attack(traces, 0)
        assert best == 0
        assert not peaks.any()
        assert np.array_equal(peaks, _per_candidate_cpa(traces, 0)[1])


class TestFaultAttacks:
    def test_bellcore_factors_modulus(self, rsa_key):
        result = BellcoreRSAAttack(RSA(rsa_key),
                                   rng=XorShiftRNG(1)).run()
        assert result.success
        factor = result.leaked["factor"]
        assert factor in (rsa_key.p, rsa_key.q)

    def test_bellcore_defeated_by_verification(self, rsa_key):
        result = BellcoreRSAAttack(
            RSA(rsa_key, verify_signatures=True),
            rng=XorShiftRNG(1)).run()
        assert not result.success
        assert result.details["refusals"] == result.details["shots"]

    def test_dfa_recovers_master_key(self):
        attack = AESLastRoundDFA(make_glitchable_aes_victim(AES_KEY2),
                                 AES_KEY2, rng=XorShiftRNG(2))
        result = attack.run()
        assert result.success
        assert bytes.fromhex(result.leaked) == AES_KEY2

    def test_dfa_starves_without_faults(self):
        def shielded_encrypt(pt, fault_hook):
            return AES128(AES_KEY2).encrypt_block(pt)  # hook ignored

        result = AESLastRoundDFA(shielded_encrypt, AES_KEY2,
                                 rng=XorShiftRNG(2), max_faults=40).run()
        assert not result.success
        assert result.details["effective_faults"] == 0


class TestClkscrew:
    def test_recovers_secure_world_key(self):
        result = ClkscrewAttack(make_mobile_soc(), AES_KEY2,
                                rng=XorShiftRNG(3)).run()
        assert result.success
        assert result.details["glitch_probability"] > 0

    def test_blocked_by_secure_world_gate(self):
        soc = SoC(SoCConfig(name="gated", platform=PlatformClass.MOBILE,
                            num_cores=2, dvfs_secure_world_gated=True))
        soc.set_world(0, World.SECURE)
        result = ClkscrewAttack(soc, AES_KEY2, rng=XorShiftRNG(3)).run()
        assert not result.success
        assert "blocked" in result.details

    def test_blocked_by_hardware_limit(self):
        soc = SoC(SoCConfig(name="lim", platform=PlatformClass.MOBILE,
                            num_cores=2, dvfs_hardware_limit_mhz=2200.0))
        result = ClkscrewAttack(soc, AES_KEY2, rng=XorShiftRNG(3)).run()
        assert not result.success

    def test_blocked_without_software_regulators(self):
        soc = SoC(SoCConfig(name="hw", platform=PlatformClass.MOBILE,
                            num_cores=2,
                            dvfs_software_controllable=False))
        result = ClkscrewAttack(soc, AES_KEY2, rng=XorShiftRNG(3)).run()
        assert not result.success


class _RecordingAcquire:
    """Callable acquire stub that records how it was invoked."""

    def __init__(self):
        self.calls = []

    def __call__(self, n, batch=None):
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
