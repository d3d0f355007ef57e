"""RSA, modular exponentiation and the RNG."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.crypto.modexp import (
    BASE_MULT_COST,
    EXTRA_REDUCTION_COST,
    modexp_ladder,
    modexp_square_multiply,
    mult_time,
)
from repro.crypto.rng import _LANE, XorShiftRNG, _jump, _unit_floats
from repro.crypto.rsa import RSA, generate_rsa_key, is_probable_prime
from repro.errors import SecurityViolation


class TestRNG:
    def test_deterministic(self):
        a = XorShiftRNG(42)
        b = XorShiftRNG(42)
        assert [a.next_u64() for _ in range(5)] == \
               [b.next_u64() for _ in range(5)]

    def test_bytes_length(self, rng):
        assert len(rng.bytes(13)) == 13

    def test_next_below_range(self, rng):
        assert all(0 <= rng.next_below(7) < 7 for _ in range(100))
        with pytest.raises(ValueError):
            rng.next_below(0)

    def test_gauss_moments(self):
        rng = XorShiftRNG(7)
        samples = [rng.gauss(0, 1) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert abs(mean) < 0.1
        assert 0.8 < var < 1.2

    def test_shuffle_is_permutation(self, rng):
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # overwhelmingly likely

    def test_odd_integer_properties(self, rng):
        value = rng.odd_integer(64)
        assert value % 2 == 1
        assert value.bit_length() == 64

    def test_zero_seed_does_not_stick(self):
        rng = XorShiftRNG(0)
        assert rng.next_u64() != 0

    def test_seed_with_zero_low_bits_does_not_stick(self):
        # Only the low 64 bits seed the state; all-clear ones must not
        # land on xorshift's zero fixed point.
        rng = XorShiftRNG(1 << 64)
        assert any(rng.next_u64() for _ in range(4))
        assert XorShiftRNG((1 << 64) | 5).u64_block(3) == \
            XorShiftRNG(5).u64_block(3)


#: Block sizes on both sides of the kernel threshold (3072 raw steps)
#: and of lane edges (252 steps, 21 Gaussian samples).
BLOCK_COUNTS = [0, 1, 511, 512, 513, 630, 12 * 256 - 1, 12 * 256 + 1,
                13 * 252, 13 * 252 + 1, 4800, 16000]


class TestRNGBlocks:
    """The block draws are bit-identical to per-call draws."""

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_u64_block_matches_next_u64(self, count):
        block, scalar = XorShiftRNG(0xB10C + count), XorShiftRNG(0xB10C + count)
        values = block.u64_block(count)
        assert values == [scalar.next_u64() for _ in range(count)]
        assert all(type(v) is int for v in values)
        assert block._state == scalar._state

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_gauss_block_matches_gauss(self, count):
        block, scalar = XorShiftRNG(0x6A55 + count), XorShiftRNG(0x6A55 + count)
        values = block.gauss_block(count, 0.25, 1.5)
        assert values == [scalar.gauss(0.25, 1.5) for _ in range(count)]
        assert all(type(v) is float for v in values)
        assert block._state == scalar._state

    def test_unit_floats_round_like_true_division(self):
        m64 = (1 << 64) - 1
        # Dropped bits exactly half an ulp, below an even mantissa: the
        # true quotient is a hair above the tie and rounds up, while
        # ``float(u) * 2**-64`` rounds the tie to even (down).
        ties = [(1 << 63) | 0x400, (1 << 62) | 0x200, (1 << 53) | 1,
                (1 << 64) - 0x400 - 0x800 * 3]
        # Just below a tie, with u / 2**64 within 2**-44 of 1: adding
        # ``float(u) * 2**-64`` to the low bits rounds up to a false tie.
        near_one = [m64 - 0x400 - 0x800 * k for k in range(8)] + [m64]
        small = [0, 1, 3, (1 << 53) - 1, 1 << 53]
        values = ties + near_one + small
        expected = [u / m64 for u in values]
        got = _unit_floats(np.array(values, dtype=np.uint64)).tolist()
        assert got == expected
        naive = (np.array(ties, dtype=np.uint64).astype(np.float64)
                 * 2.0 ** -64).tolist()
        assert naive != [u / m64 for u in ties]

    def test_jump_is_a_lane_of_steps(self):
        for seed in (1, 0x9E3779B97F4A7C15, (1 << 64) - 1, 1 << 63):
            x = seed
            for _ in range(_LANE):
                x ^= x >> 12
                x = (x ^ (x << 25)) & ((1 << 64) - 1)
                x ^= x >> 27
            assert _jump(seed) == x

    def test_importing_the_rng_does_not_import_numpy(self):
        code = ("import sys, repro.crypto.rng; "
                "sys.exit('numpy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 97, 65537):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 91, 561, 65536):
            assert not is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_probable_prime(n)


class TestKeyGeneration:
    def test_key_invariants(self, rng):
        key = generate_rsa_key(128, rng)
        assert key.n == key.p * key.q
        assert key.p != key.q
        assert (key.e * key.d) % ((key.p - 1) * (key.q - 1)) == 1
        assert key.dp == key.d % (key.p - 1)
        assert (key.qinv * key.q) % key.p == 1

    def test_deterministic_given_seed(self):
        a = generate_rsa_key(96, XorShiftRNG(5))
        b = generate_rsa_key(96, XorShiftRNG(5))
        assert a.n == b.n

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_rsa_key(16)


class TestRSAOperations:
    @pytest.fixture
    def rsa(self, rng):
        return RSA(generate_rsa_key(128, rng))

    def test_encrypt_decrypt_roundtrip(self, rsa, rng):
        for _ in range(5):
            message = rng.next_below(rsa.key.n - 1) + 1
            assert rsa.decrypt(rsa.encrypt(message)) == message

    def test_sign_verify(self, rsa):
        signature = rsa.sign_crt(1234)
        assert rsa.verify(1234, signature)
        assert not rsa.verify(1235, signature)

    def test_crt_matches_plain_exponentiation(self, rsa):
        message = 987654321 % rsa.key.n
        assert rsa.sign_crt(message) == pow(message, rsa.key.d, rsa.key.n)

    def test_range_validated(self, rsa):
        with pytest.raises(ValueError):
            rsa.encrypt(rsa.key.n)
        with pytest.raises(ValueError):
            rsa.encrypt(-1)

    def test_faulty_signature_withheld_when_verifying(self, rng):
        rsa = RSA(generate_rsa_key(128, rng), verify_signatures=True)
        with pytest.raises(SecurityViolation, match="withheld"):
            rsa.sign_crt(42, fault_hook=lambda half, v:
                         v ^ 1 if half == "p" else v)

    def test_faulty_signature_emitted_without_verification(self, rng):
        rsa = RSA(generate_rsa_key(128, rng))
        faulty = rsa.sign_crt(42, fault_hook=lambda half, v:
                              v ^ 1 if half == "p" else v)
        assert not rsa.verify(42, faulty)


class TestModExp:
    def test_both_strategies_correct(self, rng):
        for _ in range(10):
            base = rng.next_below(10**6) + 2
            exp = rng.next_below(10**6) + 1
            mod = rng.next_below(10**6) + 3
            expected = pow(base, exp, mod)
            assert modexp_square_multiply(base, exp, mod).value == expected
            assert modexp_ladder(base, exp, mod).value == expected

    def test_square_multiply_op_count_depends_on_hamming_weight(self):
        light = modexp_square_multiply(3, 0b10000000, 1_000_003)
        heavy = modexp_square_multiply(3, 0b11111111, 1_000_003)
        assert len(heavy.op_times) > len(light.op_times)

    def test_ladder_op_count_independent_of_bits(self):
        a = modexp_ladder(3, 0b10000000, 1_000_003)
        b = modexp_ladder(3, 0b11111111, 1_000_003)
        assert len(a.op_times) == len(b.op_times)
        assert a.time == b.time

    def test_ladder_time_independent_of_exponent_length(self):
        mod = 1_000_003
        runs = [modexp_ladder(3, exp, mod) for exp in (1, 0b1011, 2**19)]
        assert len({run.time for run in runs}) == 1
        assert len(runs[0].op_times) == mod.bit_length()
        assert [run.value for run in runs] \
            == [pow(3, exp, mod) for exp in (1, 0b1011, 2**19)]

    def test_mult_time_is_deterministic_and_data_dependent(self):
        mod = 1_000_003
        assert mult_time(2, 3, mod) == mult_time(2, 3, mod)
        times = {mult_time(x, x + 1, mod) for x in range(1, 2000, 7)}
        assert times == {BASE_MULT_COST,
                         BASE_MULT_COST + EXTRA_REDUCTION_COST}

    def test_noise_increases_time(self):
        quiet = modexp_square_multiply(3, 1000, 1_000_003)
        noisy = modexp_square_multiply(3, 1000, 1_000_003,
                                       noise_rng=XorShiftRNG(1),
                                       noise_std=5.0)
        assert noisy.time >= quiet.time

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            modexp_square_multiply(2, 3, 1)
        with pytest.raises(ValueError):
            modexp_ladder(2, 3, 0)
