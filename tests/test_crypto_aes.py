"""AES-128 variants: correctness, hooks, and key-schedule inversion."""

import hashlib

import pytest

from repro.crypto.aes import (
    AES128,
    ConstantTimeAES,
    INV_SBOX,
    MaskedAES,
    NUM_ROUNDS,
    SBOX,
    TE,
    TTABLE_LOOKUP_BYTE,
    TTableAES,
    expand_key,
    gf_mul,
    invert_key_schedule,
)
from repro.crypto.rng import XorShiftRNG
from tests.conftest import AES_CT, AES_KEY, AES_KEY2, AES_PT


class TestTables:
    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inv_sbox_inverts(self):
        assert all(INV_SBOX[SBOX[x]] == x for x in range(256))

    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_gf_mul(self):
        assert gf_mul(0x57, 0x13) == 0xFE  # FIPS-197 example
        assert gf_mul(1, 0xAB) == 0xAB
        assert gf_mul(0, 0xAB) == 0

    def test_table_digests(self):
        """The derived tables, byte for byte: S-box, inverse S-box, and
        Te0..Te3 as big-endian words."""
        te = b"".join(word.to_bytes(4, "big") for table in TE for word in table)
        assert hashlib.sha256(bytes(SBOX)).hexdigest() == (
            "c2d8e5eed6cbebd8625fc18f81486a7733c04f9b0129ffbe974c68b90308b4f2")
        assert hashlib.sha256(bytes(INV_SBOX)).hexdigest() == (
            "93631b0726f6fe6629daa743ee51b49f4477ed07391b68eeea0672a4a90018aa")
        assert hashlib.sha256(te).hexdigest() == (
            "493402f3e4397b2945b16273e795816c0bdf80f76f42fcaa75f3df2e215abc1b")

    def test_lookup_byte_map_is_permutation(self):
        assert sorted(TTABLE_LOOKUP_BYTE) == list(range(16))


class TestKeySchedule:
    def test_eleven_round_keys(self):
        keys = expand_key(AES_KEY2)
        assert len(keys) == NUM_ROUNDS + 1
        assert keys[0] == AES_KEY2

    def test_fips197_expansion_last_key(self):
        keys = expand_key(AES_KEY2)
        assert keys[10].hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"

    def test_key_length_validated(self):
        with pytest.raises(ValueError):
            expand_key(b"short")

    def test_invert_key_schedule(self):
        keys = expand_key(AES_KEY2)
        assert invert_key_schedule(keys[10]) == AES_KEY2

    def test_invert_roundtrip_random_keys(self, rng):
        for _ in range(10):
            key = rng.bytes(16)
            assert invert_key_schedule(expand_key(key)[10]) == key

    def test_invert_validates_length(self):
        with pytest.raises(ValueError):
            invert_key_schedule(b"short")


class TestVariantsAgree:
    @pytest.mark.parametrize("cls", [AES128, TTableAES, ConstantTimeAES])
    def test_fips_vector(self, cls):
        assert cls(AES_KEY).encrypt_block(AES_PT) == AES_CT

    def test_masked_matches(self):
        cipher = MaskedAES(AES_KEY, XorShiftRNG(1))
        assert cipher.encrypt_block(AES_PT) == AES_CT

    def test_masked_many_random_masks(self, rng):
        reference = AES128(AES_KEY2)
        masked = MaskedAES(AES_KEY2, rng)
        for _ in range(20):
            pt = rng.bytes(16)
            assert masked.encrypt_block(pt) == reference.encrypt_block(pt)

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            AES128(AES_KEY).encrypt_block(b"short")


class TestHooks:
    def test_ttable_lookup_counts(self):
        counts = {"rounds": 0, "final": 0}

        def on_lookup(table, index):
            if table == 4:
                counts["final"] += 1
            else:
                counts["rounds"] += 1

        TTableAES(AES_KEY, on_lookup=on_lookup).encrypt_block(AES_PT)
        assert counts["rounds"] == 9 * 16  # rounds 1-9, 16 lookups each
        assert counts["final"] == 16

    def test_round1_lookup_indices_are_pt_xor_key(self):
        seen = []
        TTableAES(AES_KEY2,
                  on_lookup=lambda t, i: seen.append((t, i))
                  ).encrypt_block(bytes(16))
        for j, (table, index) in enumerate(seen[:16]):
            byte = TTABLE_LOOKUP_BYTE[j]
            assert table == j % 4
            assert index == AES_KEY2[byte]  # pt is zero

    def test_constant_time_access_pattern_is_data_independent(self):
        def trace(key, pt):
            seen = []
            ConstantTimeAES(key,
                            on_lookup=lambda t, i: seen.append((t, i))
                            ).encrypt_block(pt)
            return seen

        a = trace(AES_KEY, AES_PT)
        b = trace(AES_KEY2, bytes(16))
        assert a == b  # identical footprint for different key AND data

    def test_leak_hook_rounds(self):
        rounds = set()
        AES128(AES_KEY,
               leak_hook=lambda r, i, v: rounds.add(r)
               ).encrypt_block(AES_PT)
        assert rounds == set(range(1, NUM_ROUNDS + 1))

    def test_leak_values_are_sbox_outputs(self):
        leaks = {}

        def leak(rnd, i, value):
            if rnd == 1:
                leaks[i] = value

        AES128(AES_KEY2, leak_hook=leak).encrypt_block(bytes(16))
        for i in range(16):
            assert leaks[i] == SBOX[AES_KEY2[i]]

    def test_fault_hook_corrupts_output(self):
        def flip(rnd, state):
            if rnd == NUM_ROUNDS:
                state[0] ^= 0x01

        clean = AES128(AES_KEY).encrypt_block(AES_PT)
        faulty = AES128(AES_KEY, fault_hook=flip).encrypt_block(AES_PT)
        assert clean != faulty
        # Final-round fault before SubBytes corrupts exactly one byte.
        assert sum(1 for a, b in zip(clean, faulty) if a != b) == 1

    def test_masked_leaks_are_masked(self):
        """First-round leaks under masking differ from true S-box outputs
        almost always (they carry the fresh output mask)."""
        rng = XorShiftRNG(9)
        mismatches = 0
        for _ in range(10):
            leaks = {}

            def leak(rnd, i, value, _leaks=None):
                pass

            collected = []
            cipher = MaskedAES(AES_KEY2, rng,
                               leak_hook=lambda r, i, v:
                               collected.append((r, i, v)))
            cipher.encrypt_block(bytes(16))
            round1 = {i: v for r, i, v in collected if r == 1}
            if any(round1[i] != SBOX[AES_KEY2[i]] for i in range(16)):
                mismatches += 1
        assert mismatches >= 9
