"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attestation.report import AttestationReport
from repro.cache.cache import Cache
from repro.cache.partition import WayPartition
from repro.crypto.aes import AES128, MaskedAES, expand_key, invert_key_schedule
from repro.crypto.hmacmod import hmac_sha256, hmac_verify
from repro.crypto.modexp import modexp_ladder, modexp_square_multiply
from repro.crypto.rng import XorShiftRNG
from repro.memory.paging import (
    PAGE_SIZE,
    FrameAllocator,
    PageFlags,
    PageTable,
    pte_pack,
    pte_unpack,
)
from repro.memory.phys import PhysicalMemory

_slow = settings(max_examples=25,
                 suppress_health_check=[HealthCheck.too_slow])

keys16 = st.binary(min_size=16, max_size=16)
blocks16 = st.binary(min_size=16, max_size=16)


class TestCryptoProperties:
    @_slow
    @given(key=keys16, pt=blocks16)
    def test_aes_decrypt_inverts_encrypt(self, key, pt):
        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(pt)) == pt

    @_slow
    @given(key=keys16, pt=blocks16, seed=st.integers(1, 2**32))
    def test_masked_aes_equals_reference(self, key, pt, seed):
        masked = MaskedAES(key, XorShiftRNG(seed))
        assert masked.encrypt_block(pt) == AES128(key).encrypt_block(pt)

    @_slow
    @given(key=keys16)
    def test_key_schedule_inversion(self, key):
        assert invert_key_schedule(expand_key(key)[10]) == key

    @_slow
    @given(key=st.binary(min_size=1, max_size=80),
           message=st.binary(max_size=200))
    def test_hmac_verify_roundtrip(self, key, message):
        tag = hmac_sha256(key, message)
        assert hmac_verify(key, message, tag)
        assert not hmac_verify(key + b"x", message, tag)

    @_slow
    @given(base=st.integers(0, 10**9), exp=st.integers(1, 10**6),
           mod=st.integers(3, 10**9))
    def test_modexp_strategies_agree_with_pow(self, base, exp, mod):
        expected = pow(base, exp, mod)
        assert modexp_square_multiply(base, exp, mod).value == expected
        assert modexp_ladder(base, exp, mod).value == expected


class TestMemoryProperties:
    @_slow
    @given(writes=st.lists(
        st.tuples(st.integers(0, 0xFFF0), st.integers(0, 2**64 - 1)),
        max_size=30))
    def test_memory_last_write_wins(self, writes):
        memory = PhysicalMemory(size=0x20000)
        final = {}
        for addr, value in writes:
            addr &= ~7
            memory.write_word(addr, value)
            final[addr] = value & (2**64 - 1)
        for addr, value in final.items():
            assert memory.read_word(addr) == value

    @_slow
    @given(mappings=st.dictionaries(
        st.integers(0, 255), st.integers(0, 1023),
        min_size=1, max_size=20))
    def test_page_table_mappings_independent(self, mappings):
        memory = PhysicalMemory(size=1 << 32)
        table = PageTable(memory, FrameAllocator(0x10_0000, 128))
        flags = PageFlags.PRESENT | PageFlags.WRITABLE
        for vpn, ppn in mappings.items():
            table.map(vpn * PAGE_SIZE, 0x100_0000 + ppn * PAGE_SIZE, flags)
        for vpn, ppn in mappings.items():
            paddr, _ = table.lookup(vpn * PAGE_SIZE)
            assert paddr == 0x100_0000 + ppn * PAGE_SIZE

    @_slow
    @given(paddr=st.integers(0, 2**40).map(lambda x: x & ~0xFFF),
           flag_bits=st.integers(0, 0x1FF))
    def test_pte_pack_unpack_roundtrip(self, paddr, flag_bits):
        flags = PageFlags(flag_bits)
        packed = pte_pack(paddr, flags)
        assert pte_unpack(packed) == (paddr, flags)


class TestCacheProperties:
    @_slow
    @given(addrs=st.lists(st.integers(0, 0xFFFFF), min_size=1,
                          max_size=200))
    def test_cache_capacity_invariant(self, addrs):
        cache = Cache("c", num_sets=8, ways=2)
        for addr in addrs:
            cache.access(addr)
        assert len(cache.resident_lines()) <= 16
        for idx in range(8):
            assert cache.set_occupancy(idx) <= 2

    @_slow
    @given(addrs=st.lists(st.integers(0, 0xFFFFF), min_size=1,
                          max_size=100))
    def test_flush_all_empties(self, addrs):
        cache = Cache("c", num_sets=4, ways=4)
        for addr in addrs:
            cache.access(addr)
        cache.flush_all()
        assert cache.resident_lines() == []

    @_slow
    @given(addrs=st.lists(st.integers(0, 0xFFFF), min_size=2,
                          max_size=60))
    def test_most_recent_line_always_resident(self, addrs):
        cache = Cache("c", num_sets=4, ways=2)
        for addr in addrs:
            cache.access(addr)
            assert cache.probe(addr)

    @_slow
    @given(ways=st.integers(2, 16), n_domains=st.integers(1, 4))
    def test_even_partition_disjoint_and_complete(self, ways, n_domains):
        if ways < n_domains:
            return
        domains = [f"d{i}" for i in range(n_domains)]
        partition = WayPartition.split_evenly(ways, domains)
        combined = 0
        for a in domains:
            mask = partition.mask_of(a)
            assert mask
            assert combined & mask == 0
            combined |= mask
        assert combined == (1 << ways) - 1


class TestAttestationProperties:
    @_slow
    @given(measurement=st.binary(min_size=32, max_size=32),
           nonce=st.binary(min_size=8, max_size=24),
           params=st.binary(max_size=40),
           dest=st.integers(0, 2**48),
           key=st.binary(min_size=16, max_size=32))
    def test_report_pack_unpack_verify(self, measurement, nonce, params,
                                       dest, key):
        report = AttestationReport.create(key, measurement, nonce, params,
                                          dest)
        unpacked = AttestationReport.unpack(report.pack())
        assert unpacked == report
        assert unpacked.verify(key)

    @_slow
    @given(data=st.binary(max_size=64))
    def test_unpack_never_crashes_on_garbage(self, data):
        from repro.errors import AttestationError
        try:
            AttestationReport.unpack(data)
        except AttestationError:
            pass  # rejection is the expected failure mode


class TestRNGProperties:
    @_slow
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 100))
    def test_bytes_deterministic_and_sized(self, seed, n):
        assert XorShiftRNG(seed).bytes(n) == XorShiftRNG(seed).bytes(n)
        assert len(XorShiftRNG(seed).bytes(n)) == n

    @_slow
    @given(seed=st.integers(0, 2**64 - 1),
           items=st.lists(st.integers(), min_size=1, max_size=50))
    def test_shuffle_preserves_multiset(self, seed, items):
        shuffled = list(items)
        XorShiftRNG(seed).shuffle(shuffled)
        assert sorted(shuffled) == sorted(items)
