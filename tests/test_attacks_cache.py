"""Cache side-channel attacks vs each architecture (TAB-S41 in miniature)."""

import random

import pytest

from repro.arch import SGX, Sanctuary, Sanctum, TrustZone
from repro.arch.null import NullArchitecture
from repro.attacks.base import AttackerProcess, _modulo_set_lines
from repro.attacks.cache_sca import (
    EvictTimeAttack,
    FlushReloadAttack,
    PrimeProbeAttack,
    SharedAESService,
    _CacheAttackConfig,
)
from repro.cache.randmap import RandomizedIndexing
from repro.cpu import make_mobile_soc, make_server_soc
from repro.crypto.rng import XorShiftRNG
from tests.conftest import AES_KEY2

#: Small-but-reliable test configuration (2 bytes, 8x8 samples).
CFG = _CacheAttackConfig(samples_per_value=8, plaintext_values=8,
                         target_bytes=(0, 5))


def _expected_nibbles(key, target_bytes=CFG.target_bytes):
    return {b: key[b] >> 4 for b in target_bytes}


class TestPrimeProbe:
    def test_recovers_nibbles_vs_sgx(self):
        sgx = SGX(make_server_soc())
        victim = sgx.deploy_aes_victim(AES_KEY2)
        attack = PrimeProbeAttack(victim, AttackerProcess(sgx, core_id=1),
                                  XorShiftRNG(1), CFG)
        result = attack.run()
        assert result.success
        assert result.details["recovered"] == _expected_nibbles(AES_KEY2)

    def test_recovers_nibbles_vs_trustzone(self):
        tz = TrustZone(make_mobile_soc())
        victim = tz.deploy_aes_victim(AES_KEY2)
        result = PrimeProbeAttack(victim, AttackerProcess(tz, core_id=1),
                                  XorShiftRNG(1), CFG).run()
        assert result.success

    def test_defeated_by_sanctum_coloring(self):
        sanctum = Sanctum(make_server_soc())
        victim = sanctum.deploy_aes_victim(AES_KEY2)
        result = PrimeProbeAttack(victim,
                                  AttackerProcess(sanctum, core_id=1),
                                  XorShiftRNG(1), CFG).run()
        assert not result.success
        assert result.details["set_coverage"] == 0.0  # can't even prime

    def test_defeated_by_sanctuary_exclusion(self):
        sanctuary = Sanctuary(make_mobile_soc())
        victim = sanctuary.deploy_aes_victim(AES_KEY2, core_id=0)
        result = PrimeProbeAttack(victim,
                                  AttackerProcess(sanctuary, core_id=1),
                                  XorShiftRNG(1), CFG).run()
        assert not result.success


class TestFlushReload:
    def test_recovers_vs_shared_library(self):
        soc = make_server_soc()
        arch = NullArchitecture(soc)
        service = SharedAESService(soc, AES_KEY2, core_id=0)
        result = FlushReloadAttack(service, AttackerProcess(arch, 1),
                                   XorShiftRNG(2), CFG).run()
        assert result.success
        assert result.details["recovered"] == _expected_nibbles(AES_KEY2)

    def test_blocked_vs_enclave_memory(self):
        sgx = SGX(make_server_soc())
        victim = sgx.deploy_aes_victim(AES_KEY2)
        result = FlushReloadAttack(victim, AttackerProcess(sgx, 1),
                                   XorShiftRNG(2), CFG).run()
        assert not result.success
        assert "blocked" in result.details

    def test_blocked_vs_sanctum(self):
        sanctum = Sanctum(make_server_soc())
        victim = sanctum.deploy_aes_victim(AES_KEY2)
        result = FlushReloadAttack(victim, AttackerProcess(sanctum, 1),
                                   XorShiftRNG(2), CFG).run()
        assert not result.success


class TestEvictTime:
    def test_recovers_vs_sgx(self):
        sgx = SGX(make_server_soc())
        victim = sgx.deploy_aes_victim(AES_KEY2)
        cfg = _CacheAttackConfig(samples_per_value=6, plaintext_values=8,
                                 target_bytes=(0,))
        result = EvictTimeAttack(victim, AttackerProcess(sgx, 1),
                                 XorShiftRNG(3), cfg).run()
        assert result.success

    def test_no_signal_vs_sanctuary(self):
        sanctuary = Sanctuary(make_mobile_soc())
        victim = sanctuary.deploy_aes_victim(AES_KEY2, core_id=0)
        cfg = _CacheAttackConfig(samples_per_value=4, plaintext_values=4,
                                 target_bytes=(0,))
        result = EvictTimeAttack(victim, AttackerProcess(sanctuary, 1),
                                 XorShiftRNG(3), cfg).run()
        assert not result.success


class TestSharedAESService:
    def test_encrypt_correct(self, server_soc):
        from repro.crypto.aes import AES128
        service = SharedAESService(server_soc, AES_KEY2)
        assert service.encrypt(bytes(16)) == \
            AES128(AES_KEY2).encrypt_block(bytes(16))

    def test_alignment_enforced(self, server_soc):
        with pytest.raises(ValueError):
            SharedAESService(server_soc, AES_KEY2, table_paddr=0x8000_0020)


def _scan_eviction_addresses(attacker, set_index, count):
    """The brute-force page scan the per-set index replaced."""
    llc = attacker.soc.hierarchy.l2
    out = []
    for page in attacker.pages:
        for line in range(0, 4096, llc.line_size):
            if llc.set_index(page + line) == set_index:
                out.append(page + line)
                if len(out) >= count:
                    return out
    return out


def _scan_set_lines(pages, line_size, set_index, target, count):
    """Brute force: every line of every page, kept when ``set_index``
    maps it to ``target``, truncated to ``count``."""
    lines = [page + line for page in pages
             for line in range(0, 4096, line_size)
             if set_index(page + line) == target]
    return lines[:count]


class TestEvictionSetIndex:
    def _assert_matches_scan(self, attacker, counts=(1, 4, 16, 10_000)):
        llc = attacker.soc.hierarchy.l2
        for set_index in range(llc.num_sets):
            for count in counts:
                assert attacker.eviction_addresses_for_set(
                    set_index, count) == _scan_eviction_addresses(
                    attacker, set_index, count)

    def test_matches_scan_and_follows_new_pages(self):
        arch = NullArchitecture(make_mobile_soc())
        attacker = AttackerProcess(arch, core_id=1)
        attacker.alloc_pages(5)
        self._assert_matches_scan(attacker)
        attacker.alloc_pages(7)  # the index must not go stale
        self._assert_matches_scan(attacker)

    def test_matches_scan_under_sanctum_colouring(self):
        sanctum = Sanctum(make_server_soc())
        attacker = AttackerProcess(sanctum, core_id=1)
        attacker.alloc_pages(40)
        self._assert_matches_scan(attacker, counts=(16,))
        # Enclave colours stay unreachable through the index too.
        assert any(not attacker.eviction_addresses_for_set(s, 16)
                   for s in range(sanctum.soc.hierarchy.l2.num_sets))

    def test_matches_scan_under_randomised_index(self):
        arch = NullArchitecture(make_mobile_soc())
        attacker = AttackerProcess(arch, core_id=1)
        attacker.alloc_pages(6)
        llc = arch.soc.hierarchy.l2
        self._assert_matches_scan(attacker, counts=(8,))
        llc.index_fn = RandomizedIndexing(key=0xD00D,
                                          line_size=llc.line_size)
        self._assert_matches_scan(attacker, counts=(8,))
        llc.index_fn.rekey(0xBEEF)  # re-keying remaps every line
        self._assert_matches_scan(attacker, counts=(8,))
        llc.index_fn = None  # back to plain indexing
        self._assert_matches_scan(attacker, counts=(8,))

    @pytest.mark.parametrize("line_size,num_sets,pages", [
        (64, 512, [0x8010_0000, 0x8020_0000, 0x8010_8000]),  # aligned
        (64, 1024, [0x8000_3000 + i * 0x1000 for i in range(40)]),
        (64, 8, [0x8000_0000, 0x8000_5000]),  # fewer sets than lines per page
        (64, 96, [0x8000_0000, 0x8000_1000, 0x8000_7000]),  # 96 sets
        (64, 512, [0x8000_0040, 0x8000_1000]),  # page not page-aligned
        (32, 256, [0x8000_2000, 0x8000_0000, 0x8000_2000]),  # repeated
        (8192, 16, [0x8000_0000, 0x8000_1000]),  # line wider than page
    ])
    def test_modulo_index_is_the_scan(self, line_size, num_sets, pages):
        """The arithmetic eviction set is the ``set_index`` scan's
        prefix for every set and count, whatever the geometry and
        alignment."""
        from repro.cache.cache import Cache
        set_index = Cache("llc", num_sets, 1, line_size).set_index
        for target in range(-1, num_sets + 1):
            for count in (0, 1, 3, 16, 10_000):
                assert _modulo_set_lines(
                    pages, line_size, num_sets, target, count) == \
                    _scan_set_lines(pages, line_size, set_index, target,
                                    count)

    def test_modulo_index_matches_scan_on_random_geometries(self):
        """Random page lists (unaligned, repeated, out of order) and
        power-of-two and odd geometries, against the brute-force scan."""
        from repro.cache.cache import Cache
        rng = random.Random(0xE51)
        for _ in range(60):
            line_size = 1 << (3 + rng.randint(0, 10))  # 8 B .. 8 KiB
            num_sets = rng.randint(1, 1200)
            pages = [0x8000_0000 + rng.randint(0, 1 << 20) * 8
                     for _ in range(rng.randint(0, 12))]
            if pages and rng.randint(0, 1):
                pages.append(pages[0])
            set_index = Cache("llc", num_sets, 1, line_size).set_index
            for _ in range(12):
                target = rng.randint(0, num_sets - 1)
                count = rng.randint(0, 40)
                assert _modulo_set_lines(
                    pages, line_size, num_sets, target, count) == \
                    _scan_set_lines(pages, line_size, set_index, target,
                                    count), (line_size, num_sets, pages)

    def test_custom_index_fn_is_rebuilt_on_every_call(self):
        arch = NullArchitecture(make_mobile_soc())
        attacker = AttackerProcess(arch, core_id=1)
        attacker.alloc_pages(3)
        llc = arch.soc.hierarchy.l2
        calls = []

        def index_fn(addr):
            calls.append(addr)
            return addr // llc.line_size

        llc.index_fn = index_fn
        lines = 3 * 4096 // llc.line_size
        first = attacker._lines_by_set()
        assert attacker._lines_by_set() == first
        assert len(calls) == 2 * lines  # scanned twice, never cached
