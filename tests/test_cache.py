"""Set-associative cache model."""

import pytest

from repro.cache.cache import Cache
from repro.cache.partition import WayPartition


@pytest.fixture
def cache():
    return Cache("test", num_sets=8, ways=2, line_size=64)


class TestGeometry:
    def test_line_addr(self, cache):
        assert cache.line_addr(0x1234) == 0x1200
        assert cache.line_addr(0x1240) == 0x1240

    def test_set_index_wraps(self, cache):
        assert cache.set_index(0x000) == 0
        assert cache.set_index(0x040) == 1
        assert cache.set_index(0x200) == 0  # 8 sets * 64B wrap

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Cache("bad", 0, 2)
        with pytest.raises(ValueError):
            Cache("bad", 8, 2, line_size=48)

    def test_custom_index_fn(self):
        cache = Cache("x", 8, 1, index_fn=lambda addr: addr // 64 + 3)
        assert cache.set_index(0) == 3


class TestHitMiss:
    def test_first_access_misses_then_hits(self, cache):
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit
        assert cache.access(0x1038).hit  # same line

    def test_different_lines_independent(self, cache):
        cache.access(0x1000)
        assert not cache.access(0x1040).hit

    def test_stats(self, cache):
        cache.access(0x1000)
        cache.access(0x1000)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_no_fill_probe_mode(self, cache):
        result = cache.access(0x1000, fill=False)
        assert not result.hit and not result.filled
        assert not cache.access(0x1000).hit  # still cold


class TestEviction:
    def test_lru_eviction_within_set(self, cache):
        # 2 ways: third distinct line in the same set evicts the LRU.
        a, b, c = 0x0000, 0x0200, 0x0400  # all set 0
        cache.access(a)
        cache.access(b)
        result = cache.access(c)
        assert result.evicted == a
        assert cache.probe(b) and cache.probe(c) and not cache.probe(a)

    def test_hit_refreshes_lru(self, cache):
        a, b, c = 0x0000, 0x0200, 0x0400
        cache.access(a)
        cache.access(b)
        cache.access(a)  # refresh a
        result = cache.access(c)
        assert result.evicted == b

    def test_eviction_counted(self, cache):
        for i in range(3):
            cache.access(i * 0x200)
        assert cache.stats.evictions == 1


class TestHitAgain:
    @pytest.mark.parametrize("is_write", [False, True])
    def test_matches_that_many_hitting_accesses(self, is_write):
        def warm():
            cache = Cache("h", num_sets=2, ways=4, line_size=64)
            for addr in (0x000, 0x080, 0x100):  # all set 0; 0x000 is LRU
                cache.access(addr)
            return cache

        def state(cache):
            lines, tags, policy = cache.set_state(0)
            return (list(tags),
                    [(ln.tag, ln.addr, ln.domain, ln.dirty) for ln in lines
                     if ln is not None],
                    policy._stamp, list(policy._last_use), cache.stats)

        batched, stepped = warm(), warm()
        batched.hit_again(0x008, 3, is_write)
        for _ in range(3):
            assert stepped.access(0x008, is_write).hit
        assert state(batched) == state(stepped)


class TestFlush:
    def test_flush_line(self, cache):
        cache.access(0x1000)
        assert cache.flush_line(0x1000)
        assert not cache.probe(0x1000)
        assert not cache.flush_line(0x1000)  # already gone

    def test_flush_all(self, cache):
        cache.access(0x1000)
        cache.access(0x2000)
        assert cache.flush_all() == 2
        assert cache.resident_lines() == []

    def test_flush_domain(self, cache):
        cache.access(0x1000, domain="a")
        cache.access(0x2000, domain="b")
        assert cache.flush_domain("a") == 1
        assert not cache.probe(0x1000)
        assert cache.probe(0x2000)


class TestPartitionedCache:
    def test_domains_cannot_evict_each_other(self):
        cache = Cache("p", num_sets=4, ways=4)
        partition = WayPartition.split_evenly(4, ["victim", "attacker"])
        cache.partition = partition
        # Victim fills its two ways in set 0.
        cache.access(0x000, domain="victim")
        cache.access(0x100, domain="victim")
        # Attacker hammers the same set with many lines.
        for i in range(8):
            cache.access(0x200 + i * 0x100, domain="attacker")
        assert cache.probe(0x000)
        assert cache.probe(0x100)

    def test_domain_of_line(self, cache):
        cache.access(0x1000, domain="enclave-1")
        assert cache.domain_of_line(0x1000) == "enclave-1"
        assert cache.domain_of_line(0x2000) is None

    def test_set_occupancy(self, cache):
        assert cache.set_occupancy(0) == 0
        cache.access(0x0000)
        cache.access(0x0200)
        assert cache.set_occupancy(0) == 2


class TestWriteback:
    def test_write_marks_dirty_and_hits(self, cache):
        cache.access(0x1000, is_write=True)
        assert cache.access(0x1000, is_write=False).hit
