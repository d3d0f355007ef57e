"""LRU replacement policy."""

import pytest

from repro.cache.policies import LRUPolicy

ALL = [True] * 4
ALL_OCCUPIED = [True] * 4


class TestLRU:
    def test_prefers_free_way(self):
        policy = LRUPolicy(4)
        assert policy.victim([True, False, True, True], ALL) == 1

    def test_evicts_least_recent(self):
        policy = LRUPolicy(4)
        for way in range(4):
            policy.on_fill(way)
        policy.on_hit(0)
        assert policy.victim(ALL_OCCUPIED, ALL) == 1

    def test_respects_allowed_mask(self):
        policy = LRUPolicy(4)
        for way in range(4):
            policy.on_fill(way)
        assert policy.victim(ALL_OCCUPIED, [False, False, True, True]) == 2

    def test_no_allowed_way_raises(self):
        policy = LRUPolicy(4)
        with pytest.raises(ValueError):
            policy.victim(ALL_OCCUPIED, [False] * 4)
