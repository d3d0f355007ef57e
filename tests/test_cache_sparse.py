"""Sparse caches: a set is allocated on first touch and reads the same.

A :class:`Cache` creates a set's lines, tags and policy only when an
access first reaches it.  The differential here drives a sparse
cache and one with every set allocated up front through the same random
operations, with and without a way partition and a custom index
function, and requires every observable to
agree: access results, flush counts, probes, line domains, stats,
resident lines (in order) and each set's tags, lines and replacement
state.  Only accesses may allocate a set.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks import batch
from repro.attacks.batch_diff import CacheScenario
from repro.cache.cache import Cache
from repro.cache.partition import WayPartition
from repro.cache.policies import LRUPolicy
from repro.cache.randmap import RandomizedIndexing
from repro.cpu.soc import make_server_soc

POLICIES = [LRUPolicy]
DOMAINS = [None, "a", "b"]
LINE = 64

_ops = st.lists(st.one_of(
    st.tuples(st.just("access"), st.integers(0, 63), st.booleans(),
              st.sampled_from(DOMAINS), st.booleans()),
    st.tuples(st.just("flush_line"), st.integers(0, 63)),
    st.tuples(st.just("flush_all")),
    st.tuples(st.just("flush_domain"), st.sampled_from(DOMAINS)),
    st.tuples(st.just("probe"), st.integers(0, 63)),
    st.tuples(st.just("domain_of_line"), st.integers(0, 63)),
), max_size=80)


def _policy_state(policy) -> dict:
    return {name: list(value) if isinstance(value, list) else value
            for name, value in vars(policy).items()}


def _snapshot(state) -> tuple:
    lines, tags, policy = state
    return (tuple(tags),
            tuple(None if ln is None
                  else (ln.tag, ln.addr, ln.domain, ln.dirty)
                  for ln in lines),
            type(policy), _policy_state(policy))


def _build(num_sets: int, ways: int, partitioned: bool,
          indexed: bool) -> Cache:
    cache = Cache("c", num_sets, ways, LINE,
                  index_fn=RandomizedIndexing(key=7) if indexed else None)
    if partitioned:
        cache.partition = WayPartition(ways)
        cache.partition.assign("a", 1)
        cache.partition.assign("b", (1 << ways) - 1 - (ways > 1))
    return cache


def _apply(cache: Cache, op: tuple):
    name, *args = op
    if name in ("access", "flush_line", "probe", "domain_of_line"):
        args[0] *= LINE
    return getattr(cache, name)(*args)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.__name__)
@pytest.mark.parametrize("partitioned", [False, True],
                         ids=["shared", "partitioned"])
@pytest.mark.parametrize("indexed", [False, True],
                         ids=["modulo", "index-fn"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(num_sets=st.sampled_from([1, 2, 4, 8]),
       ways=st.sampled_from([1, 2, 4]), ops=_ops)
def test_sparse_cache_matches_eager(policy, partitioned, indexed,
                                    num_sets, ways, ops):
    sparse = _build(num_sets, ways, partitioned, indexed)
    eager = _build(num_sets, ways, partitioned, indexed)
    for idx in range(num_sets):
        eager.materialise(idx)
    for op in ops:
        touched = sparse.touched_sets()
        assert _apply(sparse, op) == _apply(eager, op), op
        if op[0] != "access":
            assert sparse.touched_sets() == touched, op
    assert sparse.stats == eager.stats
    assert sparse.resident_lines() == eager.resident_lines()
    for idx in range(num_sets):
        assert _snapshot(sparse.set_state(idx)) \
            == _snapshot(eager.set_state(idx)), idx
        assert sparse.set_occupancy(idx) == eager.set_occupancy(idx)
        assert type(sparse.set_state(idx).policy) is policy
    fresh = _build(num_sets, ways, partitioned, indexed)
    assert _snapshot(sparse.pristine) == _snapshot(fresh.pristine)


def test_read_only_queries_allocate_nothing():
    cache = Cache("c", 16, 2)
    assert not cache.probe(0x1000)
    assert cache.domain_of_line(0x1000) is None
    assert cache.set_occupancy(3) == 0
    assert not cache.flush_line(0x1000)
    assert cache.flush_all() == cache.flush_domain("a") == 0
    assert cache.resident_lines() == []
    assert cache.touched_sets() == []
    assert cache.set_state(5) is cache.pristine


def test_server_soc_allocates_no_set():
    hierarchy = make_server_soc().hierarchy
    for cache in (*hierarchy.l1s, hierarchy.l2):
        assert cache.touched_sets() == [], cache.name


def test_one_access_allocates_one_set_per_level_on_its_path():
    hierarchy = make_server_soc().hierarchy
    paddr = 0x8000_1240
    hierarchy.access(1, paddr)
    l1, llc = hierarchy.l1s[1], hierarchy.l2
    assert l1.touched_sets() == [l1.set_index(paddr)]
    assert llc.touched_sets() == [llc.set_index(paddr)]
    for core, other in enumerate(hierarchy.l1s):
        if core != 1:
            assert other.touched_sets() == [], other.name
    hierarchy.access(1, paddr)  # an L1 hit reaches no further set
    assert llc.touched_sets() == [llc.set_index(paddr)]


def _touched(soc) -> list[list[int]]:
    hierarchy = soc.hierarchy
    return [cache.touched_sets() for cache in (*hierarchy.l1s, hierarchy.l2)]


@pytest.mark.parametrize("attack, host", [("prime+probe", "null"),
                                          ("flush+reload", "null"),
                                          ("evict+time", "sanctuary")])
def test_batched_attack_allocates_the_sets_the_scalar_one_touches(
        attack, host, monkeypatch):
    """The attack twin snapshots only the sets the live caches hold and
    allocates only those the run touches, so at its writeback it holds
    exactly the sets the scalar run touched, and the writeback leaves
    every other set unallocated: both lanes allocate the same sets."""
    twin = []
    writeback = batch._SimHierarchy.writeback

    def spy(sim):
        levels = (*sim.l1s, sim.l2)
        twin.append([sorted(lv.touched) for lv in levels])
        for lv in levels:
            assert [i for i, tags in enumerate(lv.tags) if tags is not None] \
                == sorted(lv.touched)
        writeback(sim)

    monkeypatch.setattr(batch._SimHierarchy, "writeback", spy)
    scenario = CacheScenario(attack=attack, host=host, samples_per_value=1)
    fast, _, fast_soc = scenario.build()
    assert batch.try_run_batched(fast) is not None
    scalar, _, scalar_soc = scenario.build()
    scalar._measure()
    assert twin == [_touched(scalar_soc)]
    assert _touched(fast_soc) == _touched(scalar_soc)
