"""Closed-form set sweeps of the attack kernels' cache twin.

:meth:`repro.attacks.batch._SimHierarchy.sweep` writes the end state of a
Prime+Probe prime or probe of one LLC set directly, instead of walking it
access by access, whenever the walk would be uniform: every access misses
the sweeping core's L1, the LLC serves all of them or none of them, and
no line the LLC evicts is still in the sweeping core's L1.  These tests
run random sweeps over random pre-states on small hierarchies and check,
through :func:`repro.lockstep.compare`, that

* the per-access :meth:`~repro.attacks.batch._SimHierarchy.walk` ends
  exactly where the live :class:`~repro.cache.hierarchy.CacheHierarchy`
  does;
* a sweep ends exactly where the walk does, with the same return value;
* the closed form is taken exactly when the walk is uniform, and a
  declined closed form changes nothing.

Every decline branch fires in the sample: an L1 hit inside the sweep, a
partly resident LLC, and an evicted line still in the sweeping core's L1.
"""

from __future__ import annotations

import copy
import random
from collections import Counter

import pytest

from repro.attacks.batch import _SimHierarchy
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.lockstep import compare

DOMAIN = "attacker-proc"


def _state(sim: _SimHierarchy) -> dict:
    """Every level's replacement-visible state, by cache name."""
    names = [f"l1-core{i}" for i in range(len(sim.l1s))] + ["llc"]
    return {name: {"tags": lv.tags, "lookup": lv.lookup, "lines": lv.lines,
                   "stamps": lv.stamps, "last_use": lv.last_use,
                   "stats": (lv.hits, lv.misses, lv.evictions, lv.flushes)}
            for name, lv in zip(names, (*sim.l1s, sim.l2))}


def _tie_stamps(cache, idx: int, rng: random.Random) -> None:
    """Give two occupied ways of set ``idx`` the same last-use stamp."""
    _, tags, policy = cache.materialise(idx)
    used = [w for w, t in enumerate(tags) if t is not None]
    if len(used) >= 2:
        a, b = rng.sample(used, 2)
        lu = policy._last_use
        lu[b] = lu[a]


def _scenario(rng: random.Random):
    """A small hierarchy with a random access/flush history, and one
    sweep over it: ``(hierarchy, core, tags)``."""
    l1_sets = rng.choice([1, 2, 4])
    cfg = HierarchyConfig(num_cores=rng.randint(2, 4), line_size=64,
                          l1_sets=l1_sets, l1_ways=rng.randint(1, 4),
                          l2_sets=l1_sets * rng.choice([1, 2, 4]),
                          l2_ways=rng.randint(2, 6))
    hierarchy = CacheHierarchy(cfg)
    s = rng.randrange(cfg.l2_sets)
    # Lines of the swept LLC set, plus neighbours sharing its L1 set.
    pool = [s + k * cfg.l2_sets for k in range(cfg.l2_ways + 3)]
    pool += [rng.randrange(s % l1_sets, 64 * cfg.l2_sets, l1_sets)
             for _ in range(4)]
    for _ in range(rng.randrange(60)):
        core = rng.randrange(cfg.num_cores)
        roll = rng.random()
        if roll < 0.8:
            domain = DOMAIN if rng.random() < 0.5 else "victim"
            hierarchy.access(core, rng.choice(pool) * 64, domain=domain)
        elif roll < 0.95:
            hierarchy.flush_line(rng.choice(pool) * 64)
        else:
            hierarchy.flush_core(core)
    core = rng.randrange(cfg.num_cores)
    if rng.random() < 0.3:
        _tie_stamps(hierarchy.l1s[core], s % l1_sets, rng)
    if rng.random() < 0.3:
        _tie_stamps(hierarchy.l2, s, rng)
    candidates = [s + k * cfg.l2_sets for k in range(cfg.l2_ways + 3)]
    tags = tuple(rng.sample(candidates, rng.randint(1, cfg.l2_ways)))
    return hierarchy, core, tags


def _walk_shape(sim: _SimHierarchy, core: int, before: dict) -> str:
    """How the walk just run on ``sim`` went: ``uniform``, or the first
    reason the closed form must decline."""
    l1, l2 = sim.l1s[core], sim.l2
    hits1, _, _, flushes1 = before[f"l1-core{core}"]["stats"]
    hits2, misses2, _, _ = before["llc"]["stats"]
    if l1.hits > hits1:
        return "l1-hit"
    if l2.hits > hits2 and l2.misses > misses2:
        return "llc-partly-resident"
    if l1.flushes > flushes1:
        return "evicted-line-in-l1"
    return "uniform"


def _interfere(rng: random.Random, hierarchy, sims, pool) -> None:
    """One random access or flush, on the live hierarchy and the sims."""
    core = rng.randrange(len(hierarchy.l1s))
    tag = rng.choice(pool)
    if rng.random() < 0.7:
        hierarchy.access(core, tag * 64, domain="victim")
        for sim in sims:
            sim.walk(core, (tag,), "victim")
    else:
        hierarchy.flush_line(tag * 64)
        for sim in sims:
            sim.flush_line(tag)


def _check(rng: random.Random, shapes: Counter) -> None:
    """Sweep a list a few times, with random interference and the odd
    other list or core in between, on a sweeping and a walking
    simulator and the live hierarchy."""
    hierarchy, main_core, main_tags = _scenario(rng)
    cfg = hierarchy.config
    swept, walked = _SimHierarchy(hierarchy), _SimHierarchy(hierarchy)
    s = main_tags[0] % cfg.l2_sets
    pool = [s + k * cfg.l2_sets for k in range(cfg.l2_ways + 3)]
    last = None  # (core, tags) of the previous sweep, if it closed
    for round_ in range(5):
        if round_ and rng.random() < 0.4:
            _interfere(rng, hierarchy, (swept, walked), pool)
            last = None
        core, tags = main_core, main_tags
        if rng.random() < 0.15:
            core = rng.randrange(cfg.num_cores)
        if rng.random() < 0.15:
            tags = tuple(rng.sample(pool, len(main_tags)))
        threshold = rng.choice([None, hierarchy.hit_threshold])
        before = copy.deepcopy(_state(walked))
        probed = copy.deepcopy(swept)
        closed = swept.sweeps_closed

        walk_out = walked.walk(core, tags, DOMAIN, threshold)
        for tag in tags:
            hierarchy.access(core, tag * 64, domain=DOMAIN)
        compare("live", _state(walked), _state(_SimHierarchy(hierarchy)))

        sweep_out = swept.sweep(core, tags, DOMAIN, threshold)
        compare("soc", _state(swept), _state(walked))
        compare("sweep return", sweep_out, walk_out)

        shape = _walk_shape(walked, core, before)
        took_closed = swept.sweeps_closed > closed
        assert took_closed == (shape == "uniform"), (shape, round_, tags)
        if not took_closed:
            # A declined closed form leaves the state for the walk as it
            # was.
            assert probed._sweep_closed(core, tags, DOMAIN) is False
            compare("declined", _state(probed), before)
        shapes[shape] += 1
        if last == (core, tags):
            # Right after a closed sweep of the same, longer-than-L1
            # list, nothing can hit: the sweep runs over the sets it
            # left, from what it remembered of them.
            assert took_closed, (shape, tags)
            shapes["repeat"] += 1
        last = ((core, tags) if took_closed and len(tags) > cfg.l1_ways
                else None)


@pytest.mark.parametrize("seed", range(4))
def test_random_sweeps_match_the_walk(seed):
    rng = random.Random(0x5EE9 + seed)
    shapes: Counter = Counter()
    for _ in range(60):
        _check(rng, shapes)
    # Each branch, taken or declined, shows up in every batch, and so
    # do repeats over the sets the previous sweep of the list left.
    assert set(shapes) == {"uniform", "l1-hit", "llc-partly-resident",
                           "evicted-line-in-l1", "repeat"}, shapes


def test_closed_form_covers_prime_and_probe_cascade():
    """The two shapes Prime+Probe produces: a prime that hits the LLC
    everywhere, and a probe whose first miss cascades through the set
    after the victim displaced one line."""
    cfg = HierarchyConfig(num_cores=2, l1_sets=4, l1_ways=2, l2_sets=8,
                          l2_ways=4)
    hierarchy = CacheHierarchy(cfg)
    tags = tuple(3 + k * cfg.l2_sets for k in range(cfg.l2_ways))
    sim = _SimHierarchy(hierarchy)
    sim.walk(1, tags, DOMAIN)  # cold fill
    sim.sweep(1, tags, DOMAIN)  # prime: all LLC hits
    sim.walk(0, (3 + 9 * cfg.l2_sets,), "victim")  # victim displaces one
    reference = _SimHierarchy(hierarchy)
    reference.walk(1, tags, DOMAIN)
    reference.walk(1, tags, DOMAIN)
    reference.walk(0, (3 + 9 * cfg.l2_sets,), "victim")
    displaced = sim.sweep(1, tags, DOMAIN, hierarchy.hit_threshold)
    assert displaced == reference.walk(1, tags, DOMAIN,
                                       hierarchy.hit_threshold) == 4
    assert (sim.sweeps_closed, sim.sweeps_walked) == (2, 0)
    compare("soc", _state(sim), _state(reference))


def _one_set(l1_ways: int, l2_ways: int) -> CacheHierarchy:
    return CacheHierarchy(HierarchyConfig(num_cores=2, l1_sets=1,
                                          l1_ways=l1_ways, l2_sets=1,
                                          l2_ways=l2_ways))


def _sweep_both(sims, core: int, tags) -> None:
    swept, walked = sims
    swept.sweep(core, tags, DOMAIN)
    walked.walk(core, tags, DOMAIN)
    compare("soc", _state(swept), _state(walked))


def test_a_remembered_l1_set_counts_its_flushes():
    """Back-invalidations empty the sweeping core's L1 set without an
    access to it: its stamp stands still, so only the L1's flush count
    shows the set is no longer what the last sweep left."""
    hierarchy = _one_set(l1_ways=2, l2_ways=3)
    sims = (_SimHierarchy(hierarchy), _SimHierarchy(hierarchy))
    tags = (0, 1, 2)
    _sweep_both(sims, 0, tags)  # L1 way 0 holds line 2, way 1 line 1
    for other in (10, 11, 12):  # evict all three from the LLC
        for sim in sims:
            sim.walk(1, (other,), "victim")
    assert sims[0].l1s[0].lookup[0] == {}
    _sweep_both(sims, 0, tags)  # refills way 0 first, not way 1


def test_remembered_sets_are_per_core():
    """Two cores' L1 sets may agree on stamp and flush count while
    their LRU orders differ."""
    hierarchy = _one_set(l1_ways=2, l2_ways=6)
    sims = (_SimHierarchy(hierarchy), _SimHierarchy(hierarchy))
    tags = (0, 1, 2)
    _sweep_both(sims, 0, tags)  # core 0: stamp 3, way 1 the LRU
    for other in (10, 11, 11):  # core 1: stamp 3, way 0 the LRU
        for sim in sims:
            sim.walk(1, (other,), "victim")
    _sweep_both(sims, 1, tags)


def test_a_stamp_ahead_of_its_set_counter_walks():
    """Fresh fills are the newest only while no way's stamp exceeds the
    set's counter, which access histories guarantee; a state that breaks
    it is walked."""
    hierarchy = _one_set(l1_ways=2, l2_ways=6)
    tags = (0, 1, 2, 3)
    for tag in (10, 11):
        hierarchy.access(1, tag * 64)
    hierarchy.l1s[1]._policies[0]._last_use[0] = 99  # counter is 2
    sims = (_SimHierarchy(hierarchy), _SimHierarchy(hierarchy))
    _sweep_both(sims, 1, tags)
    assert (sims[0].sweeps_closed, sims[0].sweeps_walked) == (0, 1)


def test_unnested_sets_always_walk():
    # An LLC set count that is no multiple of the L1's spreads one
    # eviction list over several L1 sets: the closed form does not apply.
    hierarchy = CacheHierarchy(HierarchyConfig(num_cores=2, l1_sets=4,
                                               l2_sets=6))
    sim = _SimHierarchy(hierarchy)
    assert not sim.nested
    sim.sweep(0, tuple(1 + k * 6 for k in range(4)), DOMAIN)
    assert (sim.sweeps_closed, sim.sweeps_walked) == (0, 1)
