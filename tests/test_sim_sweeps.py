"""Closed-form set sweeps of the attack kernels' cache twin.

:meth:`repro.attacks.batch._SimHierarchy.sweep` writes the end state of a
Prime+Probe prime or probe of one LLC set directly, instead of walking it
access by access, whenever the list fills the LLC set and the walk would
be uniform: every access misses the sweeping core's L1 and the LLC, and
no line the LLC evicts is still in the sweeping core's L1.  These tests
run random sweeps over random pre-states on small hierarchies and check,
through :func:`repro.lockstep.compare`, that

* the per-access :meth:`~repro.attacks.batch._SimHierarchy.walk` ends
  exactly where the live :class:`~repro.cache.hierarchy.CacheHierarchy`
  does;
* a sweep ends exactly where the walk does, with the same return value;
* the per-sweep closed form is taken exactly when the walk is uniform,
  and a declined closed form changes nothing;
* a repeated sweep of a list over the steady sets its closed sweep left
  takes the steady transition.

Every decline branch fires in the sample: a list shorter than the LLC
set, an L1 hit inside the sweep, an LLC hit, and an evicted line still
in the sweeping core's L1.

Whole Prime+Probe samples (:meth:`~repro.attacks.batch._SimHierarchy.sample`:
a prime of every eviction list, the victim's reads, a probe of every
list) are checked the same way, round after round over random dirty
pre-states and victim reads: the sample against the walk, against the
per-sweep closed form and against the live hierarchy.  The steady
transition is taken exactly when its preconditions hold, and both of
its shapes and every reason to fall back show up.
"""

from __future__ import annotations

import copy
import random
from collections import Counter

import pytest

from repro.attacks.batch import _SimHierarchy, _SimLevel
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.lockstep import compare

DOMAIN = "attacker-proc"


def _level_state(lv) -> dict:
    """One level's replacement-visible state: every allocated set as
    lists, steady ones expanded (on a copy, so the level keeps its
    form), plus the set counters and the stats."""
    lv = copy.deepcopy(lv)
    for idx in list(lv.steady):
        lv.concrete(idx)
    sets = sorted(lv.touched)
    return {"tags": {i: lv.tags[i] for i in sets},
            "lookup": {i: lv.lookup[i] for i in sets},
            "lines": {i: lv.lines[i] for i in sets},
            "last_use": {i: lv.last_use[i] for i in sets},
            "stamps": lv.stamps,
            "stats": (lv.hits, lv.misses, lv.evictions, lv.flushes)}


def _state(sim: _SimHierarchy) -> dict:
    """Every level's replacement-visible state, by cache name."""
    names = [f"l1-core{i}" for i in range(len(sim.l1s))] + ["llc"]
    return {name: _level_state(lv)
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
    # Mostly a full eviction list, the only length the closed form takes.
    n = cfg.l2_ways if rng.random() < 0.7 else rng.randint(1, cfg.l2_ways)
    tags = tuple(rng.sample(candidates, n))
    return hierarchy, core, tags


def _walk_shape(sim: _SimHierarchy, core: int, tags, before: dict) -> str:
    """How the walk of ``tags`` just run on ``sim`` went: ``uniform``, or
    the first reason the closed form must decline."""
    l1, l2 = sim.l1s[core], sim.l2
    if len(tags) != l2.ways or len(tags) < l1.ways:
        return "short-list"
    hits1, _, _, flushes1 = before[f"l1-core{core}"]["stats"]
    hits2 = before["llc"]["stats"][0]
    if l1.hits > hits1:
        return "l1-hit"
    if l2.hits > hits2:
        return "llc-hit"
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


class _PerSweep(_SimHierarchy):
    """A twin without the steady transition: every sweep takes the
    per-sweep closed form or the walk."""

    __slots__ = ()

    def _sweep_steady(self, core, tags, domain):
        return False


def _check(rng: random.Random, shapes: Counter) -> None:
    """Sweep a list a few times, with random interference and the odd
    other list or core in between, on a twin without the steady
    transition, one with it, a walking one and the live hierarchy."""
    hierarchy, main_core, main_tags = _scenario(rng)
    cfg = hierarchy.config
    swept, walked = _PerSweep(hierarchy), _SimHierarchy(hierarchy)
    fast = _SimHierarchy(hierarchy)
    s = main_tags[0] % cfg.l2_sets
    pool = [s + k * cfg.l2_sets for k in range(cfg.l2_ways + 3)]
    last = None  # (core, tags) of the previous sweep, if it left both sets
    # steady
    for round_ in range(5):
        if round_ and rng.random() < 0.4:
            _interfere(rng, hierarchy, (swept, fast, walked), pool)
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
        fast_closed, steady = fast.sweeps_closed, fast.sweeps_steady

        walk_out = walked.walk(core, tags, DOMAIN, threshold)
        for tag in tags:
            hierarchy.access(core, tag * 64, domain=DOMAIN)
        compare("live", _state(walked), _state(_SimHierarchy(hierarchy)))

        sweep_out = swept.sweep(core, tags, DOMAIN, threshold)
        compare("soc", _state(swept), _state(walked))
        compare("sweep return", sweep_out, walk_out)
        fast_out = fast.sweep(core, tags, DOMAIN, threshold)
        compare("steady soc", _state(fast), _state(walked))
        compare("steady return", fast_out, walk_out)

        shape = _walk_shape(walked, core, tags, before)
        took_closed = swept.sweeps_closed > closed
        assert took_closed == (shape == "uniform"), (shape, round_, tags)
        if not took_closed:
            # A declined closed form leaves the state for the walk as it
            # was.
            assert probed._sweep_closed(core, tags, DOMAIN) is False
            compare("declined", _state(probed), before)
        shapes[shape] += 1
        if last is not None and last[0] == core and last[1] is tags:
            # Right after a closed sweep of the same list, longer than
            # the L1 set, both its sets are steady records of the list:
            # the sweep is a steady transition on them.
            assert fast.sweeps_steady > steady, (shape, tags)
            shapes["repeat"] += 1
        last = ((core, tags) if fast.sweeps_closed > fast_closed
                and len(tags) > cfg.l1_ways else None)


@pytest.mark.parametrize("seed", range(4))
def test_random_sweeps_match_the_walk(seed):
    rng = random.Random(0x5EE9 + seed)
    shapes: Counter = Counter()
    for _ in range(60):
        _check(rng, shapes)
    # Each branch, taken or declined, shows up in every batch, and so
    # do repeats over the steady sets the previous sweep of the list
    # left.
    assert set(shapes) == {"uniform", "short-list", "l1-hit", "llc-hit",
                           "evicted-line-in-l1", "repeat"}, shapes


def test_closed_form_covers_prime_and_probe_cascade():
    """The two shapes Prime+Probe produces once a cold prime has run in
    the per-sweep closed form: a prime that hits the LLC everywhere, and
    a probe whose first miss cascades through the set after the victim
    displaced one line.  Both are steady transitions."""
    cfg = HierarchyConfig(num_cores=2, l1_sets=4, l1_ways=2, l2_sets=8,
                          l2_ways=4)
    hierarchy = CacheHierarchy(cfg)
    tags = tuple(3 + k * cfg.l2_sets for k in range(cfg.l2_ways))
    sim = _SimHierarchy(hierarchy)
    sim.sweep(1, tags, DOMAIN)  # cold fill: every access misses
    sim.sweep(1, tags, DOMAIN)  # prime: all LLC hits
    sim.walk(0, (3 + 9 * cfg.l2_sets,), "victim")  # victim displaces one
    reference = _SimHierarchy(hierarchy)
    reference.walk(1, tags, DOMAIN)
    reference.walk(1, tags, DOMAIN)
    reference.walk(0, (3 + 9 * cfg.l2_sets,), "victim")
    displaced = sim.sweep(1, tags, DOMAIN, hierarchy.hit_threshold)
    assert displaced == reference.walk(1, tags, DOMAIN,
                                       hierarchy.hit_threshold) == 4
    assert (sim.sweeps_closed, sim.sweeps_steady, sim.sweeps_walked) == \
        (3, 2, 0)
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
    """Back-invalidations empty the sweeping core's steady L1 set
    without an access to it: each counts one L1 flush and the first
    expands the set, so the next sweep refills its free ways in index
    order instead of rotating the steady record."""
    hierarchy = _one_set(l1_ways=2, l2_ways=3)
    sims = (_SimHierarchy(hierarchy), _SimHierarchy(hierarchy))
    tags = (0, 1, 2)
    _sweep_both(sims, 0, tags)  # L1 way 0 holds line 2, way 1 line 1
    for other in (10, 11, 12):  # evict all three from the LLC
        for sim in sims:
            sim.walk(1, (other,), "victim")
    assert _state(sims[0])["l1-core0"]["lookup"][0] == {}
    assert not sims[0].l1s[0].steady
    assert sims[0].l1s[0].flushes == sims[1].l1s[0].flushes == 2
    _sweep_both(sims, 0, tags)  # refills way 0 first, not way 1


def test_remembered_sets_are_per_core():
    """Steady records are per core: core 1's L1 set, filled by walks,
    reaches the same counter as core 0's steady one with another LRU
    order, and its sweep does not take core 0's record."""
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


# -- whole Prime+Probe samples ----------------------------------------------

VICTIM_BASE = 1 << 12  # victim line tags: a multiple of every set count


def _sample_scenario(rng: random.Random):
    """A small nested hierarchy with a random, partly dirty history over
    a few eviction lists and the victim lines that share their sets:
    ``(hierarchy, core, vcore, lists, victim_tags, excluded)``."""
    l1_sets = rng.choice([1, 2, 4])
    l1_ways = rng.randint(1, 3)
    cfg = HierarchyConfig(num_cores=rng.randint(2, 3), line_size=64,
                          l1_sets=l1_sets, l1_ways=l1_ways,
                          l2_sets=l1_sets * rng.choice([1, 2, 4]),
                          l2_ways=rng.randint(l1_ways + 1, 5))
    hierarchy = CacheHierarchy(cfg)
    n2 = cfg.l2_sets
    sets = rng.sample(range(n2), rng.randint(1, min(3, n2)))
    lists = []
    for s in sets:
        n = cfg.l2_ways if rng.random() < 0.85 else rng.randint(1,
                                                                cfg.l2_ways)
        lists.append(tuple(s + k * n2 for k in range(n)))
    victim_tags = [VICTIM_BASE + s + k * n2 for s in sets for k in range(3)]
    # Sanctuary: the victim's lines bypass the LLC.
    excluded = rng.random() < 0.2
    if excluded:
        hierarchy.exclude_from_llc(VICTIM_BASE * 64, 64 * 64 * n2)
    pool = [tag for tags in lists for tag in tags] + victim_tags
    for _ in range(rng.randrange(40)):
        roll = rng.random()
        if roll < 0.8:
            hierarchy.access(rng.randrange(cfg.num_cores),
                             rng.choice(pool) * 64,
                             is_write=rng.random() < 0.3,
                             domain=rng.choice([DOMAIN, "victim"]))
        elif roll < 0.95:
            hierarchy.flush_line(rng.choice(pool) * 64)
        else:
            hierarchy.flush_core(rng.randrange(cfg.num_cores))
    core = rng.randrange(cfg.num_cores)
    vcore = core if rng.random() < 0.1 else rng.choice(
        [c for c in range(cfg.num_cores) if c != core])
    return hierarchy, core, vcore, lists, victim_tags, excluded


class _Lanes:
    """One sample, replayed on the live hierarchy, on a walking twin, on
    a twin that sweeps list by list in the per-sweep closed form, and on
    a twin that replays it with :meth:`_SimHierarchy.sample`."""

    def __init__(self, hierarchy) -> None:
        self.live = hierarchy
        self.walked = _SimHierarchy(hierarchy)
        self.swept = _PerSweep(hierarchy)
        self.fast = _SimHierarchy(hierarchy)

    def sims(self):
        return self.walked, self.swept, self.fast

    def read(self, core: int, tag: int, domain) -> None:
        """One stray read, on all four."""
        self.live.access(core, tag * 64, domain=domain)
        for sim in self.sims():
            sim.walk(core, (tag,), domain,
                     excluded=not self.live._llc_allowed(tag * 64))

    def flush(self, tag: int) -> None:
        self.live.flush_line(tag * 64)
        for sim in self.sims():
            sim.flush_line(tag)

    def flush_core(self, core: int) -> None:
        self.live.flush_core(core)
        for sim in self.sims():
            sim.flush_core(core)

    def sample(self, core, lists, domain, vcore, row, flush_l1,
               clflush) -> list:
        live, threshold = self.live, self.live.hit_threshold

        def victim(sim):
            if flush_l1:
                sim.flush_core(vcore)
            for tag in row:
                sim.walk(vcore, (tag,), "victim",
                         excluded=not live._llc_allowed(tag * 64))
            if flush_l1:
                sim.flush_core(vcore)
            for tag in clflush:
                sim.flush_line(tag)

        # The live hierarchy, the scalar attack's way.
        for tags in lists:
            for tag in tags:
                live.access(core, tag * 64, domain=domain)
        if flush_l1:
            live.flush_core(vcore)
        for tag in row:
            live.access(vcore, tag * 64, domain="victim")
        if flush_l1:
            live.flush_core(vcore)
        for tag in clflush:
            live.flush_line(tag * 64)
        slow = [sum(live.access(core, tag * 64, domain=domain).latency
                    > threshold for tag in tags) for tags in lists]
        # Access by access.
        walked = self.walked
        for tags in lists:
            walked.walk(core, tags, domain)
        victim(walked)
        compare("walk", [walked.walk(core, tags, domain, threshold)
                         for tags in lists], slow)
        # Sweep by sweep, without the steady transition.
        swept = self.swept
        for tags in lists:
            swept.sweep(core, tags, domain)
        victim(swept)
        compare("sweeps", [swept.sweep(core, tags, domain, threshold)
                           for tags in lists], slow)
        # The whole sample.
        compare("sample", self.fast.sample(core, lists, domain, threshold,
                                           lambda: victim(self.fast)), slow)
        compare("live", _state(walked), _state(_SimHierarchy(live)))
        compare("sweeps", _state(swept), _state(walked))
        compare("sample", _state(self.fast), _state(walked))
        return slow


def _steady_shape(sim: _SimHierarchy, core: int, tags, domain) -> str:
    """Which way the next steady transition of ``tags`` goes, by its
    preconditions alone."""
    l1, l2 = sim.l1s[core], sim.l2
    s = tags[0] % l2.num_sets
    rec1 = l1.steady.get(s % l1.num_sets)
    rec2 = l2.steady.get(s)
    if len(tags) < l2.ways or len(tags) <= l1.ways:
        return "short-list"
    if rec1 is None or rec1.src is not tags:
        return "l1-not-steady"
    if rec1.domain != domain:
        return "other-domain"
    if rec2 is None or rec2.src is not tags:
        return "llc-not-steady"
    return "hits" if rec2.foreign is None else "cascade"


@pytest.fixture
def shapes(monkeypatch) -> Counter:
    """Counts every steady transition (by :func:`_steady_shape`, checked
    against what was taken) and every read that reached a steady LLC
    set."""
    counts: Counter = Counter()
    steady, miss = _SimHierarchy._sweep_steady, _SimLevel.miss_steady

    def spy_steady(sim, core, tags, domain):
        shape = _steady_shape(sim, core, tags, domain)
        latency = steady(sim, core, tags, domain)
        assert (latency is not False) == (shape in ("hits", "cascade")), \
            shape
        counts[shape] += 1
        return latency

    def spy_miss(lv, idx, tag, domain, l1s):
        rec = lv.steady.get(idx)
        served = miss(lv, idx, tag, domain, l1s)
        if rec is None:
            counts["read:concrete"] += 1
        elif served:
            counts["read:absorbed"] += 1
        elif rec.foreign is not None:
            counts["read:second-foreign"] += 1
        else:
            counts["read:list-line"] += 1
        return served

    monkeypatch.setattr(_SimHierarchy, "_sweep_steady", spy_steady)
    monkeypatch.setattr(_SimLevel, "miss_steady", spy_miss)
    return counts


def _run_samples(rng: random.Random, shapes: Counter) -> None:
    hierarchy, core, vcore, lists, victim_tags, excluded = \
        _sample_scenario(rng)
    lanes = _Lanes(hierarchy)
    list_tags = [tag for tags in lists for tag in tags]
    for round_ in range(6):
        if round_ and rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.5:  # a list line touched by another core
                lanes.read(rng.randrange(len(hierarchy.l1s)),
                           rng.choice(list_tags), "victim")
            elif roll < 0.8:
                lanes.flush(rng.choice(list_tags + victim_tags))
            else:
                lanes.flush_core(rng.choice([core, vcore]))
        row = rng.choices(victim_tags, k=rng.randrange(4))
        if rng.random() < 0.1:
            row.append(rng.choice(list_tags))
        domain = DOMAIN if rng.random() < 0.9 else "attacker-2"
        before = lanes.fast.samples_closed
        clflush = rng.sample(row, 1) if row and rng.random() < 0.1 else []
        lanes.sample(core, lists, domain, vcore, tuple(row),
                     flush_l1=excluded and rng.random() < 0.8,
                     clflush=clflush)
        if lanes.fast.samples_closed > before:
            shapes["sample-closed"] += 1


@pytest.mark.parametrize("seed", range(4))
def test_random_samples_match_the_walk_and_the_live_caches(seed, shapes):
    rng = random.Random(0x5A3B1E + seed)
    for _ in range(80):
        _run_samples(rng, shapes)
    # Both steady shapes, every reason to fall back to the per-sweep
    # closed form, and every way a read meets a steady LLC set.
    assert set(shapes) == {
        "sample-closed", "hits", "cascade", "short-list", "l1-not-steady",
        "other-domain", "llc-not-steady",
        "read:concrete", "read:absorbed", "read:second-foreign",
        "read:list-line"}, shapes
