"""Struct-of-arrays mirror of :class:`~repro.cache.hierarchy.CacheHierarchy`.

The ensemble execution engine (:mod:`repro.cpu.ensemble`) advances N
independent ``(seed, config)`` SoC instances in lockstep.  Every scalar
hierarchy keeps its state in per-set Python lists (``SetState.tags``,
``LRUPolicy._last_use``), which is exactly the wrong layout for advancing
many instances at once — so this module *adopts* each instance's cache
state into padded numpy arrays indexed ``[instance, set, way]``, serves
vectorized accesses for whole groups of instances per step, and
*scatters* the arrays back into the original ``Cache``/``LRUPolicy``
objects so post-run state is indistinguishable from a scalar run.

Heterogeneous geometries (the matrix's platforms differ in sets, ways
and latencies) share one array set: arrays are padded to the largest
geometry in the ensemble, with sentinel tags that never match and never
look free, and sentinel LRU stamps that never win a victim election.

The bit-identity contract is the same one the fast core dispatch and the
batched power kernels are held to: after :meth:`scatter`, every counter
(hits/misses/evictions/flushes), every resident line, every dirty bit
and every per-set LRU stamp equals what the scalar path would have
produced.  Anything the arrays cannot represent exactly — way
partitions, custom index functions, non-LRU policies, LLC exclusions,
domain-tagged lines, warm L1s on non-running cores — is reported as
ineligible by :func:`adoption_blocker`, and the owning instance peels
off to the retained scalar path instead.
"""

from __future__ import annotations

import numpy as np

from repro.cache.cache import Cache, _Line
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.policies import LRUPolicy

#: Tag sentinel for an invalid (fillable) way.
_FREE = -1
#: Tag sentinel for a padding way that neither matches nor fills.
_PAD = -2
#: LRU stamp for padding ways: loses every victim election.
_PAD_STAMP = 1 << 62


def _cache_blocker(cache: Cache) -> str | None:
    """Why ``cache`` cannot be adopted into arrays (``None`` = adoptable)."""
    if type(cache) is not Cache:
        return f"cache subclass {type(cache).__name__}"
    if cache.partition is not None:
        return "way partition installed"
    if cache.index_fn is not None:
        return "custom index function"
    if cache.policy_types() != {LRUPolicy}:
        return "non-LRU replacement policy"
    if cache.num_sets & (cache.num_sets - 1):
        return "non-power-of-two set count"
    for idx in cache.touched_sets():
        for line in cache.set_state(idx).lines:
            if line is not None and line.domain is not None:
                return "domain-tagged resident line"
    return None


def adoption_blocker(hierarchy: CacheHierarchy, core_id: int) -> str | None:
    """Why ``hierarchy`` cannot be adopted for ``core_id`` (``None`` = ok).

    Non-running cores' L1s must be empty: the vectorized path models only
    the running core's private cache, which is exact *because* an empty
    L1 can never hit, fill, or lose a line to inclusive back-invalidation
    while its core is idle.
    """
    if type(hierarchy) is not CacheHierarchy:
        return f"hierarchy subclass {type(hierarchy).__name__}"
    if hierarchy._llc_excluded:
        return "LLC exclusion ranges configured"
    if not (0 <= core_id < len(hierarchy.l1s)):
        return f"no L1 for core {core_id}"
    for idx, l1 in enumerate(hierarchy.l1s):
        if idx == core_id:
            continue
        if l1.resident_lines():
            return f"non-running core {idx} has a warm L1"
    for cache in (hierarchy.l1s[core_id], hierarchy.l2):
        reason = _cache_blocker(cache)
        if reason is not None:
            return f"{cache.name}: {reason}"
    return None


class _LevelArrays:
    """One cache level across all managed instances, padded SoA form."""

    def __init__(self, n: int, max_sets: int, max_ways: int) -> None:
        self.tags = np.full((n, max_sets, max_ways), _PAD, dtype=np.int64)
        self.lu = np.full((n, max_sets, max_ways), _PAD_STAMP,
                          dtype=np.int64)
        self.stamp = np.zeros((n, max_sets), dtype=np.int64)
        self.dirty = np.zeros((n, max_sets, max_ways), dtype=bool)
        self.sets = np.ones(n, dtype=np.int64)
        #: ``sets - 1``: scalar ``Cache`` set counts are powers of two
        #: (validated in :meth:`adopt`), so ``tag & set_mask`` is the
        #: scalar ``tag % num_sets`` index function.
        self.set_mask = np.zeros(n, dtype=np.int64)
        self.ways = np.ones(n, dtype=np.int64)
        self.hits = np.zeros(n, dtype=np.int64)
        self.misses = np.zeros(n, dtype=np.int64)
        self.evictions = np.zeros(n, dtype=np.int64)
        self.flushes = np.zeros(n, dtype=np.int64)

    def adopt(self, i: int, cache: Cache) -> None:
        s, w = cache.num_sets, cache.ways
        self.sets[i], self.ways[i] = s, w
        self.set_mask[i] = s - 1
        stats = cache.stats
        # Lines enter only through access misses and replacement stamps
        # only move on hits/fills, so a cache that has never hit or
        # missed is empty with virgin policy state — skip the per-line
        # walk (the common adopt-at-construction case).
        cold = (stats.hits == 0 and stats.misses == 0
                and all(cache.set_state(idx).policy._stamp == 0
                        for idx in cache.touched_sets()))
        self.tags[i, :s, :w] = _FREE
        self.lu[i, :s, :w] = 0
        self.stamp[i, :s] = 0
        self.dirty[i, :s, :w] = False
        if not cold:
            states = cache.set_states()
            self.tags[i, :s, :w] = [
                [_FREE if t is None else t for t in st.tags]
                for st in states]
            self.lu[i, :s, :w] = [st.policy._last_use for st in states]
            self.stamp[i, :s] = [st.policy._stamp for st in states]
            self.dirty[i, :s, :w] = [
                [line is not None and line.dirty for line in st.lines]
                for st in states]
        self.hits[i] = stats.hits
        self.misses[i] = stats.misses
        self.evictions[i] = stats.evictions
        self.flushes[i] = stats.flushes

    def scatter(self, i: int, cache: Cache, line_size: int) -> None:
        s, w = cache.num_sets, cache.ways
        # One bulk tolist per array: native Python ints/bools, exactly
        # what the scalar objects store, without per-element numpy boxing.
        tags = self.tags[i, :s, :w].tolist()
        dirty = self.dirty[i, :s, :w].tolist()
        lu = self.lu[i, :s, :w].tolist()
        stamp = self.stamp[i, :s].tolist()
        touched = set(cache.touched_sets())
        for idx in range(s):
            # A zero stamp means no access reached the set (fills and hits
            # bump it), so an untouched set stays unallocated.
            if not stamp[idx] and idx not in touched:
                continue
            lines, live_tags, policy = cache.materialise(idx)
            trow = tags[idx]
            live_tags[:] = [None if t == _FREE else t for t in trow]
            lines[:] = [
                None if t == _FREE else _Line(
                    tag=t, addr=t * line_size, domain=None, dirty=d)
                for t, d in zip(trow, dirty[idx])]
            policy._stamp = stamp[idx]
            policy._last_use = lu[idx]
        stats = cache.stats
        stats.hits = int(self.hits[i])
        stats.misses = int(self.misses[i])
        stats.evictions = int(self.evictions[i])
        stats.flushes = int(self.flushes[i])

    def lookup(self, rows: np.ndarray, tag: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row set index, hit mask, and hit way for ``tag``."""
        idx = tag & self.set_mask[rows]
        eq = self.tags[rows, idx] == tag[:, None]
        return idx, eq.any(axis=1), np.argmax(eq, axis=1)

    def touch(self, rows: np.ndarray, idx: np.ndarray, way: np.ndarray,
              is_write: bool) -> None:
        """``on_hit`` semantics: bump the per-set stamp, refresh the way."""
        self.stamp[rows, idx] += 1
        self.lu[rows, idx, way] = self.stamp[rows, idx]
        if is_write:
            self.dirty[rows, idx, way] = True

    def fill(self, rows: np.ndarray, idx: np.ndarray, tag: np.ndarray,
             is_write: bool) -> np.ndarray:
        """Fill ``tag`` per scalar victim selection; returns the evicted
        tag per row (``_FREE`` where the chosen way was empty).

        Matches ``Cache.access`` exactly: first invalid way when one
        exists (``tags.index(None)``), else the LRU way with the first
        minimal stamp (``LRUPolicy.victim_full``); the fill then counts
        as a use (``on_fill`` == ``on_hit``).
        """
        set_tags = self.tags[rows, idx]
        free = set_tags == _FREE
        way = np.where(free.any(axis=1), np.argmax(free, axis=1),
                       np.argmin(self.lu[rows, idx], axis=1))
        old = set_tags[np.arange(len(rows)), way]
        self.evictions[rows[old >= 0]] += 1
        self.tags[rows, idx, way] = tag
        self.dirty[rows, idx, way] = is_write
        self.touch(rows, idx, way, is_write=False)
        return old

    def invalidate(self, rows: np.ndarray, tag: np.ndarray) -> np.ndarray:
        """``flush_line`` semantics; returns the mask of rows that held
        the line (replacement state is deliberately left untouched,
        exactly as the scalar flush does)."""
        idx, present, way = self.lookup(rows, tag)
        hr = present
        self.tags[rows[hr], idx[hr], way[hr]] = _FREE
        self.flushes[rows[hr]] += 1
        return present


class HierarchyEnsemble:
    """N cache hierarchies advanced by vectorized per-group operations.

    ``hierarchies[i]`` and ``core_ids[i]`` describe instance ``i``;
    instances whose hierarchy reports an :func:`adoption_blocker` are
    left unmanaged (``managed[i]`` False) — the core ensemble peels them
    to the scalar path and never routes their accesses here.
    """

    def __init__(self, hierarchies: list[CacheHierarchy],
                 core_ids: list[int]) -> None:
        if len(hierarchies) != len(core_ids):
            raise ValueError("one core_id per hierarchy required")
        n = len(hierarchies)
        self._hierarchies = list(hierarchies)
        self._core_ids = list(core_ids)
        self.managed = np.zeros(n, dtype=bool)
        self.blockers: list[str | None] = [None] * n

        adoptable = []
        for i, (h, core_id) in enumerate(zip(hierarchies, core_ids)):
            reason = adoption_blocker(h, core_id)
            self.blockers[i] = reason
            if reason is None:
                adoptable.append(i)
                self.managed[i] = True

        def dim(fn, default=1):
            vals = [fn(self._hierarchies[i]) for i in adoptable]
            return max(vals) if vals else default

        self.l1 = _LevelArrays(
            n, dim(lambda h: h.l1s[0].num_sets),
            dim(lambda h: max(c.ways for c in h.l1s)))
        self.l2 = _LevelArrays(n, dim(lambda h: h.l2.num_sets),
                               dim(lambda h: h.l2.ways))
        self.line_shift = np.full(n, 6, dtype=np.int64)
        self.lat_l1 = np.zeros(n, dtype=np.int64)
        self.lat_l1_l2 = np.zeros(n, dtype=np.int64)
        self.lat_full = np.zeros(n, dtype=np.int64)
        self.lat_l2 = np.zeros(n, dtype=np.int64)

        for i in adoptable:
            h = self._hierarchies[i]
            cfg = h.config
            if cfg.line_size & (cfg.line_size - 1):
                raise ValueError("line_size must be a power of two")
            self.line_shift[i] = cfg.line_size.bit_length() - 1
            self.lat_l1[i] = cfg.l1_latency
            self.lat_l1_l2[i] = cfg.l1_latency + cfg.l2_latency
            self.lat_full[i] = (cfg.l1_latency + cfg.l2_latency
                                + cfg.dram_latency)
            self.lat_l2[i] = cfg.l2_latency
            self.l1.adopt(i, h.l1s[self._core_ids[i]])
            self.l2.adopt(i, h.l2)

    # -- vectorized operations ------------------------------------------------

    def access(self, rows: np.ndarray, addrs: np.ndarray,
               is_write: bool) -> np.ndarray:
        """Serve one cacheable access per row; returns latencies.

        Mirrors ``CacheHierarchy.access`` step for step: L1 lookup/fill,
        then LLC lookup/fill for L1 misses, then inclusive
        back-invalidation of the running core's L1 when the LLC evicts
        (every other L1 is empty by the adoption contract, so the scalar
        loop over ``self.l1s`` degenerates to exactly this).
        """
        tag = addrs >> self.line_shift[rows]
        latency = np.empty(len(rows), dtype=np.int64)

        idx, hit, way = self.l1.lookup(rows, tag)
        hr = rows[hit]
        self.l1.hits[hr] += 1
        self.l1.touch(hr, idx[hit], way[hit], is_write)
        latency[hit] = self.lat_l1[hr]

        miss = ~hit
        mrows, mtag, midx = rows[miss], tag[miss], idx[miss]
        if mrows.size == 0:
            return latency
        self.l1.misses[mrows] += 1
        self.l1.fill(mrows, midx, mtag, is_write)

        idx2, hit2, way2 = self.l2.lookup(mrows, mtag)
        h2 = mrows[hit2]
        self.l2.hits[h2] += 1
        self.l2.touch(h2, idx2[hit2], way2[hit2], is_write)

        miss2 = ~hit2
        drows = mrows[miss2]
        if drows.size:
            self.l2.misses[drows] += 1
            evicted = self.l2.fill(drows, idx2[miss2], mtag[miss2],
                                   is_write)
            er = evicted >= 0
            if er.any():
                # Inclusive LLC: its victim leaves the (only warm) L1 too.
                brows, btag = drows[er], evicted[er]
                bidx = btag & self.l1.set_mask[brows]
                beq = self.l1.tags[brows, bidx] == btag[:, None]
                bhit = beq.any(axis=1)
                bway = np.argmax(beq, axis=1)
                self.l1.tags[brows[bhit], bidx[bhit], bway[bhit]] = _FREE
                self.l1.flushes[brows[bhit]] += 1

        lat_miss = np.where(hit2, self.lat_l1_l2[mrows],
                            self.lat_full[mrows])
        latency[miss] = lat_miss
        return latency

    def flush_line(self, rows: np.ndarray, addrs: np.ndarray) -> None:
        """clflush per row: drop the line from the running L1 and the
        LLC (idle cores' L1s are empty, so the scalar sweep over them is
        a no-op)."""
        tag = addrs >> self.line_shift[rows]
        self.l1.invalidate(rows, tag)
        self.l2.invalidate(rows, tag)

    # -- scatter back ---------------------------------------------------------

    def scatter_instance(self, i: int) -> None:
        """Write instance ``i``'s arrays back into its scalar objects."""
        if not self.managed[i]:
            return
        h = self._hierarchies[i]
        line_size = h.config.line_size
        self.l1.scatter(i, h.l1s[self._core_ids[i]], line_size)
        self.l2.scatter(i, h.l2, line_size)

    def scatter(self) -> None:
        for i in range(len(self._hierarchies)):
            self.scatter_instance(i)
