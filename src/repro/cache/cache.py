"""Physically-indexed, physically-tagged set-associative cache."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cache.policies import LRUPolicy, ReplacementPolicy

#: Signature for custom set-index functions (randomised mapping).
IndexFn = Callable[[int], int]


@dataclass
class CacheStats:
    """Running counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    set_index: int
    latency: int
    evicted: int | None = None  # line base address displaced by this fill
    filled: bool = True


@dataclass
class _Line:
    tag: int
    addr: int  # line base address (for eviction reporting / inclusion)
    domain: str | None = None
    dirty: bool = False


class Cache:
    """One cache level.

    Addresses are *physical*; the MMU translates before the hierarchy is
    consulted.  ``domain`` labels the security domain of each access
    (process, enclave id, world); a :class:`~repro.cache.partition.WayPartition`
    installed via :attr:`partition` limits which ways a domain may fill —
    the paper's "cache partitioning" defence [39].  ``index_fn`` overrides
    the set-index computation — the "randomised mapping" defence [40].
    """

    def __init__(self, name: str, num_sets: int, ways: int,
                 line_size: int = 64, hit_latency: int = 4,
                 policy_factory: Callable[[int], ReplacementPolicy] = LRUPolicy,
                 index_fn: IndexFn | None = None) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        if line_size & (line_size - 1):
            raise ValueError("line_size must be a power of two")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.index_fn = index_fn
        self.partition = None  # WayPartition | None
        self.stats = CacheStats()
        self._sets: list[list[_Line | None]] = [
            [None] * ways for _ in range(num_sets)]
        #: Tag array mirroring ``_sets`` (``None`` = invalid way).  The hot
        #: lookup scans this flat int list (``in``, then ``list.index`` on
        #: a hit) instead of walking ``_Line`` objects.
        self._tags: list[list[int | None]] = [
            [None] * ways for _ in range(num_sets)]
        self._policies = [policy_factory(ways) for _ in range(num_sets)]
        # Hot-path allocation avoidance: per-set-index AccessResult
        # singletons (results are frozen, so sharing is safe even when a
        # caller holds several across calls), plus reusable all-True /
        # all-occupied vectors for the unpartitioned victim query.
        self._hit_results: list[AccessResult | None] = [None] * num_sets
        self._fill_results: list[AccessResult | None] = [None] * num_sets
        self._nofill_results: list[AccessResult | None] = [None] * num_sets
        self._allowed_all = [True] * ways
        self._occupied_full = [True] * ways
        self._victim_full = [getattr(p, "victim_full", None)
                             for p in self._policies]

    # -- geometry ------------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """Base address of the line containing ``addr``."""
        return addr & ~(self.line_size - 1)

    def set_index(self, addr: int) -> int:
        """Set index for ``addr`` (honouring a custom index function)."""
        line = addr // self.line_size
        if self.index_fn is not None:
            return self.index_fn(addr) % self.num_sets
        return line % self.num_sets

    def _tag(self, addr: int) -> int:
        return addr // self.line_size

    def _allowed_ways(self, domain: str | None) -> list[bool]:
        if self.partition is None:
            return [True] * self.ways
        return self.partition.allowed_ways(domain, self.ways)

    # -- operations ------------------------------------------------------------

    def access(self, addr: int, is_write: bool = False,
               domain: str | None = None, fill: bool = True) -> AccessResult:
        """Look up ``addr``; on miss, optionally fill (evicting a victim)."""
        tag = addr // self.line_size
        if self.index_fn is None:
            idx = tag % self.num_sets
        else:
            idx = self.index_fn(addr) % self.num_sets
        tags = self._tags[idx]
        policy = self._policies[idx]

        if tag in tags:
            way = tags.index(tag)
            self.stats.hits += 1
            policy.on_hit(way)
            if is_write:
                self._sets[idx][way].dirty = True
            result = self._hit_results[idx]
            if result is None:
                result = self._hit_results[idx] = AccessResult(
                    True, idx, self.hit_latency)
            return result

        self.stats.misses += 1
        if not fill:
            result = self._nofill_results[idx]
            if result is None:
                result = self._nofill_results[idx] = AccessResult(
                    False, idx, self.hit_latency, filled=False)
            return result

        ways = self._sets[idx]
        if self.partition is None:
            # Unpartitioned fast path: every policy prefers the first free
            # way (victim() returns _first_free when one exists), and with
            # all ways allowed that is exactly ``tags.index(None)``.
            if None in tags:
                way = tags.index(None)
            else:
                vf = self._victim_full[idx]
                way = vf() if vf is not None else policy.victim(
                    self._occupied_full, self._allowed_all)
        else:
            allowed = self.partition.allowed_ways(domain, self.ways)
            occupied = [t is not None for t in tags]
            way = policy.victim(occupied, allowed)
        old = ways[way]
        tags[way] = tag
        if old is None:
            ways[way] = _Line(tag=tag, addr=addr & ~(self.line_size - 1),
                              domain=domain, dirty=is_write)
            policy.on_fill(way)
            result = self._fill_results[idx]
            if result is None:
                result = self._fill_results[idx] = AccessResult(
                    False, idx, self.hit_latency)
            return result
        # Evicting fill: recycle the line record (never exposed outside
        # this class) instead of allocating a fresh one.
        evicted = old.addr
        old.tag = tag
        old.addr = addr & ~(self.line_size - 1)
        old.domain = domain
        old.dirty = is_write
        policy.on_fill(way)
        self.stats.evictions += 1
        return AccessResult(False, idx, self.hit_latency, evicted=evicted)

    def probe(self, addr: int) -> bool:
        """Presence check without touching replacement state."""
        return self._tag(addr) in self._tags[self.set_index(addr)]

    def flush_line(self, addr: int) -> bool:
        """Invalidate the line containing ``addr``; True if it was present."""
        idx = self.set_index(addr)
        tags = self._tags[idx]
        tag = self._tag(addr)
        if tag not in tags:
            return False
        way = tags.index(tag)
        self._sets[idx][way] = None
        tags[way] = None
        self.stats.flushes += 1
        return True

    def flush_all(self) -> int:
        """Invalidate everything; returns the number of lines dropped."""
        count = 0
        for ways, tags in zip(self._sets, self._tags):
            for way, line in enumerate(ways):
                if line is not None:
                    ways[way] = None
                    tags[way] = None
                    count += 1
        self.stats.flushes += count
        return count

    def flush_domain(self, domain: str | None) -> int:
        """Invalidate every line filled by ``domain`` (enclave exit flush)."""
        count = 0
        for ways, tags in zip(self._sets, self._tags):
            for way, line in enumerate(ways):
                if line is not None and line.domain == domain:
                    ways[way] = None
                    tags[way] = None
                    count += 1
        self.stats.flushes += count
        return count

    # -- inspection ------------------------------------------------------------

    def resident_lines(self) -> list[int]:
        """Base addresses of all valid lines (diagnostics/tests)."""
        return [line.addr for ways in self._sets for line in ways
                if line is not None]

    def set_occupancy(self, idx: int) -> int:
        """Number of valid lines in set ``idx``."""
        return sum(1 for line in self._sets[idx] if line is not None)

    def domain_of_line(self, addr: int) -> str | None:
        """Filling domain of the resident line containing ``addr``."""
        idx = self.set_index(addr)
        tag = self._tag(addr)
        for line in self._sets[idx]:
            if line is not None and line.tag == tag:
                return line.domain
        return None
