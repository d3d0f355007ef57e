"""Physically-indexed, physically-tagged set-associative cache."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.cache.policies import LRUPolicy

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


class SetState(NamedTuple):
    """One cache set: per-way line records and tags, and its policy."""

    lines: Sequence[_Line | None]
    #: ``None`` = invalid way.  The hot lookup scans this flat int list
    #: (``in``, then ``list.index`` on a hit) instead of walking lines.
    tags: Sequence[int | None]
    policy: LRUPolicy


class Cache:
    """One cache level.

    Addresses are *physical*; the MMU translates before the hierarchy is
    consulted.  ``domain`` labels the security domain of each access
    (process, enclave id, world); a :class:`~repro.cache.partition.WayPartition`
    installed via :attr:`partition` limits which ways a domain may fill —
    the paper's "cache partitioning" defence [39].  ``index_fn`` overrides
    the set-index computation — the "randomised mapping" defence [40].

    Sets are sparse, like :class:`~repro.memory.phys.PhysicalMemory`: a
    set's lines, tags and policy are created by :meth:`materialise` the
    first time an access reaches it.  An untouched set is
    all-invalid with a fresh LRU policy, which is what :attr:`pristine`
    holds, so it reads exactly as an eagerly built one would.
    """

    def __init__(self, name: str, num_sets: int, ways: int,
                 line_size: int = 64, hit_latency: int = 4,
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
        #: The state every untouched set reads as.  Shared by all of them,
        #: so readers must not mutate it (its sequences are tuples).
        self.pristine = SetState((None,) * ways, (None,) * ways,
                                 LRUPolicy(ways))
        # Per-set state, ``None`` until materialise() creates it.  Three
        # parallel lists, not one of SetStates, so the hot path reads a
        # set's tags and policy without unpacking a tuple.
        self._lines: list[list[_Line | None] | None] = [None] * num_sets
        self._tags: list[list[int | None] | None] = [None] * num_sets
        self._policies: list[LRUPolicy | None] = [None] * num_sets
        #: Indices of touched sets, in the order they were first touched.
        self._touched: list[int] = []
        # Hot-path allocation avoidance: per-set-index AccessResult
        # singletons (results are frozen, so sharing is safe even when a
        # caller holds several across calls).
        self._hit_results: list[AccessResult | None] = [None] * num_sets
        self._fill_results: list[AccessResult | None] = [None] * num_sets
        self._nofill_results: list[AccessResult | None] = [None] * num_sets

    # -- set state -------------------------------------------------------------

    def materialise(self, idx: int) -> SetState:
        """The live state of set ``idx``, created pristine on first use.

        The one path that allocates a set: accesses and the fast lanes
        that write state back go through it.  A flush only clears lines,
        so it never needs to allocate."""
        if self._tags[idx] is None:
            ways = self.ways
            self._lines[idx] = [None] * ways
            self._tags[idx] = [None] * ways
            self._policies[idx] = LRUPolicy(ways)
            self._touched.append(idx)
        return SetState(self._lines[idx], self._tags[idx],
                        self._policies[idx])

    def set_state(self, idx: int) -> SetState:
        """State of set ``idx`` for readers: :attr:`pristine` if the set
        was never touched.  Allocates no set; do not mutate the result
        (write through :meth:`materialise`)."""
        tags = self._tags[idx]
        if tags is None:
            return self.pristine
        return SetState(self._lines[idx], tags, self._policies[idx])

    def set_states(self) -> list[SetState]:
        """:meth:`set_state` of every set, in set order."""
        pristine = self.pristine
        return [pristine if tags is None else SetState(lines, tags, policy)
                for lines, tags, policy
                in zip(self._lines, self._tags, self._policies)]

    def touched_sets(self) -> list[int]:
        """Indices of the sets allocated so far, in set order."""
        return sorted(self._touched)

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
        if tags is None:
            tags = self.materialise(idx).tags
        policy = self._policies[idx]

        if tag in tags:
            way = tags.index(tag)
            self.stats.hits += 1
            policy.on_hit(way)
            if is_write:
                self._lines[idx][way].dirty = True
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

        ways = self._lines[idx]
        if self.partition is None:
            # Unpartitioned fast path: LRU prefers the first free way
            # (victim() returns _first_free when one exists), and with
            # all ways allowed that is exactly ``tags.index(None)``.
            if None in tags:
                way = tags.index(None)
            else:
                way = policy.victim_full()
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

    def hit_again(self, addr: int, count: int, is_write: bool = False) -> None:
        """Record ``count`` (at least one) more hits on the resident line
        holding ``addr``: the state that many :meth:`access` calls leave
        when each hits.  Each LRU hit advances the set's stamp by one and
        gives it to the way, so the stamp advances by ``count`` at once,
        as in :meth:`TLB.hit_again <repro.cache.tlb.TLB.hit_again>`."""
        tag = addr // self.line_size
        if self.index_fn is None:
            idx = tag % self.num_sets
        else:
            idx = self.index_fn(addr) % self.num_sets
        way = self._tags[idx].index(tag)
        policy = self._policies[idx]
        policy._stamp += count
        policy._last_use[way] = policy._stamp
        self.stats.hits += count
        if is_write:
            self._lines[idx][way].dirty = True

    def probe(self, addr: int) -> bool:
        """Presence check without touching replacement state."""
        return self._tag(addr) in self.set_state(self.set_index(addr)).tags

    def flush_line(self, addr: int) -> bool:
        """Invalidate the line containing ``addr``; True if it was present."""
        tag = addr // self.line_size
        if self.index_fn is None:
            idx = tag % self.num_sets
        else:
            idx = self.index_fn(addr) % self.num_sets
        tags = self._tags[idx]
        if tags is None or tag not in tags:
            return False
        way = tags.index(tag)
        self._lines[idx][way] = None
        tags[way] = None
        self.stats.flushes += 1
        return True

    def flush_all(self) -> int:
        """Invalidate everything; returns the number of lines dropped."""
        # Untouched sets hold no lines, so both flushes walk only touched
        # ones; sets flush independently, so their order cannot matter.
        count = 0
        for idx in self._touched:
            ways, tags = self._lines[idx], self._tags[idx]
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
        for idx in self._touched:
            ways, tags = self._lines[idx], self._tags[idx]
            for way, line in enumerate(ways):
                if line is not None and line.domain == domain:
                    ways[way] = None
                    tags[way] = None
                    count += 1
        self.stats.flushes += count
        return count

    # -- inspection ------------------------------------------------------------

    def resident_lines(self) -> list[int]:
        """Base addresses of all valid lines, in set order
        (diagnostics/tests)."""
        return [line.addr for idx in self.touched_sets()
                for line in self._lines[idx] if line is not None]

    def set_occupancy(self, idx: int) -> int:
        """Number of valid lines in set ``idx``."""
        return sum(1 for line in self.set_state(idx).lines
                   if line is not None)

    def domain_of_line(self, addr: int) -> str | None:
        """Filling domain of the resident line containing ``addr``."""
        tag = self._tag(addr)
        for line in self.set_state(self.set_index(addr)).lines:
            if line is not None and line.tag == tag:
                return line.domain
        return None
