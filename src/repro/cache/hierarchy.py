"""Multi-core cache hierarchy: private L1s over a shared, inclusive LLC.

The shared last-level cache is the paper's central microarchitectural
battleground: SGX and TrustZone leave it shared and unpartitioned
(attackable), Sanctum partitions it by page colour, Sanctuary excludes
enclave memory from it entirely.  All three configurations are expressible
on this one model:

* way partitioning / page colouring — install a partition or allocate
  coloured frames; the LLC is physically indexed so colouring works as in
  real hardware;
* exclusion — pass ``cacheable=False`` (derived from the memory region);
* flush-on-context-switch — :meth:`flush_core`.

The LLC is *inclusive*: evicting an LLC line back-invalidates it from all
L1s.  Inclusivity is what makes cross-core Prime+Probe work on real Intel
parts, and it does here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import Cache
from repro.memory.phys import WORD_SIZE


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and latency parameters.

    Defaults model a small high-end part: 16 KiB 4-way L1s per core and a
    256 KiB 8-way shared LLC, 64-byte lines.  The latency staircase
    (4 / 20 / 140 cycles) gives attackers an unambiguous hit/miss signal,
    as on real hardware.
    """

    num_cores: int = 2
    line_size: int = 64
    l1_sets: int = 64
    l1_ways: int = 4
    l2_sets: int = 512
    l2_ways: int = 8
    l1_latency: int = 4
    l2_latency: int = 16
    dram_latency: int = 120


@dataclass(frozen=True)
class MemoryAccess:
    """Where an access was served and what it cost/displaced."""

    level: str  # "l1" | "l2" | "dram" | "uncached"
    latency: int
    l1_evicted: int | None = None
    l2_evicted: int | None = None

    @property
    def hit(self) -> bool:
        return self.level in ("l1", "l2")


class CacheHierarchy:
    """Per-core L1 caches over one shared inclusive LLC."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.l1s = [
            Cache(f"l1-core{i}", cfg.l1_sets, cfg.l1_ways, cfg.line_size,
                  hit_latency=cfg.l1_latency)
            for i in range(cfg.num_cores)
        ]
        self.l2 = Cache("llc", cfg.l2_sets, cfg.l2_ways, cfg.line_size,
                        hit_latency=cfg.l2_latency)
        #: Physical ranges served by core-private caches only (Sanctuary's
        #: "exclude enclave memory from the shared caches").
        self._llc_excluded: list[tuple[int, int]] = []
        # Hot-path allocation avoidance: MemoryAccess is frozen, so the
        # no-eviction outcomes (the overwhelming majority once caches warm
        # up) are shared singletons; only accesses that displace a line
        # allocate a fresh record carrying the victim addresses.
        self._lat_l1_l2 = cfg.l1_latency + cfg.l2_latency
        self._lat_l1_dram = cfg.l1_latency + cfg.dram_latency
        self._lat_full = cfg.l1_latency + cfg.l2_latency + cfg.dram_latency
        self._uncached_result = MemoryAccess("uncached", cfg.dram_latency)
        self._l1_hit_result = MemoryAccess("l1", cfg.l1_latency)
        self._l2_hit_result = MemoryAccess("l2", self._lat_l1_l2)
        self._dram_result = MemoryAccess("dram", self._lat_full)
        self._dram_excluded_result = MemoryAccess("dram", self._lat_l1_dram)

    def exclude_from_llc(self, base: int, size: int) -> None:
        """Mark ``[base, base+size)`` as never cached in the shared LLC."""
        self._llc_excluded.append((base, base + size))

    def _llc_allowed(self, paddr: int) -> bool:
        return all(not (base <= paddr < end)
                   for base, end in self._llc_excluded)

    # -- main access path ------------------------------------------------------

    def access(self, core: int, paddr: int, is_write: bool = False,
               domain: str | None = None,
               cacheable: bool = True) -> MemoryAccess:
        """Serve one physical access for ``core``; returns level + latency."""
        if not cacheable:
            return self._uncached_result

        r1 = self.l1s[core].access(paddr, is_write, domain)
        if r1.hit:
            return self._l1_hit_result
        l1_evicted = r1.evicted

        if self._llc_excluded and not self._llc_allowed(paddr):
            # LLC-excluded range: L1 miss goes straight to DRAM and the
            # shared cache never learns the address.
            if l1_evicted is None:
                return self._dram_excluded_result
            return MemoryAccess("dram", self._lat_l1_dram,
                                l1_evicted=l1_evicted)

        r2 = self.l2.access(paddr, is_write, domain)
        if r2.hit:
            if l1_evicted is None:
                return self._l2_hit_result
            return MemoryAccess("l2", self._lat_l1_l2, l1_evicted=l1_evicted)

        # LLC miss -> DRAM fill.  Inclusive LLC: its victim must leave
        # every L1 as well.
        l2_evicted = r2.evicted
        if l2_evicted is not None:
            for other in self.l1s:
                other.flush_line(l2_evicted)
        elif l1_evicted is None:
            return self._dram_result
        return MemoryAccess("dram", self._lat_full,
                            l1_evicted=l1_evicted, l2_evicted=l2_evicted)

    def access_words(self, core: int, paddr: int, count: int,
                     is_write: bool = False, domain: str | None = None,
                     cacheable: bool = True, reload: bool = False) -> int:
        """Total latency of ``count`` word accesses at ``paddr``, ``paddr +
        WORD_SIZE``, ...: the outcome of that many :meth:`access` calls,
        or, with ``reload``, of each followed by a read of the same word.

        Each line's first access is one :meth:`access`, which leaves the
        line in ``core``'s L1 (it hit there, or missed and filled it), so
        the line's other accesses are L1 hits."""
        touches = 2 if reload else 1
        if not cacheable:
            return touches * count * self._uncached_result.latency
        l1 = self.l1s[core]
        line_size = self.config.line_size
        total = 0
        done = 0
        while done < count:
            addr = paddr + done * WORD_SIZE
            total += self.access(core, addr, is_write, domain).latency
            in_line = min(count - done,
                          -(-(line_size - addr % line_size) // WORD_SIZE))
            hits = touches * in_line - 1
            if hits:
                l1.hit_again(addr, hits, is_write)
                total += hits * self.config.l1_latency
            done += in_line
        return total

    # -- timing probe (the attacker's measurement primitive) --------------------

    def timed_access(self, core: int, paddr: int,
                     domain: str | None = None) -> int:
        """Latency of a read — what ``rdcycle``-bracketed loads measure."""
        return self.access(core, paddr, is_write=False, domain=domain).latency

    @property
    def hit_threshold(self) -> int:
        """Latency below which an access certainly hit in some cache."""
        cfg = self.config
        return cfg.l1_latency + cfg.l2_latency + cfg.dram_latency // 2

    # -- maintenance operations -------------------------------------------------

    def flush_line(self, paddr: int) -> bool:
        """clflush semantics: evict the line from every level, every core."""
        found = False
        for l1 in self.l1s:
            found |= l1.flush_line(paddr)
        found |= self.l2.flush_line(paddr)
        return found

    def flush_core(self, core: int) -> int:
        """Flush one core's private L1 (enclave context-switch defence)."""
        return self.l1s[core].flush_all()

    def flush_domain(self, domain: str | None) -> int:
        """Flush a domain's lines from every level."""
        count = self.l2.flush_domain(domain)
        for l1 in self.l1s:
            count += l1.flush_domain(domain)
        return count

    def flush_all(self) -> int:
        """Cold-cache reset."""
        count = self.l2.flush_all()
        for l1 in self.l1s:
            count += l1.flush_all()
        return count

    # -- inspection -------------------------------------------------------------

    def present_in_l1(self, core: int, paddr: int) -> bool:
        return self.l1s[core].probe(paddr)

    def present_in_llc(self, paddr: int) -> bool:
        return self.l2.probe(paddr)

    def stats_summary(self) -> dict[str, float]:
        """Aggregate hit rates (used by the performance/energy model)."""
        summary = {"llc_hit_rate": self.l2.stats.hit_rate}
        for i, l1 in enumerate(self.l1s):
            summary[f"l1_core{i}_hit_rate"] = l1.stats.hit_rate
        return summary

    def metrics_into(self, registry) -> None:
        """Export every level's counters into a ``MetricsRegistry``.

        Absolute snapshots are fine here: one hierarchy is exported once,
        at the end of its cell's execution, into a fresh per-cell
        registry; the runner merges registries across cells by addition.
        """
        events = registry.counter(
            "repro_cache_events_total",
            "Cache hits / misses / evictions / flushes per level")
        rates = registry.gauge(
            "repro_cache_hit_rate",
            "Hit fraction per cache level")
        for cache in (*self.l1s, self.l2):
            stats = cache.stats
            for event, count in (("hit", stats.hits),
                                 ("miss", stats.misses),
                                 ("eviction", stats.evictions),
                                 ("flush", stats.flushes)):
                if count:
                    events.inc(count, level=cache.name, event=event)
            rates.set(stats.hit_rate, level=cache.name)
