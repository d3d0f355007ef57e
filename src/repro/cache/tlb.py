"""Translation Lookaside Buffer.

Modelled as a set-associative structure over virtual page numbers so that
TLB *contention* is real: two pages whose VPNs share a set compete for
ways, which is the signal the TLB side-channel attack (Gras et al.,
paper ref [15]) measures.  The TLB may be shared between hardware threads
(``shared=True``) to model SMT co-residency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.paging import PAGE_SHIFT, PageFlags


@dataclass
class _TLBEntry:
    asid: int
    vpn: int
    paddr: int
    flags: PageFlags
    stamp: int


class TLB:
    """Set-associative TLB with LRU replacement.

    ``lookup``/``insert`` match the duck-typed interface
    :class:`repro.memory.mmu.MMU` expects.  Entries with
    :data:`PageFlags.GLOBAL` match any ASID and survive ASID-scoped
    flushes.
    """

    def __init__(self, num_sets: int = 16, ways: int = 4,
                 hit_latency: int = 1, miss_penalty: int = 20) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self.hit_latency = hit_latency
        self.miss_penalty = miss_penalty
        self._sets: list[list[_TLBEntry | None]] = [
            [None] * ways for _ in range(num_sets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _set_index(self, va_page: int) -> int:
        return (va_page >> PAGE_SHIFT) % self.num_sets

    def lookup(self, asid: int, va_page: int) -> tuple[int, PageFlags] | None:
        """Return (physical page address, flags) on hit, else None."""
        vpn = va_page >> PAGE_SHIFT
        entries = self._sets[self._set_index(va_page)]
        for entry in entries:
            if entry is None or entry.vpn != vpn:
                continue
            if entry.asid != asid and not entry.flags & PageFlags.GLOBAL:
                continue
            self._stamp += 1
            entry.stamp = self._stamp
            self.hits += 1
            return entry.paddr, entry.flags
        self.misses += 1
        return None

    def insert(self, asid: int, va_page: int, paddr: int,
               flags: PageFlags) -> int | None:
        """Fill an entry; returns the evicted VPN's page address, if any."""
        vpn = va_page >> PAGE_SHIFT
        idx = self._set_index(va_page)
        entries = self._sets[idx]
        self._stamp += 1
        # Refill over an existing entry for the same page, if present.
        for way, entry in enumerate(entries):
            if entry is not None and entry.vpn == vpn and entry.asid == asid:
                entries[way] = _TLBEntry(asid, vpn, paddr, flags, self._stamp)
                return None
        for way, entry in enumerate(entries):
            if entry is None:
                entries[way] = _TLBEntry(asid, vpn, paddr, flags, self._stamp)
                return None
        victim_way = min(range(self.ways), key=lambda w: entries[w].stamp)
        evicted = entries[victim_way].vpn << PAGE_SHIFT
        entries[victim_way] = _TLBEntry(asid, vpn, paddr, flags, self._stamp)
        return evicted

    def flush(self, asid: int | None = None) -> int:
        """Drop entries (all, or one ASID's non-global); returns count."""
        count = 0
        for entries in self._sets:
            for way, entry in enumerate(entries):
                if entry is None:
                    continue
                if asid is not None and (
                        entry.asid != asid or entry.flags & PageFlags.GLOBAL):
                    continue
                entries[way] = None
                count += 1
        return count

    def peek(self, asid: int, va_page: int) -> _TLBEntry | None:
        """The entry :meth:`lookup` would hit, without touching any state."""
        vpn = va_page >> PAGE_SHIFT
        for entry in self._sets[self._set_index(va_page)]:
            if entry is None or entry.vpn != vpn:
                continue
            if entry.asid == asid or entry.flags & PageFlags.GLOBAL:
                return entry
        return None

    def hit_again(self, entry: _TLBEntry, count: int) -> None:
        """Record ``count`` more lookups that hit ``entry`` (as returned by
        :meth:`peek`): the stamp and hit counter advance as that many
        :meth:`lookup` calls advance them."""
        self._stamp += count
        entry.stamp = self._stamp
        self.hits += count

    def access_latency(self, hit: bool) -> int:
        """Cycle cost the core charges for a translation."""
        return self.hit_latency if hit else self.miss_penalty
