"""LRU replacement for set-associative caches.

A policy instance manages one cache *set* of ``ways`` slots, identified by
way index.  The cache calls :meth:`LRUPolicy.on_hit`/:meth:`LRUPolicy.on_fill`
to record usage and :meth:`LRUPolicy.victim` to choose an eviction way.
LRU is deterministic, so side-channel experiments are reproducible.
"""

from __future__ import annotations


def _first_free(occupied: list[bool], allowed: list[bool]) -> int | None:
    for way, (occ, ok) in enumerate(zip(occupied, allowed)):
        if ok and not occ:
            return way
    return None


class LRUPolicy:
    """True least-recently-used."""

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self._stamp = 0
        self._last_use = [0] * ways

    def on_hit(self, way: int) -> None:
        self._stamp += 1
        self._last_use[way] = self._stamp

    def on_fill(self, way: int) -> None:
        self.on_hit(way)

    def victim(self, occupied: list[bool], allowed: list[bool]) -> int:
        """Pick a way to evict/fill.

        ``occupied[w]`` tells whether way ``w`` holds a valid line;
        ``allowed[w]`` restricts the choice (way partitioning).  Empty
        allowed ways are preferred over evicting.
        """
        free = _first_free(occupied, allowed)
        if free is not None:
            return free
        # Inline argmin over allowed ways (strict < keeps the first minimum,
        # matching min() over an ascending candidate list).
        last_use = self._last_use
        best = -1
        best_stamp = 0
        for way, ok in enumerate(allowed):
            if ok and (best < 0 or last_use[way] < best_stamp):
                best = way
                best_stamp = last_use[way]
        if best < 0:
            raise ValueError("no way allowed for this domain")
        return best

    def victim_full(self) -> int:
        """Victim for the common case: every way occupied, every way
        allowed.  Picks the same way :meth:`victim` would; the cache
        calls this directly on unpartitioned sets to skip the vector
        bookkeeping."""
        last_use = self._last_use
        return last_use.index(min(last_use))
