"""Branch Target Buffer.

Two properties make this structure a channel:

* **Virtual-address indexing, no domain tag** (the commodity-CPU default
  the paper cites via [21]): entries are matched purely on branch PC bits,
  so an attacker that places a branch at an aliasing virtual address in
  *its own* process mistrains the victim's prediction — Spectre v2.
* **Observability**: entry presence/absence is a timing signal (predicted
  vs mispredicted branches), exploited by branch shadowing [28] to infer
  which way an enclave's branch went.

Setting ``tag_with_asid=True`` models the mitigated design (per-context
tagging, as in DAWG-style isolation) and makes cross-address-space
mistraining fail — one of the toggle points the transient-attack bench
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class _BTBEntry:
    partial_tag: int
    asid: int
    target: int
    stamp: int


class BranchTargetBuffer:
    """Set-associative BTB keyed on low PC bits with a *partial* tag.

    The partial tag (``tag_bits`` wide) is what makes aliasing possible:
    two different branch addresses with equal index and partial tag are
    indistinguishable, exactly the collision Spectre v2 engineering relies
    on.  :meth:`aliasing_pc` constructs such a collision for a given
    victim branch.
    """

    def __init__(self, num_sets: int = 64, ways: int = 4, tag_bits: int = 8,
                 tag_with_asid: bool = False) -> None:
        if num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        self.num_sets = num_sets
        self.ways = ways
        self.tag_bits = tag_bits
        self.tag_with_asid = tag_with_asid
        self._sets: list[list[_BTBEntry | None]] = [
            [None] * ways for _ in range(num_sets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.num_sets - 1)

    def _partial_tag(self, pc: int) -> int:
        index_bits = self.num_sets.bit_length() - 1
        return (pc >> (2 + index_bits)) & ((1 << self.tag_bits) - 1)

    def _matches(self, entry: _BTBEntry, pc: int, asid: int) -> bool:
        if entry.partial_tag != self._partial_tag(pc):
            return False
        return not self.tag_with_asid or entry.asid == asid

    def predict(self, pc: int, asid: int = 0) -> int | None:
        """Predicted target for a branch at ``pc``, or None (no entry)."""
        entries = self._sets[self._index(pc)]
        for entry in entries:
            if entry is not None and self._matches(entry, pc, asid):
                self._stamp += 1
                entry.stamp = self._stamp
                self.hits += 1
                return entry.target
        self.misses += 1
        return None

    def update(self, pc: int, target: int, asid: int = 0) -> None:
        """Record that the branch at ``pc`` went to ``target``."""
        entries = self._sets[self._index(pc)]
        self._stamp += 1
        for way, entry in enumerate(entries):
            if entry is not None and self._matches(entry, pc, asid):
                entries[way] = _BTBEntry(self._partial_tag(pc), asid, target,
                                         self._stamp)
                return
        for way, entry in enumerate(entries):
            if entry is None:
                entries[way] = _BTBEntry(self._partial_tag(pc), asid, target,
                                         self._stamp)
                return
        victim = min(range(self.ways), key=lambda w: entries[w].stamp)
        entries[victim] = _BTBEntry(self._partial_tag(pc), asid, target,
                                    self._stamp)

    def flush(self) -> int:
        """Drop all entries; returns the count (context-switch mitigation)."""
        count = 0
        for entries in self._sets:
            for way, entry in enumerate(entries):
                if entry is not None:
                    entries[way] = None
                    count += 1
        return count

    def contains(self, pc: int, asid: int = 0) -> bool:
        """Presence probe without updating recency."""
        return any(entry is not None and self._matches(entry, pc, asid)
                   for entry in self._sets[self._index(pc)])

    def aliasing_pc(self, victim_pc: int, attacker_base: int) -> int:
        """An attacker-space PC that collides with ``victim_pc`` in the BTB.

        Returns the smallest PC >= ``attacker_base`` with the same set index
        and partial tag — the address where Spectre v2 places its training
        branch.
        """
        index_bits = self.num_sets.bit_length() - 1
        period = 1 << (2 + index_bits + self.tag_bits)
        low = victim_pc % period
        candidate = (attacker_base - low + period - 1) // period * period + low
        return candidate
