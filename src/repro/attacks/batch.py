"""Batched attack kernels: vectorized twins of the scalar attack suites.

The scalar cache side-channel attacks (:mod:`repro.attacks.cache_sca`)
step the live :class:`~repro.cache.hierarchy.CacheHierarchy` once per
(sample, line) through several layers of Python (``AttackerProcess`` →
``CacheHierarchy.access`` → ``Cache.access`` → policy objects), and the
Kocher timing attack re-simulates modexp prefix timing sample-by-sample
with two redundant big-int multiplications per modelled one.  These
kernels run the *same* experiments in array form:

* plaintexts are pre-drawn with :meth:`XorShiftRNG.u64_block` (the RNG
  stream and end state are bit-identical to the scalar per-sample
  ``rng.bytes(16)`` calls);
* the victim's full 160-lookup T-table access stream per encryption is
  derived with the numpy round-state recurrence from
  :mod:`repro.crypto.aes_batch` instead of interpreting the cipher;
* cache-state transitions run in a dedicated flat simulator
  (:class:`_SimHierarchy`) that is snapshot-initialized from the live
  caches and writes the final state (lines, tags, LRU stamps, stats
  counters) back so the live hierarchy ends bit-identical to the scalar
  attack.  The victim's lookups and the Flush+Reload and Evict+Time
  reads go through one fused walk with the exact ``Cache.access`` /
  ``LRUPolicy`` / inclusive back-invalidation semantics, access by
  access.  A Prime+Probe prime or probe of one LLC set that refills
  it with every access missing is applied once, in closed form, and
  leaves its sets in a symbolic steady form; from a run's second
  sample on each list's prime and probe is an O(1) transition on that
  form (:meth:`_SimHierarchy.sample`), and any other sweep walks;
* the Kocher measured/lookahead phases share one reduced product per
  modelled multiplication instead of recomputing it for the timing model
  and the value update separately.

The victims the kernels model are the shared-library
:class:`~repro.attacks.cache_sca.SharedAESService` and the enclave
:class:`~repro.arch.base.AESVictim` on the null host, SGX, TrustZone and
Sanctuary.  Per encryption the victim model replays every architectural
effect of the scalar path: the enclave switch (domain, privilege,
TrustZone world and DVFS secure set, SGX's active enclave and MMU
context, Sanctuary's two L1 flushes), the enclave's domain label on
every line it fills, LLC exclusion, translation (on SGX's paged MMU an
encryption whose pages are all TLB-resident advances the TLB's stamps
and hit counter arithmetically, and any other runs the real
``mmu.translate``, so TLB stamps, walks and walker bus reads match) and
the MEE, which integrity-checks and decrypts every word the victim may
read once, as one list (``MemoryEncryptionEngine.open_words``, the
many-word form of its ``on_read``), before the run mutates anything.

**Bit-identical or bust**: every kernel either reproduces the retained
scalar attack exactly — recovered keys, scores, RNG end states, cache
contents, replacement state, per-level stats, bus transaction and
denial counts, TLB and MMU state, MEE counters, core cycle/energy/
context accounting — or refuses to run (``None`` from
:func:`try_run_batched`), in which case the caller falls back to the
scalar oracle.  The gates are type-exact and side-effect-free, and each
refusal names the first gate that failed in an
``attack.batch_declined`` trace event.  Declined, among others:
partitions and index functions; a victim whose lines are only partly
LLC-excluded; bus snoopers, and any controller or transform other than
the MEE, SGX's EPC check and the TZASC (Sanctum's DMA filter, so
Sanctum's rows stay scalar); reads those controllers
would deny; an MEE tag failure; MMU walk hooks or a TLB entry that
disagrees with the page table; hooked ciphers and subclassed RNGs.
The bus controllers are pre-run once for every distinct (master, word,
world) a run issues — exact, because their verdicts depend only on
configuration and enclave ownership, which a read-only attack never
changes.  ``tests/test_attack_differential.py`` holds the hypothesis
differential suite proving the equivalence.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from operator import add

import numpy as np

import repro.obs as obs
from repro.arch.base import (
    AES_KEY_OFFSET,
    AES_TABLE_STRIDE,
    AESVictim,
    SecurityArchitecture,
)
from repro.arch.null import NullArchitecture
from repro.arch.sanctuary import Sanctuary
from repro.arch.sgx import SGX, _EPCAccessControl
from repro.arch.trustzone import TrustZone
from repro.attacks.base import AttackerProcess
from repro.cache.cache import Cache, _Line
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.tlb import TLB
from repro.cpu.core import Core
from repro.cpu.speculative import SpeculativeCore
from repro.crypto.aes import TTableAES
from repro.crypto.aes_batch import (
    SBOX_TABLE,
    _mix_columns,
    _round_key_matrix,
    _SHIFT_ROWS,
)
from repro.crypto.modexp import EXTRA_REDUCTION_COST
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA
from repro.errors import AccessFault, PageFault
from repro.memory.bus import BusTransaction
from repro.memory.mee import MemoryEncryptionEngine
from repro.memory.mmu import MMU
from repro.memory.paging import (
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    PageFlags,
    pte_unpack,
    vpn_split,
)
from repro.memory.phys import WORD_SIZE
from repro.memory.tzasc import TrustZoneAddressSpaceController

#: Headroom kept below the 65536-entry clear thresholds of the MMU
#: identity cache and the speculative core's L1 view: a batched run adds
#: at most 642 distinct entries (5*128 word-aligned table slots + two
#: key words), so staying this far under the bound guarantees the scalar
#: path would not have cleared mid-run either.
_DICT_HEADROOM = 1024


# ---------------------------------------------------------------------------
# Exact-twin cache hierarchy simulator
# ---------------------------------------------------------------------------


class _Steady:
    """A full set in the shape a closed sweep of one eviction list
    leaves it, kept as that shape instead of as per-way lists.

    ``tags[j]`` sits in way ``ways[j]`` with line record ``lines[j]``
    (clean, filled by ``domain``), least recently used first, and the
    stamps are consecutive.  ``src`` is the eviction list: an LLC set
    holds all of it, an L1 set its last ``ways`` tags.  ``members`` is
    ``tags`` as a set.  ``foreign``, when set, is the line record of the
    one miss by another line since: it took way ``ways[0]`` and evicted
    ``tags[0]``, and its stamp is the set's counter.  Without it, the
    stamps end at the counter.  A record belongs to one set, and the
    steady transitions update its ``ways`` and ``foreign`` in place."""

    __slots__ = ("src", "tags", "ways", "lines", "domain", "members",
                 "foreign")

    def __init__(self, src: tuple[int, ...], tags: tuple[int, ...],
                 ways: tuple[int, ...], lines: tuple[tuple, ...], domain,
                 members: frozenset) -> None:
        self.src = src
        self.tags = tags
        self.ways = ways
        self.lines = lines
        self.domain = domain
        self.members = members
        self.foreign: tuple | None = None


def _steady(src, tags, ways, domain, size: int) -> _Steady:
    """The :class:`_Steady` record of ``tags`` (filled by ``domain``) in
    ``ways``."""
    return _Steady(src, tags, ways,
                   tuple((tag, tag * size, domain, False) for tag in tags),
                   domain, frozenset(tags))


class _SimLevel:
    """Flat mirror of one :class:`Cache` level (LRU, unpartitioned).

    State per set: a ``tag -> way`` dict for O(1) hit checks (tags are
    unique within a set, so this is equivalent to ``list.index``), the
    tag list itself (preserving ``tags.index(None)`` first-free order),
    ``(tag, addr, domain, dirty)`` line records, and the LRU stamp/last-use
    arrays with scalar-identical update order.

    Sets are sparse, like the live cache's, and each is in one of three
    forms.  *Untouched*: ``lookup[idx]`` is ``None`` and ``steady`` has
    no entry; it reads as pristine (empty, stamp 0).  *Concrete*: the
    per-set lists above.  *Steady*: ``lookup[idx]`` is ``None`` and
    ``steady[idx]`` is the :class:`_Steady` record a closed sweep wrote;
    only its ``stamps`` entry is kept current.  :meth:`concrete` turns
    the other two forms into lists the first time a walk, a flush, a
    back-invalidation or the writeback reads the set; only a walk's miss
    into a steady LLC set stays symbolic (:meth:`miss_steady`).
    """

    __slots__ = ("num_sets", "ways", "line_size", "lookup", "tags",
                 "lines", "stamps", "last_use", "steady", "touched",
                 "hits", "misses", "evictions", "flushes")

    def __init__(self, cache: Cache) -> None:
        n = self.num_sets = cache.num_sets
        self.ways = cache.ways
        self.line_size = cache.line_size
        self.lookup: list[dict | None] = [None] * n
        self.tags: list[list | None] = [None] * n
        self.lines: list[list | None] = [None] * n
        self.last_use: list[list | None] = [None] * n
        self.stamps = [0] * n
        self.steady: dict[int, _Steady] = {}
        #: Sets the snapshot copied or the run allocated.
        self.touched = set(cache.touched_sets())
        for idx in self.touched:
            lines, tags, policy = cache.set_state(idx)
            self.tags[idx] = list(tags)
            self.lookup[idx] = {t: w for w, t in enumerate(tags)
                                if t is not None}
            self.lines[idx] = [None if ln is None
                               else (ln.tag, ln.addr, ln.domain, ln.dirty)
                               for ln in lines]
            self.stamps[idx] = policy._stamp
            self.last_use[idx] = list(policy._last_use)
        stats = cache.stats
        self.hits = stats.hits
        self.misses = stats.misses
        self.evictions = stats.evictions
        self.flushes = stats.flushes

    def concrete(self, idx: int) -> dict:
        """Set ``idx``'s ``tag -> way`` dict, with its lists valid: an
        untouched set is allocated pristine, a steady one expanded."""
        look = self.lookup[idx]
        if look is not None:
            return look
        rec = self.steady.pop(idx, None)
        if rec is None:
            ways = self.ways
            self.tags[idx] = [None] * ways
            self.lines[idx] = [None] * ways
            self.last_use[idx] = [0] * ways
            self.touched.add(idx)
            look = self.lookup[idx] = {}
            return look
        tags, lines, lu = self.tags[idx], self.lines[idx], self.last_use[idx]
        counter = self.stamps[idx]
        foreign = rec.foreign
        top = counter if foreign is None else counter - 1
        for stamp, tag, way, line in zip(
                range(top - len(rec.tags) + 1, top + 1), rec.tags, rec.ways,
                rec.lines):
            tags[way] = tag
            lines[way] = line
            lu[way] = stamp
        look = self.lookup[idx] = dict(zip(rec.tags, rec.ways))
        if foreign is not None:
            way = rec.ways[0]
            del look[rec.tags[0]]
            look[foreign[0]] = way
            tags[way] = foreign[0]
            lines[way] = foreign
            lu[way] = counter
        return look

    def view(self, idx: int) -> dict:
        """Set ``idx``'s ``tag -> way`` dict for a reader that may not
        write: a steady set is expanded, an untouched one reads as an
        empty dict and stays unallocated."""
        look = self.lookup[idx]
        if look is not None:
            return look
        return self.concrete(idx) if idx in self.steady else {}

    def miss_steady(self, idx: int, tag: int, domain, l1s) -> bool:
        """A walk's read of ``tag`` reaching set ``idx`` while the set's
        lookup is ``None``.  When the set is steady, has no ``foreign``
        line yet and does not hold ``tag``, serve the miss on the record:
        its least recent line makes way and leaves every L1 in ``l1s``,
        and the new line becomes ``foreign``.  Otherwise make the set
        concrete and return ``False`` for the walk to serve the read."""
        rec = self.steady.get(idx)
        if rec is None or rec.foreign is not None or tag in rec.members:
            self.concrete(idx)
            return False
        self.stamps[idx] += 1
        self.misses += 1
        self.evictions += 1
        rec.foreign = (tag, tag * self.line_size, domain, False)
        evicted = rec.tags[0]
        for lv in l1s:
            lv.flush(evicted)
        return True

    def flush(self, tag: int) -> bool:
        """``Cache.flush_line`` of one tag."""
        idx = tag % self.num_sets
        look = self.lookup[idx]
        if look is None:
            rec = self.steady.get(idx)
            if rec is None or (tag not in rec.members
                               and (rec.foreign is None
                                    or tag != rec.foreign[0])):
                return False
            look = self.concrete(idx)
        way = look.pop(tag, None)
        if way is None:
            return False
        self.lines[idx][way] = None
        self.tags[idx][way] = None
        self.flushes += 1
        return True

    def flush_all(self) -> None:
        """``Cache.flush_all``: every valid line counts one flush; the
        replacement stamps stay as they are, as in the scalar cache."""
        for idx in list(self.steady):
            self.concrete(idx)
        ways = self.ways
        for idx in self.touched:
            look = self.lookup[idx]
            if look:
                self.flushes += len(look)
                look.clear()
                self.tags[idx] = [None] * ways
                self.lines[idx] = [None] * ways

    def writeback(self, cache: Cache) -> None:
        """Restore the live cache to this (final) state, recycling
        ``_Line`` records in place exactly like the scalar hot path.

        Only the sets the snapshot copied or the run allocated are
        written: every other set is pristine on both sides, and the live
        cache leaves it unallocated, as the scalar run would."""
        for idx in sorted(self.touched):
            self.concrete(idx)
            live_ways, live_tags, policy = cache.materialise(idx)
            sim_lines = self.lines[idx]
            for w in range(self.ways):
                rec = sim_lines[w]
                if rec is None:
                    live_ways[w] = None
                    live_tags[w] = None
                    continue
                line = live_ways[w]
                if line is None:
                    live_ways[w] = _Line(tag=rec[0], addr=rec[1],
                                         domain=rec[2], dirty=rec[3])
                else:
                    line.tag, line.addr = rec[0], rec[1]
                    line.domain, line.dirty = rec[2], rec[3]
                live_tags[w] = rec[0]
            policy._stamp = self.stamps[idx]
            policy._last_use[:] = self.last_use[idx]
        stats = cache.stats
        stats.hits = self.hits
        stats.misses = self.misses
        stats.evictions = self.evictions
        stats.flushes = self.flushes


class _SimHierarchy:
    """Exact twin of ``CacheHierarchy.access``/``flush_line``/
    ``flush_core`` over :class:`_SimLevel` arrays, keyed by line tag
    (``paddr >> shift``).

    Every access goes through one of two paths.  :meth:`walk` steps a
    tag sequence access by access: the core's L1, then the LLC, then the
    inclusive back-invalidation of the LLC's victim.  :meth:`sweep`
    takes one attacker eviction list (a Prime+Probe prime or probe of
    one LLC set) and writes its end state in one step when the replay
    order makes that state plain; otherwise it walks.
    ``sweeps_closed``/``sweeps_walked`` count the two outcomes,
    ``sweeps_steady`` the closed sweeps that took the O(1) steady
    transition, and ``samples_closed`` the Prime+Probe samples
    (:meth:`sample`) whose every sweep did.
    """

    __slots__ = ("l1s", "l2", "lat_l1", "lat_l1_l2", "lat_l1_dram",
                 "lat_full", "shift", "nested", "sweeps_closed",
                 "sweeps_walked", "sweeps_steady", "samples_closed",
                 "_hierarchy")

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self._hierarchy = hierarchy
        cfg = hierarchy.config
        self.l1s = [_SimLevel(l1) for l1 in hierarchy.l1s]
        self.l2 = _SimLevel(hierarchy.l2)
        self.lat_l1 = cfg.l1_latency
        self.lat_l1_l2 = cfg.l1_latency + cfg.l2_latency
        self.lat_l1_dram = cfg.l1_latency + cfg.dram_latency
        self.lat_full = cfg.l1_latency + cfg.l2_latency + cfg.dram_latency
        self.shift = cfg.line_size.bit_length() - 1
        #: Every LLC set lies inside one set of each L1, so one eviction
        #: list fills one L1 set and the LLC's victims leave only it.
        self.nested = all(self.l2.num_sets % lv.num_sets == 0
                          for lv in self.l1s)
        self.sweeps_closed = 0
        self.sweeps_walked = 0
        self.sweeps_steady = 0
        self.samples_closed = 0

    # -- the per-access path --------------------------------------------------

    def walk(self, core: int, tags, domain, threshold: int | None = None,
             excluded: bool = False) -> int:
        """Serve ``tags`` in order as reads by ``core``: per access the
        scalar ``Cache.access`` on the core's L1, then (unless the range
        is LLC-``excluded``) on the LLC, whose victim then leaves every
        L1 in L1 order.  Returns the summed latency, or with a
        ``threshold`` the number of accesses slower than it."""
        l1 = self.l1s[core]
        n1, w1, size1 = l1.num_sets, l1.ways, l1.line_size
        look1s, tags1s, lines1s = l1.lookup, l1.tags, l1.lines
        stamps1, lus1 = l1.stamps, l1.last_use
        l2 = self.l2
        n2, w2, size2 = l2.num_sets, l2.ways, l2.line_size
        look2s, tags2s, lines2s = l2.lookup, l2.tags, l2.lines
        stamps2, lus2 = l2.stamps, l2.last_use
        l1s = self.l1s
        lat_l1, lat_l1_l2 = self.lat_l1, self.lat_l1_l2
        lat_miss = self.lat_l1_dram if excluded else self.lat_full
        hits1 = misses1 = evictions1 = hits2 = misses2 = evictions2 = 0
        total = slow = 0
        for tag in tags:
            idx = tag % n1
            look = look1s[idx]
            if look is None:
                look = l1.concrete(idx)
            way = look.get(tag)
            stamp = stamps1[idx] + 1
            stamps1[idx] = stamp
            if way is not None:
                hits1 += 1
                lus1[idx][way] = stamp
                latency = lat_l1
            else:
                misses1 += 1
                ways = tags1s[idx]
                lu = lus1[idx]
                if len(look) < w1:
                    way = ways.index(None)
                else:
                    way = lu.index(min(lu))
                lu[way] = stamp
                ways[way] = tag
                look[tag] = way
                lines = lines1s[idx]
                old = lines[way]
                lines[way] = (tag, tag * size1, domain, False)
                if old is not None:
                    evictions1 += 1
                    del look[old[0]]
                if excluded:
                    latency = lat_miss
                else:
                    idx = tag % n2
                    look = look2s[idx]
                    if look is None and l2.miss_steady(idx, tag, domain,
                                                       l1s):
                        latency = lat_miss
                    else:
                        if look is None:
                            look = look2s[idx]
                        way = look.get(tag)
                        stamp = stamps2[idx] + 1
                        stamps2[idx] = stamp
                        if way is not None:
                            hits2 += 1
                            lus2[idx][way] = stamp
                            latency = lat_l1_l2
                        else:
                            misses2 += 1
                            latency = lat_miss
                            ways = tags2s[idx]
                            lu = lus2[idx]
                            if len(look) < w2:
                                way = ways.index(None)
                            else:
                                way = lu.index(min(lu))
                            lu[way] = stamp
                            ways[way] = tag
                            look[tag] = way
                            lines = lines2s[idx]
                            old = lines[way]
                            lines[way] = (tag, tag * size2, domain, False)
                            if old is not None:
                                evictions2 += 1
                                ev_tag = old[0]
                                del look[ev_tag]
                                # Inclusive LLC: the victim leaves every L1.
                                for lv in l1s:
                                    lv.flush(ev_tag)
            total += latency
            if threshold is not None and latency > threshold:
                slow += 1
        l1.hits += hits1
        l1.misses += misses1
        l1.evictions += evictions1
        l2.hits += hits2
        l2.misses += misses2
        l2.evictions += evictions2
        return total if threshold is None else slow

    # -- the closed-form set sweep --------------------------------------------

    @staticmethod
    def _victim_order(lv: _SimLevel, idx: int) -> list[int] | None:
        """The ways consecutive misses in set ``idx`` (untouched, or read
        through :meth:`_SimLevel.view`) fill, in order: free ways by
        index (``tags.index(None)``), then occupied ways by
        ``(last_use, way)`` (``lu.index(min(lu))``).  ``None`` when a
        stamp exceeds the set's counter, so fresh fills would not be the
        newest (no access history leaves that state)."""
        ways = lv.tags[idx]
        if ways is None:  # untouched: every way free
            return list(range(lv.ways))
        lu = lv.last_use[idx]
        if None in ways:
            used = sorted((w for w, t in enumerate(ways) if t is not None),
                          key=lu.__getitem__)
            order = [w for w, t in enumerate(ways) if t is None] + used
            top = lu[used[-1]] if used else 0
        else:
            order = sorted(range(lv.ways), key=lu.__getitem__)
            top = lu[order[-1]]
        return None if top > lv.stamps[idx] else order

    def sample(self, core: int, lists, domain, threshold: int,
               victim) -> list[int]:
        """One Prime+Probe sample: :meth:`sweep` every eviction list,
        call ``victim()``, then sweep every list again with
        ``threshold``; returns each list's count of slow probe reads.

        From the second sample of a run on, every list's sets are
        usually steady, and the sample costs O(1) per list
        (:meth:`_sweep_steady`) besides the victim's own reads."""
        before = self.sweeps_steady
        sweep = self.sweep
        for tags in lists:
            sweep(core, tags, domain)
        victim()
        slow = [sweep(core, tags, domain, threshold) for tags in lists]
        if self.sweeps_steady - before == 2 * len(lists):
            self.samples_closed += 1
        return slow

    def sweep(self, core: int, tags: tuple[int, ...], domain,
              threshold: int | None = None) -> int:
        """:meth:`walk` over one eviction list: distinct tags of one LLC
        set, at most one per LLC way.

        Three ways lead to the same end state; the first whose
        preconditions hold is taken: the steady transition
        (:meth:`_sweep_steady`), the per-sweep closed form
        (:meth:`_sweep_closed`), the walk.
        """
        latency = self._sweep_steady(core, tags, domain)
        if latency is not False:
            self.sweeps_steady += 1
        elif self.nested:
            latency = self._sweep_closed(core, tags, domain)
        if latency is False:
            self.sweeps_walked += 1
            return self.walk(core, tags, domain, threshold)
        self.sweeps_closed += 1
        if threshold is None:
            return latency * len(tags)
        return len(tags) if latency > threshold else 0

    def _sweep_steady(self, core: int, tags: tuple[int, ...], domain):
        """The sweep of a list over the steady sets a closed sweep of the
        same list left, in O(1): returns the uniform per-access latency,
        or ``False`` (nothing changed).

        The core's L1 set holds the list's last ``ways`` lines, and the
        list outnumbers its ways, so every access misses and the set
        refills in its order rotated by ``len(tags) % ways``.  The LLC
        set holds the whole list and is in one of the two shapes a
        Prime+Probe sample leaves it in.  Nothing else touched it:
        every access hits.  One miss by another line (the victim's) made
        the list's least recent line give way: the first access evicts
        the second line, and so on down the list, until the last access
        evicts that foreign line; every line of the list is back, each
        one way along.  Every other shape has no steady record here."""
        l1, l2 = self.l1s[core], self.l2
        s = tags[0] % l2.num_sets
        i = s % l1.num_sets
        rec1 = l1.steady.get(i)
        rec2 = l2.steady.get(s)
        n = len(tags)
        if (rec1 is None or rec2 is None or rec1.src is not tags
                or rec2.src is not tags or n <= l1.ways
                or rec1.domain != domain):
            return False
        foreign = rec2.foreign
        if foreign is None:
            l2.stamps[s] += n
            l2.hits += n
            latency = self.lat_l1_l2
        else:
            # The evicted lines leave the other L1s; the sweeping core's
            # set holds none of them when each is evicted.
            members = rec2.members
            for lv in self.l1s:
                if lv is not l1:
                    lv.flush(foreign[0])
                    idx = s % lv.num_sets
                    held = lv.lookup[idx]
                    if held is None:
                        held = lv.steady.get(idx)
                        held = () if held is None else held.members
                    if not members.isdisjoint(held):
                        for tag in tags[1:]:
                            lv.flush(tag)
            l2.stamps[s] += n
            l2.misses += n
            l2.evictions += n
            ways = rec2.ways
            if rec2.domain == domain:
                rec2.ways = ways[1:] + ways[:1]
                rec2.foreign = None
            else:
                l2.steady[s] = _steady(tags, tags, ways[1:] + ways[:1],
                                       domain, l2.line_size)
            latency = self.lat_full
        l1.stamps[i] += n
        l1.misses += n
        l1.evictions += n
        shift = n % l1.ways
        if shift:
            ways = rec1.ways
            rec1.ways = ways[shift:] + ways[:shift]
        return latency

    def _sweep_closed(self, core: int, tags: tuple[int, ...], domain):
        """Apply the sweep in closed form and return its (uniform)
        per-access latency, or ``False`` (no observable change) to walk.

        It applies when the list fills the LLC set and at least the
        core's L1 set, every access misses both, and no line the LLC
        evicts is still in the core's L1 at that moment.  The end state
        is written directly: both sets left steady, the stats, and the
        evicted lines' flushes from the other cores' L1s.  The checks
        follow :meth:`_victim_order`, the order in which the walk's
        misses fill ways."""
        n = len(tags)
        l1, l2 = self.l1s[core], self.l2
        if n != l2.ways or n < l1.ways:
            return False
        s = tags[0] % l2.num_sets
        i = s % l1.num_sets
        look1 = l1.view(i)
        look2 = l2.view(s)
        order1 = self._victim_order(l1, i)
        if order1 is None:
            return False
        # pos1[way]: the step whose fill first replaces ``way``.
        pos1 = sorted(range(l1.ways), key=order1.__getitem__)
        order2 = self._victim_order(l2, s)
        if order2 is None:
            return False
        pos2 = sorted(range(l2.ways), key=order2.__getitem__)
        # Every access misses the LLC: a resident line of the list must
        # be evicted by an earlier step, before its turn.  The attacker's
        # lines are never LLC-excluded, so one the L1 holds is resident
        # here too, and the eviction check below then has the L1 replace
        # it first: every access misses the L1 as well.
        for step, tag in enumerate(tags):
            way = look2.get(tag)
            if way is not None and pos2[way] >= step:
                return False
        # A victim the core's L1 still holds would be flushed there
        # mid-sweep, freeing a way: walk.  This is checked at eviction
        # time: a line of the list that the probe cascade evicts before
        # its turn has usually left the L1 by then.
        ways2 = l2.tags[s] if look2 else ()
        evicted = []
        for step in range(n if look2 else 0):
            old = ways2[order2[step]]
            if old is not None:
                way = look1.get(old)
                if way is not None and pos1[way] > step:
                    return False
                evicted.append(old)
        self._write_fills(l1, i, order1, tags, domain)
        self._write_fills(l2, s, order2, tags, domain)
        # Not the sweeping core's L1: none of these was there at its
        # eviction, and a line of the list may be back by now.
        for lv in self.l1s:
            if lv is not l1:
                for old in evicted:
                    lv.flush(old)
        return self.lat_full

    @staticmethod
    def _write_fills(lv: _SimLevel, idx: int, order: list[int], tags,
                     domain) -> None:
        """The end state of ``len(tags)`` (at least ``ways``) missing
        fills of set ``idx``: fill ``k`` takes way ``order[k % ways]``
        and stamp ``+k+1``, so the last ``ways`` fills remain, and every
        fill after the free ways are used up evicts.  The set is left
        steady."""
        n, ways = len(tags), lv.ways
        look = lv.concrete(idx)
        lv.stamps[idx] += n
        lv.misses += n
        lv.evictions += n - (ways - len(look))
        lv.lookup[idx] = None
        lv.steady[idx] = _steady(
            tags, tags[n - ways:],
            tuple(order[k % ways] for k in range(n - ways, n)), domain,
            lv.line_size)

    # -- maintenance ------------------------------------------------------------

    def flush_line(self, tag: int) -> bool:
        """clflush across every level (the attacker's ``flush``)."""
        found = False
        for l1 in self.l1s:
            found |= l1.flush(tag)
        found |= self.l2.flush(tag)
        return found

    def flush_core(self, core: int) -> None:
        """One core's L1 flush (Sanctuary's enclave-switch defence)."""
        self.l1s[core].flush_all()

    def writeback(self) -> None:
        """Restore the live hierarchy to the simulator's final state."""
        for lv, cache in zip(self.l1s, self._hierarchy.l1s):
            lv.writeback(cache)
        self.l2.writeback(self._hierarchy.l2)


# ---------------------------------------------------------------------------
# Gates: batch only what the simulator models exactly
# ---------------------------------------------------------------------------
#
# Every gate is pure and returns ``None`` (pass) or the name of the check
# that failed; :func:`try_run_batched` reports that name in its
# ``attack.batch_declined`` event.


#: Bus access controllers the kernels pre-run instead of consulting per
#: transaction.  Each verdict depends only on configuration and enclave
#: ownership, which a read-only attack never changes, so checking every
#: distinct (master, word, world) once is the same as checking each
#: transaction.
_PURE_CONTROLLERS = (MemoryEncryptionEngine, _EPCAccessControl,
                     TrustZoneAddressSpaceController)

#: Enclave-relative offsets of every word an :class:`AESVictim`
#: encryption may read: its two key words, then the 128 word-aligned
#: slots of each of the five tables (a lookup reads
#: ``(table * stride + index * 4) & ~7``).
_KEY_OFFSETS = (AES_KEY_OFFSET, AES_KEY_OFFSET + 8)
_TABLE_WORDS = range(0, 5 * AES_TABLE_STRIDE, 8)
_READS_PER_ENCRYPTION = len(_KEY_OFFSETS) + 160


def _hierarchy_gate(hierarchy) -> str | None:
    if type(hierarchy) is not CacheHierarchy:
        return "hierarchy-type"
    for cache in (*hierarchy.l1s, hierarchy.l2):
        if type(cache) is not Cache:
            return "cache-type"
        if cache.partition is not None:
            return "cache-partition"
        if cache.index_fn is not None:
            return "cache-index-fn"
        if cache.line_size != hierarchy.config.line_size:
            return "cache-line-size"
    return None


def _bus_gate(bus) -> str | None:
    if bus._snoopers:
        return "bus-snooper"
    if any(type(c) not in _PURE_CONTROLLERS for _, c in bus._controllers):
        return "bus-controller"
    if any(type(t) is not MemoryEncryptionEngine
           for _, t in bus._transforms):
        return "bus-transform"
    return None


def _bus_reads_gate(bus, master, addrs, secure: bool = False,
                    pc: int | None = None) -> str | None:
    """Pre-run the word reads ``master`` issues at ``addrs`` through the
    live controllers, as ``SystemBus.read`` would route them."""
    regions = bus.regions
    controllers = [c for _, c in bus._controllers]
    for addr in addrs:
        region = regions.find(addr)
        if region is None or region.device:
            return "bus-region"
        if not controllers:
            continue
        txn = BusTransaction(master, addr, "read", WORD_SIZE,
                             secure=secure, pc=pc)
        try:
            for controller in controllers:
                controller.check(txn, region)
        except AccessFault:
            return "bus-denied"
    return None


def _touches_mee(bus, addrs) -> bool:
    """Does any word read at ``addrs`` reach an MEE range?  Only the
    victim's reads are modelled through the engine."""
    mees = [t for _, t in bus._transforms]
    return any(addr < mee.end and mee.base < addr + WORD_SIZE
               for mee in mees for addr in addrs)


def _overlaps_llc_exclusion(hierarchy, base: int, size: int) -> bool:
    return any(base < end and lo < base + size
               for lo, end in hierarchy._llc_excluded)


def _cipher_gate(cipher) -> str | None:
    if (type(cipher) is TTableAES and cipher.leak_hook is None
            and cipher.fault_hook is None):
        return None
    return "victim-cipher"


#: Hosts whose whole enclave switch is their ``enclave_context`` (plus
#: SGX's ``active_enclave``, see :func:`_enclave_active`).
_MODELLED_HOSTS = (NullArchitecture, SGX, TrustZone, Sanctuary)

_MISSING = object()


@contextmanager
def _enclave_active(arch, core, handle):
    """SGX's EPC check reads ``active_enclave``: set it as
    ``enter_enclave`` does for the controller pre-run, then restore it."""
    if type(arch) is not SGX:
        yield
        return
    active, name = arch.active_enclave, core.config.name
    saved = active.get(name, _MISSING)
    active[name] = handle.enclave_id
    try:
        yield
    finally:
        if saved is _MISSING:
            del active[name]
        else:
            active[name] = saved


def _peek_translation(mmu, memory, page_va: int, privilege):
    """``(frame, pte addresses)`` a paged ``mmu.translate`` resolves for
    ``page_va``, without touching TLB, walker or bus state; ``None`` when
    it would fault or could change mid-run (a TLB entry that disagrees
    with the page table it may be refilled from)."""
    idx1, idx0 = vpn_split(page_va)
    pte1_addr = mmu.root + idx1 * PTE_SIZE
    table, flags1 = pte_unpack(
        int.from_bytes(memory.read_bytes(pte1_addr, 8), "little"))
    if not flags1 & PageFlags.PRESENT or not flags1 & PageFlags.NONLEAF:
        return None
    pte0_addr = table + idx0 * PTE_SIZE
    pte0 = int.from_bytes(memory.read_bytes(pte0_addr, 8), "little")
    if pte0 == 0:
        return None
    frame, flags = pte_unpack(pte0)
    if mmu.tlb is not None:
        entry = mmu.tlb.peek(mmu.asid, page_va)
        if entry is not None and (entry.paddr, entry.flags) != (frame,
                                                                flags):
            return None
    try:
        mmu._check_leaf(page_va, frame, flags, "read", privilege)
    except PageFault:
        return None
    return frame, (pte1_addr, pte0_addr)


def _region_ok(regions, addr: int, need_cacheable: bool = False) -> bool:
    region = regions.find(addr)
    if region is None or region.device:
        return False
    return region.cacheable if need_cacheable else True


def _victim_model(victim, attacker):
    """Gate ``victim`` and build its :class:`_VictimModel`, or return the
    failed gate's name.  Side-effect-free: SGX's enclave bookkeeping and
    the MEE counters touched by the pre-run are restored."""
    from repro.attacks.cache_sca import SharedAESService
    soc = attacker.soc
    hierarchy = soc.hierarchy
    if type(victim) is SharedAESService:
        if victim.soc is not soc:
            return "victim-soc"
        reason = _cipher_gate(victim._cipher)
        if reason:
            return reason
        if not 0 <= victim.core_id < len(hierarchy.l1s):
            return "victim-core"
        excluded = {not hierarchy._llc_allowed(victim.table_paddr + off)
                    for off in _TABLE_WORDS}
        if len(excluded) != 1:
            return "llc-exclusion"
        return _VictimModel(victim, soc, excluded.pop())
    if type(victim) is not AESVictim:
        return "victim-type"
    arch = victim.arch
    if arch.soc is not soc:
        return "victim-soc"
    reason = _cipher_gate(victim._cipher)
    if reason:
        return reason
    handle = victim.handle
    if not 0 <= handle.core_id < min(len(soc.cores), len(hierarchy.l1s)):
        return "victim-core"
    core = soc.cores[handle.core_id]
    if type(core) not in (Core, SpeculativeCore):
        return "core-type"
    if core.bus is not soc.bus or core.hierarchy is not hierarchy:
        return "core-wiring"
    context = (arch.enclave_context(handle)
               if type(arch) in _MODELLED_HOSTS else None)
    if context is None:
        return "victim-host"
    privilege, secure, flush_l1, table = context
    mmu = core.mmu
    if type(mmu) is not MMU or mmu.walk_hooks:
        return "mmu"
    if mmu.tlb is not None and type(mmu.tlb) is not TLB:
        return "tlb-type"
    if (mmu.root is not None if table is None
            else (mmu.root, mmu.asid) != (table.root, table.asid)):
        return "mmu-context"
    if (len(mmu._identity_cache) > 65536 - _DICT_HEADROOM
            or (type(core) is SpeculativeCore
                and len(core._l1_view) > 65536 - _DICT_HEADROOM)):
        return "dict-headroom"
    epm = core.config.energy_per_mem_pj
    if not (float(epm).is_integer() and float(core.energy_pj).is_integer()):
        return "energy"
    if handle.size < AES_KEY_OFFSET + 2 * WORD_SIZE:
        return "victim-size"  # enclave_read would raise EnclaveError

    # Physical address of every word the victim may read, invariant over
    # the whole run (checked against the TLB as well as the page table).
    frames: dict[int, int] = {}
    pte_addrs: list[int] = []
    first = handle.base & ~PAGE_MASK
    for page_va in range(first, handle.base + AES_KEY_OFFSET + 16,
                         PAGE_SIZE):
        if table is None:
            frames[page_va] = page_va
            continue
        walk = _peek_translation(mmu, soc.memory, page_va, privilege)
        if walk is None:
            return "translation"
        frames[page_va], ptes = walk
        pte_addrs.extend(ptes)
    if len(set(frames.values())) != len(frames):
        return "translation"  # aliased frames: tags would be ambiguous
    words = {}
    for off in (*_KEY_OFFSETS, *_TABLE_WORDS):
        va = handle.base + off
        words[off] = frames[va & ~PAGE_MASK] | (va & PAGE_MASK)
    paddrs = list(words.values())
    regions = soc.regions
    if not all(_region_ok(regions, p, need_cacheable=True) for p in paddrs):
        return "victim-region"
    excluded = {not hierarchy._llc_allowed(p) for p in paddrs}
    if len(excluded) != 1:
        return "llc-exclusion"
    for _, mee in soc.bus._transforms:
        # Each word lies wholly inside the engine's range or clear of it,
        # the same way for every word.
        verdicts = {(mee.base <= p and p + WORD_SIZE <= mee.end,
                     p < mee.end and mee.base < p + WORD_SIZE)
                    for p in paddrs}
        if verdicts not in ({(True, True)}, {(False, False)}):
            return "mee-range"
    if _touches_mee(soc.bus, pte_addrs):
        return "mee-range"
    # The controllers see the victim's reads (and its walker's) with the
    # enclave active.
    with _enclave_active(arch, core, handle):
        reason = (_bus_reads_gate(soc.bus, core.master, paddrs, secure,
                                  core.pc)
                  or _bus_reads_gate(soc.bus, mmu.walker_master, pte_addrs,
                                     secure))
    if reason:
        return reason
    model = _VictimModel(victim, soc, excluded.pop())
    model.bind_enclave(core, words, frames, privilege, secure, flush_l1)
    return model.load_words() or model


# ---------------------------------------------------------------------------
# Victim models: replicate every side effect of one ``encrypt`` call
# ---------------------------------------------------------------------------


class _VictimModel:
    """Drives the simulator with a victim's exact access stream and
    replays the bookkeeping (``encryptions``, core cycles/energy, bus
    transactions, MMU/TLB, MEE counters, speculative L1 view, enclave
    context) around it.

    Two shapes are supported, matching the two victims the scalar
    attacks accept:

    * :class:`SharedAESService` — 160 bare ``hierarchy.access`` calls
      per encryption, no core, no bus;
    * :class:`AESVictim` on a null, SGX, TrustZone or Sanctuary host —
      two key-word reads plus 160 lookups through ``Core.read_mem``
      (translation + TLB charge, bus read, cache latency charge, L1-view
      note) between ``enter_enclave`` and ``exit_enclave``.  Sanctuary
      flushes the core's L1 on both switches; SGX translates through the
      OS page table, which :meth:`_translate` replays (it never touches
      the caches, so TLB state, walks and walker bus reads come out
      identical).

    Each encryption's reads are one :meth:`_SimHierarchy.walk`.

    Either shape's lines may sit in an LLC-excluded range (the L1 alone
    then serves them), as long as all of them do or none do.
    """

    def __init__(self, victim, soc, excluded: bool) -> None:
        self.victim = victim
        self.soc = soc
        self.sim: _SimHierarchy | None = None
        self.excluded = excluded
        self.encrypts = 0
        self.is_enclave = type(victim) is AESVictim
        if not self.is_enclave:
            self.base = victim.table_paddr
            self.vcore = victim.core_id
            self.vdomain = victim.domain

    def bind_enclave(self, core, words: dict[int, int],
                     frames: dict[int, int], privilege, secure: bool,
                     flush_l1: bool) -> None:
        """Record the enclave victim's gated context (see
        :func:`_victim_model`)."""
        handle = self.victim.handle
        self.arch = self.victim.arch
        self.handle = handle
        self.base = handle.base
        self.core = core
        self.core_id = handle.core_id
        self.domain = handle.domain
        self.mmu = mmu = core.mmu
        self.paged = mmu.root is not None
        self.privilege = privilege
        self.secure = secure
        self.flush_l1 = flush_l1
        self.words = words  # offset -> physical address
        self.values: dict[int, int] = {}  # offset -> word as delivered
        # Virtual page -> frame, indexed by VPN offset for numpy.
        self.first_vpn = min(frames) >> PAGE_SHIFT
        self.frames = np.array([frames[va] for va in sorted(frames)],
                               dtype=np.int64)
        self.word_offsets: set[int] = set(_KEY_OFFSETS)
        self.cycles = 0
        tlb = mmu.tlb
        self.tlb_lat = tlb.access_latency(True) if tlb is not None else 0

    def load_words(self) -> str | None:
        """Read every word the victim may load through the bus's MEEs,
        once: the words are integrity-checked and decrypted as one list
        (:meth:`MemoryEncryptionEngine.open_words`) before any state is
        mutated, and no engine counts them (the run replays the scalar
        per-access increments).  A failed tag declines, and the scalar
        path then raises the same :class:`SecurityViolation`.  The gates
        put every word inside an engine's range or every word outside
        it, so only the engines holding the first word apply."""
        memory = self.soc.memory
        paddrs = list(self.words.values())
        first = paddrs[0]
        self.mees = [t for _, t in reversed(self.soc.bus._transforms)
                     if t.base <= first < t.end]
        data = [memory.read_word(paddr) for paddr in paddrs]
        for mee in self.mees:
            data = mee.open_words(paddrs, data)
            if data is None:
                return "mee-integrity"
        self.values = dict(zip(self.words, data))
        return None

    def attach(self, sim: _SimHierarchy) -> None:
        """Bind the run's simulator (snapshot taken by the kernel)."""
        self.sim = sim
        self.shift = shift = sim.shift
        if self.is_enclave:
            self.key_tags = tuple(self.words[off] >> shift
                                  for off in _KEY_OFFSETS)
            # Line tag -> its virtual page, for the per-access translate.
            self.page_of = {paddr >> shift: (self.base + off) & ~PAGE_MASK
                            for off, paddr in self.words.items()}
            #: Virtual page -> the TLB entry every lookup of it hits, for
            #: as long as no real translation may have refilled the TLB.
            self.tlb_hits: dict[int, object] = {}

    def lookup_tags(self, plaintexts: np.ndarray) -> list[list[int]]:
        """Per-sample line-tag streams of the victim's 160 T-table
        lookups, via the numpy round-state recurrence.

        Round-entry state ``E_1 = pt ^ rk0``; lookup ``j`` of round ``r``
        reads state byte ``_SHIFT_ROWS[j]`` of ``E_r`` in table ``j % 4``
        (rounds 1-9) or table 4 (round 10) — exactly the scalar
        ``TTableAES.encrypt_block`` lookup order.
        """
        n = plaintexts.shape[0]
        rk = _round_key_matrix(self.victim._cipher.round_keys)
        base, shift = self.base, self.shift
        tags = np.empty((n, 160), dtype=np.int64)
        round_tables = np.array([j % 4 for j in range(16)],
                                dtype=np.int64) * AES_TABLE_STRIDE
        final_tables = np.full(16, 4 * AES_TABLE_STRIDE, dtype=np.int64)
        state = plaintexts ^ rk[0]
        reads = []
        for rnd in range(1, 11):
            idx = state[:, _SHIFT_ROWS].astype(np.int64)
            offs = round_tables if rnd < 10 else final_tables
            # Both victims read the (offset & ~7)-aligned word: the
            # enclave masks the offset, the service masks the (64-
            # aligned) table base plus offset — identical addresses.
            aligned = (offs[np.newaxis, :] + idx * 4) & ~7
            addrs = base + aligned
            if self.is_enclave:
                addrs = (self.frames[(addrs >> PAGE_SHIFT) - self.first_vpn]
                         | (addrs & PAGE_MASK))
                reads.append(aligned)
            tags[:, (rnd - 1) * 16:rnd * 16] = addrs >> shift
            if rnd < 10:
                sub = SBOX_TABLE[state]
                state = _mix_columns(sub[:, _SHIFT_ROWS]) ^ rk[rnd]
        if reads and n:
            # The table words this call read, counted per offset (a
            # bincount, not np.unique, which imports numpy.ma).
            counts = np.bincount(np.concatenate(reads, axis=None))
            self.word_offsets.update(np.flatnonzero(counts).tolist())
        return tags.tolist()

    def encrypt(self, tag_row: list[int]) -> int:
        """Replay one encryption's cache events; returns the victim
        core's cycle delta (0 for the bare service victim)."""
        self.encrypts += 1
        sim = self.sim
        if not self.is_enclave:
            sim.walk(self.vcore, tag_row, self.vdomain,
                     excluded=self.excluded)
            return 0
        core_id = self.core_id
        if self.flush_l1:
            sim.flush_core(core_id)  # enter_enclave
        reads = (*self.key_tags, *tag_row)
        latency = sim.walk(core_id, reads, self.domain,
                           excluded=self.excluded)
        if self.flush_l1:
            sim.flush_core(core_id)  # exit_enclave
        if self.paged:
            latency += self._translate(reads)
        else:
            latency += _READS_PER_ENCRYPTION * self.tlb_lat
        self.cycles += latency
        return latency

    def _translate(self, reads: tuple[int, ...]) -> int:
        """``mmu.translate`` of every read, in order; returns the TLB
        charge ``Core._translate`` adds.

        When every page is TLB-resident (and no walk hook watches), the
        reads are all TLB hits: the TLB's stamp and hit counter advance
        by one per read and each entry keeps the stamp of its page's
        last read.  A page's leaf check and ``regions.find`` run once,
        when its entry is first resolved.  Otherwise every read goes
        through the real ``mmu.translate``, which may refill the TLB,
        so the resolved entries are dropped."""
        mmu, page_of = self.mmu, self.page_of
        tlb = mmu.tlb
        if tlb is not None and not mmu.walk_hooks:
            last = {page_of[tag]: pos for pos, tag in enumerate(reads)}
            hits = self.tlb_hits
            for page in last:
                if page not in hits and not self._resolve_tlb_hit(page):
                    break
            else:
                stamp = tlb._stamp
                for page, pos in last.items():
                    hits[page].stamp = stamp + pos + 1
                tlb._stamp = stamp + len(reads)
                tlb.hits += len(reads)
                return len(reads) * self.tlb_lat
            hits.clear()
        translate = mmu.translate
        charge = tlb.access_latency if tlb is not None else None
        privilege, secure = self.privilege, self.secure
        cycles = 0
        for tag in reads:
            walks = mmu.walk_count
            translate(page_of[tag], "read", privilege, secure)
            if charge is not None:
                cycles += charge(mmu.walk_count == walks)
        return cycles

    def _resolve_tlb_hit(self, page: int) -> bool:
        """Record the TLB entry a lookup of ``page`` hits, after the
        leaf check and region lookup a hit's translation makes."""
        mmu = self.mmu
        entry = mmu.tlb.peek(mmu.asid, page)
        if entry is None:
            return False
        mmu._check_leaf(page, entry.paddr, entry.flags, "read",
                        self.privilege)
        mmu.bus.regions.find(entry.paddr)
        self.tlb_hits[page] = entry
        return True

    def finalize(self) -> None:
        """Write the victim-side bookkeeping back to the live objects.
        Runs before the simulator's writeback, which overwrites the
        caches Sanctuary's replayed switch flushes."""
        self.victim.encryptions += self.encrypts
        if not self.is_enclave or not self.encrypts:
            return
        core = self.core
        events = _READS_PER_ENCRYPTION * self.encrypts
        core.cycles += self.cycles
        core.energy_pj += events * core.config.energy_per_mem_pj
        # The context after the last switch: one enter/exit pair leaves
        # the domain, privilege, world, DVFS and enclave state exactly
        # as any number of them does.
        self.arch.enter_enclave(self.handle)
        self.arch.exit_enclave(self.handle)
        self.soc.bus.transaction_count += events
        for mee in self.mees:
            mee.decrypted_reads += events
        view = core._l1_view if type(core) is SpeculativeCore else None
        for offset in self.word_offsets:
            if not self.paged:
                # Replay the identity translation (populates the MMU's
                # memo exactly as the scalar per-access path would).
                self.mmu.translate(self.base + offset, "read",
                                   core.privilege,
                                   secure=core.world.is_secure)
            if view is not None:
                view[self.words[offset]] = self.values[offset]


# ---------------------------------------------------------------------------
# Cache-SCA kernels
# ---------------------------------------------------------------------------


def _draw_plaintexts(rng: XorShiftRNG, count: int, target_byte: int,
                     values: list[int]) -> np.ndarray:
    """``count`` plaintext rows from the exact scalar RNG stream.

    Each scalar sample draws ``rng.bytes(16)`` (two ``next_u64`` values,
    little-endian) and then patches the target byte's high nibble; rows
    are grouped contiguously per candidate value in scalar loop order
    ([value][sample] for Prime+Probe / Flush+Reload, [value][line]
    [sample] for Evict+Time — the patch only depends on the value, so
    both group into ``count // len(values)`` rows per value).
    """
    if count == 0:
        return np.zeros((0, 16), dtype=np.uint8)
    block = np.array(rng.u64_block(2 * count), dtype="<u8")
    pts = block.view(np.uint8).reshape(count, 16).copy()
    col = pts[:, target_byte]
    per_value = count // len(values)
    for vi, v in enumerate(values):
        rows = slice(vi * per_value, (vi + 1) * per_value)
        col[rows] = (v << 4) | (col[rows] & 0x0F)
    return pts


def _attacker_gates(attack) -> str | None:
    """The attack-side gates the three cache attacks share."""
    attacker = attack.attacker
    if type(attacker) is not AttackerProcess:
        return "attacker-type"
    if type(attack.rng) is not XorShiftRNG:
        return "rng-type"
    soc = attacker.soc
    hierarchy = soc.hierarchy
    reason = _hierarchy_gate(hierarchy) or _bus_gate(soc.bus)
    if reason:
        return reason
    if not 0 <= attacker.core_id < len(hierarchy.l1s):
        return "attacker-core"
    # Every attacker-addressable line must decode to plain memory, or the
    # scalar bus read would have faulted instead of timing it, and must
    # go through the shared LLC like any other process line.
    regions = soc.regions
    for page in attacker.pages:
        if not (_region_ok(regions, page)
                and _region_ok(regions, page + 4095)):
            return "attacker-region"
        if _overlaps_llc_exclusion(hierarchy, page, 4096):
            return "llc-exclusion"
    return None


def _cache_gates(attack):
    """Every gate of a cache attack: the victim's :class:`_VictimModel`,
    or the name of the first gate that failed.  Side-effect-free, so a
    decline leaves the SoC untouched for the scalar oracle to run."""
    return (_attacker_gates(attack)
            or _victim_model(attack.victim, attack.attacker))


def _attacker_reads_gate(attacker, addrs) -> str | None:
    """The attacker's timed reads at ``addrs``, pre-run on the bus."""
    bus = attacker.soc.bus
    reason = _bus_reads_gate(bus, attacker.master, addrs)
    if reason is None and _touches_mee(bus, addrs):
        reason = "mee-range"
    return reason


def _build_sim(attack, model) -> _SimHierarchy:
    """Snapshot the live hierarchy and bind the victim model.  Call only
    after every gate passed (and after any live preconditions ran, so the
    snapshot captures their effects)."""
    sim = _SimHierarchy(attack.attacker.soc.hierarchy)
    model.attach(sim)
    return sim


def _finalize_cache_run(attack, sim, model, timed_reads: int) -> None:
    model.finalize()  # before the writeback: see _VictimModel.finalize
    sim.writeback()
    # The bus read of each of the scalar attacker's ``timed_read``s.
    attack.attacker.soc.bus.transaction_count += timed_reads


def _run_prime_probe(attack):
    from repro.attacks.cache_sca import (
        BYTE_TO_TABLE,
        LINES_PER_TABLE,
        _best_nibble,
        _grade,
        _plaintext_nibbles,
    )
    model = _cache_gates(attack)
    if isinstance(model, str):
        return model
    cfg = attack.config
    # Eviction sets are pure address arithmetic: build them up front so
    # every timed read the probes will issue is checked before any state
    # moves.
    evictions = [attack._eviction_sets(BYTE_TO_TABLE[b])
                 for b in cfg.target_bytes]
    covered = [sum(1 for addrs in eviction if len(addrs) >= attack._ways)
               for eviction in evictions]
    reason = _attacker_reads_gate(attack.attacker, [
        addr for eviction, count in zip(evictions, covered)
        if count == LINES_PER_TABLE
        for addrs in eviction for addr in addrs])
    if reason:
        return reason
    sim = _build_sim(attack, model)
    shift = sim.shift
    span = obs.span
    sample, encrypt = sim.sample, model.encrypt
    attacker = attack.attacker
    core, domain = attacker.core_id, attacker.domain
    threshold = attacker.hit_threshold
    timed_reads = 0
    recovered: dict[int, int] = {}
    coverage = 0.0
    for target_byte, eviction, count in zip(cfg.target_bytes, evictions,
                                            covered):
        with span("prime+probe:byte", cat="attack",
                  byte=target_byte) as byte_span:
            coverage = max(coverage, count / LINES_PER_TABLE)
            if count < LINES_PER_TABLE:
                obs.event("prime+probe.blocked", cat="attack",
                          byte=target_byte, covered=count)
                continue
            closed, walked = sim.sweeps_closed, sim.sweeps_walked
            samples_closed = sim.samples_closed
            ev_tags = [tuple(addr >> shift for addr in addrs)
                       for addrs in eviction]
            probe_reads = sum(map(len, ev_tags))
            values = _plaintext_nibbles(cfg)
            samples = cfg.samples_per_value
            pts = _draw_plaintexts(attack.rng, len(values) * samples,
                                   target_byte, values)
            tag_rows = model.lookup_tags(pts)
            counts = np.zeros((len(values), LINES_PER_TABLE))
            rows = iter(tag_rows)
            for vi in range(len(values)):
                crow = [0] * LINES_PER_TABLE
                for _ in range(samples):
                    slow = sample(core, ev_tags, domain, threshold,
                                  partial(encrypt, next(rows)))
                    crow = list(map(add, crow, slow))
                    timed_reads += probe_reads
                counts[vi] = crow
            recovered[target_byte] = _best_nibble(values, counts)
            if byte_span is not None:
                byte_span.add_args(
                    sweeps_closed=sim.sweeps_closed - closed,
                    sweeps_walked=sim.sweeps_walked - walked,
                    samples_closed=sim.samples_closed - samples_closed)

    _finalize_cache_run(attack, sim, model, timed_reads)
    score = _grade(recovered, attack.victim.key)
    from repro.attacks.base import AttackCategory, AttackResult
    return AttackResult(
        name=attack.NAME, category=AttackCategory.MICROARCHITECTURAL,
        success=score >= 0.75 and len(recovered) == len(cfg.target_bytes),
        score=score,
        leaked={b: f"high nibble {n:#x}" for b, n in recovered.items()},
        details={"recovered": recovered, "set_coverage": coverage,
                 "bytes_attacked": list(cfg.target_bytes)})


def _run_flush_reload(attack):
    from repro.attacks.base import AttackCategory, AttackResult
    from repro.attacks.cache_sca import (
        BYTE_TO_TABLE,
        LINE_SIZE,
        LINES_PER_TABLE,
        _best_nibble,
        _grade,
        _plaintext_nibbles,
    )
    reason = _attacker_gates(attack)
    if reason:
        return reason
    cfg = attack.config
    attacker = attack.attacker
    base = attack.victim.table_paddr
    lines = [attack._line_paddr(table, line) for table in range(5)
             for line in range(LINES_PER_TABLE)]
    lo = lines[0]
    if (type(attacker.arch).attacker_can_map
            is not SecurityArchitecture.attacker_can_map):
        return "attacker-map"  # a translation-level defence: not modelled
    # A refused precondition probe declines too: the scalar attack stops
    # at that one read, so there is nothing to batch.
    reason = _bus_reads_gate(attacker.soc.bus, attacker.master, [lo])
    if reason:
        return reason
    model = _victim_model(attack.victim, attacker)
    if isinstance(model, str):
        return model
    reason = _attacker_reads_gate(attacker, lines)
    if reason:
        return reason
    hierarchy = attacker.soc.hierarchy
    if not all(hierarchy._llc_allowed(paddr) for paddr in lines):
        return "llc-exclusion"
    # Precondition probe, run live (scalar-identical side effects) —
    # only after the gates passed, so a fallback never double-runs it.
    ok, _ = attacker.try_read(lo)
    if not ok:
        return AttackResult(
            name=attack.NAME,
            category=AttackCategory.MICROARCHITECTURAL,
            success=False, score=0.0,
            details={"blocked": "victim memory not attacker-addressable"})

    # Snapshot only now, so the live try_read's cache effects are in.
    sim = _build_sim(attack, model)
    shift = sim.shift
    span = obs.span
    flush, walk = sim.flush_line, sim.walk
    core, domain = attacker.core_id, attacker.domain
    threshold = attacker.hit_threshold
    timed_reads = 0
    recovered: dict[int, int] = {}
    for target_byte in cfg.target_bytes:
        with span("flush+reload:byte", cat="attack", byte=target_byte):
            table = BYTE_TO_TABLE[target_byte]
            line_tags = [(base + table * AES_TABLE_STRIDE
                          + line * LINE_SIZE) >> shift
                         for line in range(LINES_PER_TABLE)]
            values = _plaintext_nibbles(cfg)
            samples = cfg.samples_per_value
            pts = _draw_plaintexts(attack.rng, len(values) * samples,
                                   target_byte, values)
            tag_rows = model.lookup_tags(pts)
            counts = np.zeros((len(values), LINES_PER_TABLE))
            row = 0
            for vi in range(len(values)):
                crow = counts[vi]
                for _ in range(samples):
                    for tag in line_tags:
                        flush(tag)
                    model.encrypt(tag_rows[row])
                    row += 1
                    for li, tag in enumerate(line_tags):
                        if not walk(core, (tag,), domain, threshold):
                            crow[li] += 1.0
                    timed_reads += len(line_tags)
            recovered[target_byte] = _best_nibble(values, counts)

    _finalize_cache_run(attack, sim, model, timed_reads)
    score = _grade(recovered, attack.victim.key)
    return AttackResult(
        name=attack.NAME, category=AttackCategory.MICROARCHITECTURAL,
        success=score >= 0.75, score=score,
        details={"recovered": recovered})


def _run_evict_time(attack):
    from repro.attacks.base import AttackCategory, AttackResult
    from repro.attacks.cache_sca import (
        BYTE_TO_TABLE,
        LINE_SIZE,
        LINES_PER_TABLE,
        _best_nibble,
        _grade,
        _plaintext_nibbles,
    )
    if type(attack.victim) is not AESVictim:
        # ``_victim_cycles`` dereferences ``victim.arch``: the bare
        # shared service has no core accounting to time.
        return "victim-type"
    model = _cache_gates(attack)
    if isinstance(model, str):
        return model
    sim = _build_sim(attack, model)
    cfg = attack.config
    shift = sim.shift
    llc = attack.attacker.soc.hierarchy.l2
    recovered: dict[int, int] = {}
    for target_byte in cfg.target_bytes:
        table = BYTE_TO_TABLE[target_byte]
        eviction = []
        for line in range(LINES_PER_TABLE):
            paddr = attack.victim.table_paddr \
                + table * AES_TABLE_STRIDE + line * LINE_SIZE
            eviction.append(attack.attacker.eviction_addresses_for_set(
                llc.set_index(paddr), attack._ways))
        if any(len(addrs) < attack._ways for addrs in eviction):
            continue  # defence: sets unreachable
        ev_tags = [[addr >> shift for addr in addrs] for addrs in eviction]
        values = _plaintext_nibbles(cfg)
        samples = cfg.samples_per_value
        pts = _draw_plaintexts(
            attack.rng, len(values) * LINES_PER_TABLE * samples,
            target_byte, values)
        tag_rows = model.lookup_tags(pts)
        times = np.zeros((len(values), LINES_PER_TABLE))
        walk = sim.walk
        core, domain = attack.attacker.core_id, attack.attacker.domain
        row = 0
        for vi in range(len(values)):
            for line in range(LINES_PER_TABLE):
                total = 0
                tags = ev_tags[line]
                for _ in range(samples):
                    walk(core, tags, domain)
                    total += model.encrypt(tag_rows[row])
                    row += 1
                times[vi, line] += total
        recovered[target_byte] = _best_nibble(values, times)

    _finalize_cache_run(attack, sim, model, 0)
    score = _grade(recovered, attack.victim.key)
    return AttackResult(
        name=attack.NAME, category=AttackCategory.MICROARCHITECTURAL,
        success=score >= 0.75 and len(recovered) == len(cfg.target_bytes),
        score=score,
        details={"recovered": recovered})


# ---------------------------------------------------------------------------
# Kocher timing kernel
# ---------------------------------------------------------------------------


def _kocher_recover(accs, ts, ciphertexts, measured, n, attack_bits,
                    forced=None):
    """Batched twin of ``KocherTimingAttack._recover_path``.

    The scalar pass computes each modular product twice — once inside
    ``mult_time`` for the timing model and once for the value update —
    and the lookahead flags recompute next-step squares the following
    iteration needs anyway.  Here every product is computed once and the
    chosen hypothesis's square (``f0p``/``f1p``) is carried into the
    next step as its ``a0``, cutting the big-int multiplications per
    (step, sample) from six to three.  Floats are summed in the scalar
    order and the partition statistic *is* the scalar staticmethod, so
    every decision, margin, and recovered bit is bit-identical.
    """
    from repro.attacks.timing import KocherTimingAttack

    pdiff = KocherTimingAttack._partition_diff
    half = n >> 1
    nsamples = len(accs)
    ts = list(ts)
    sqs = [(a * a) % n for a in accs]
    bits: list[int] = []
    margins: list[float] = []
    for step in range(attack_bits):
        t0s = [0.0] * nsamples
        t1s = [0.0] * nsamples
        res0 = [0.0] * nsamples
        res1 = [0.0] * nsamples
        flag0 = [False] * nsamples
        flag1 = [False] * nsamples
        flag_mult = [False] * nsamples
        f0ps = [0] * nsamples
        f1ps = [0] * nsamples
        for s in range(nsamples):
            a0 = sqs[s]
            t0 = ts[s] + (3.0 if a0 >= half else 2.0)
            pm = (a0 * ciphertexts[s]) % n
            mul = pm >= half
            t1 = t0 + (3.0 if mul else 2.0)
            f0p = (a0 * a0) % n
            f1p = (pm * pm) % n
            total = measured[s]
            t0s[s] = t0
            t1s[s] = t1
            res0[s] = total - t0
            res1[s] = total - t1
            flag0[s] = f0p >= half
            flag1[s] = f1p >= half
            flag_mult[s] = mul
            f0ps[s] = f0p
            f1ps[s] = f1p
            sqs[s] = pm  # stash a1; overwritten below by the choice
        diff0 = pdiff(res0, flag0)
        diff1 = pdiff(res1, flag1)
        diff_mult = pdiff(res0, flag_mult)
        score1 = (diff1 + diff_mult) / 2
        if forced is not None and step in forced:
            bit = forced[step]
        else:
            bit = 1 if score1 > diff0 else 0
        bits.append(bit)
        margins.append(abs(score1 - diff0))
        if bit:
            ts = t1s
            sqs = f1ps
        else:
            ts = t0s
            sqs = f0ps
    return bits, margins


def _kocher_backtrack(bits, margins, accs, ts, ciphertexts, measured, n,
                      attack_bits, rounds=3):
    """Batched twin of ``KocherTimingAttack._backtrack`` (same flip
    policy over the batched recover pass)."""
    tried: set[int] = set()
    for _ in range(rounds):
        if len(margins) < 3:
            return bits
        tail_mean = sum(margins[-3:]) / 3
        if tail_mean > EXTRA_REDUCTION_COST / 6:
            return bits
        candidates = [i for i in range(len(margins)) if i not in tried]
        if not candidates:
            return bits
        weakest = min(candidates, key=lambda i: margins[i])
        tried.add(weakest)
        forced = {i: bits[i] for i in range(weakest)}
        forced[weakest] = 1 - bits[weakest]
        alt_bits, alt_margins = _kocher_recover(
            accs, ts, ciphertexts, measured, n, attack_bits, forced=forced)
        after = slice(weakest + 1, None)
        if sum(alt_margins[after]) > sum(margins[after]):
            bits, margins = alt_bits, alt_margins
    return bits


def _run_kocher_timing(attack):
    from repro.attacks.base import AttackCategory, AttackResult

    victim = attack.victim
    if type(victim) is not RSA:
        return "victim-type"
    if victim.constant_time:
        return "constant-time"  # the ladder stays on the scalar oracle
    if type(attack.rng) is not XorShiftRNG:
        return "rng-type"
    n = victim.key.n
    d = victim.key.d
    if n <= 2 or d.bit_length() < 1:
        return "degenerate-key"  # identical scalar error behaviour
    rng = attack.rng
    samples = attack.samples
    half = n >> 1
    bits_total = d.bit_length()

    # Ciphertexts from the exact scalar stream: next_below(n-2) + 1.
    ciphertexts = [u % (n - 2) + 1 for u in rng.u64_block(samples)]

    # Measured phase — scalar ``modexp_square_multiply`` with each
    # reduced product computed once and reused as the timing-model
    # product (``mult_time`` recomputes it in the scalar path).
    exp_bits = [(d >> i) & 1 for i in range(bits_total - 1, -1, -1)]
    measured: list[float] = []
    for c in ciphertexts:
        r = 1 % n
        total = 0.0
        for bit in exp_bits:
            p = (r * r) % n
            total += 3.0 if p >= half else 2.0
            r = p
            if bit:
                p = (r * c) % n
                total += 3.0 if p >= half else 2.0
                r = p
        measured.append(total)
    if attack.noise_std > 0:
        for s, g in enumerate(rng.gauss_block(samples, 0.0,
                                              attack.noise_std)):
            measured[s] += abs(g)

    # Per-sample state after the exponent's leading 1-bit.
    accs: list[int] = []
    ts: list[float] = []
    for c in ciphertexts:
        acc = 1 % n
        p = (acc * acc) % n
        t = 3.0 if p >= half else 2.0
        acc = p
        p = (acc * c) % n
        t += 3.0 if p >= half else 2.0
        accs.append(p)
        ts.append(t)

    attack_bits = min(attack.max_bits, bits_total - 1)
    recovered_bits, margins = _kocher_recover(
        accs, ts, ciphertexts, measured, n, attack_bits)
    recovered_bits = _kocher_backtrack(
        recovered_bits, margins, accs, ts, ciphertexts, measured, n,
        attack_bits)

    truth = [(d >> (bits_total - 2 - i)) & 1 for i in range(attack_bits)]
    correct = sum(1 for a, b in zip(recovered_bits, truth) if a == b)
    score = correct / attack_bits if attack_bits else 0.0
    return AttackResult(
        name=attack.NAME, category=AttackCategory.PHYSICAL,
        success=score >= 0.9, score=score,
        leaked=recovered_bits if score >= 0.9 else None,
        details={"bits_attacked": attack_bits, "correct": correct,
                 "constant_time_victim": victim.constant_time,
                 "samples": attack.samples})


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_KERNELS: dict | None = None


def try_run_batched(attack):
    """Run ``attack``'s batched kernel, or ``None`` for scalar fallback.

    Dispatch is type-exact (``type(attack)``), so subclassed attacks
    always run their own (scalar) code.  A kernel that declines names
    the gate that failed; the name goes out as an
    ``attack.batch_declined`` event on the active tracer.
    """
    global _KERNELS
    if _KERNELS is None:
        from repro.attacks.cache_sca import (
            EvictTimeAttack,
            FlushReloadAttack,
            PrimeProbeAttack,
        )
        from repro.attacks.timing import KocherTimingAttack

        _KERNELS = {
            PrimeProbeAttack: _run_prime_probe,
            FlushReloadAttack: _run_flush_reload,
            EvictTimeAttack: _run_evict_time,
            KocherTimingAttack: _run_kocher_timing,
        }
    kernel = _KERNELS.get(type(attack))
    if kernel is None:
        return None
    result = kernel(attack)
    if isinstance(result, str):
        obs.event("attack.batch_declined", cat="attack", kernel=attack.NAME,
                  reason=result)
        return None
    return result
