"""Memoized path exploration for the Spectre scanner.

The reference :class:`~repro.spec.explorer.SpeculationExplorer` re-walks
every transient excursion from scratch for each (config, gadget) cell —
~11 configs x 13 gadgets, most of which explore *identical* paths.  Two
observations make the scan cheap without changing a single report byte:

1. **Frontier dedup.**  Within one excursion, nested wrong-path forks
   frequently reconverge to a state already on the frontier: same pc,
   same remaining window budget, same register values and register
   taints.  (Word-memory taint never mutates during an excursion —
   transient stores are squashed and only *record* events — so it is not
   part of the state.)  The fork queue is FIFO and the original state is
   enqueued before any duplicate of it, so every leak event is first
   recorded via the original's walk; pruning the duplicate leaves the
   ``LeakEvent`` sequence byte-identical and only skips redundant work.

2. **Window-parametric excursion memoization.**  With an explorer
   attached the core never runs its own transient replay, so the
   architectural walk — and therefore the set of fork sites — depends
   only on the gadget and the forwarding knobs, *not* on the window.
   Budget and depth move in lockstep in ``_explore`` (budget ==
   window - depth on every frontier state), so exploring once at an
   inflated window W and tracking each distinct leak key's **minimum**
   depth d yields the verdict for every narrower window w for free: the
   key manifests under w iff d <= w.  One recording per
   (gadget, knob-signature) therefore serves the whole grid column —
   commodity/SGX/Sanctum/TrustZone hosts, the no-window point, and the
   ``--full`` narrow-window column all replay from the same record.

Equivalence with the reference explorer is not assumed: it is proven by
the lockstep harness (:mod:`repro.spec.explore_diff`, whose
``ExploreOutcome`` record the hypothesis differential suite compares
too; both run under ``make diff``), and the scanner falls back to the reference path for
any recording that hit an exploration cap (``truncated``), where the
depth-filtering argument no longer applies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.spec.explorer import SpeculationExplorer
from repro.spec.gadgets import CORPUS_REV, Gadget, GadgetInstance

#: Recording window for speculative signatures.  Any config whose window
#: is <= the floor replays from the same recording; wider windows record
#: at their own width (lookup refuses a narrower record).
MEMO_WINDOW_FLOOR = 128

#: Default memo capacity (recordings, FIFO-evicted).  The full grid
#: needs one arch + at most four spec signatures per gadget, so the
#: default never evicts on the shipped corpus; the cap bounds memory for
#: callers that sweep synthetic corpora through one memo.
MEMO_CAPACITY = 256


class MemoizedSpeculationExplorer(SpeculationExplorer):
    """The reference explorer plus frontier dedup and cheap snapshots.

    Frontier states are snapshotted as tuples — built once and shared
    between the visited-set key and the queue entry — instead of the
    base class's two fresh lists per fork.  ``window`` overrides the
    core's transient window at every fork site so one run can record at
    :data:`MEMO_WINDOW_FLOOR` on a narrower-window SoC.

    Event *sequences* (and so every scanner verdict) are byte-identical
    to the reference explorer whenever neither run hits an exploration
    cap; the differential suite asserts exactly that.  ``min_depths``
    additionally tracks, per distinct transient leak key, the shallowest
    depth at which it occurs — including occurrences the first-seen
    dedup in ``_record`` suppresses — which is the replay metadata for
    window-parametric memoization.
    """

    def __init__(self, soc, core_id: int = 0, max_states: int = 64,
                 max_transient_instrs: int = 4096,
                 window: int | None = None) -> None:
        super().__init__(soc, core_id=core_id, max_states=max_states,
                         max_transient_instrs=max_transient_instrs)
        self._window = window
        self.pruned_states = 0
        self._visited: set[tuple] = set()
        #: (channel, origin, fork_pc, pc) -> minimum depth observed.
        self.min_depths: dict[tuple, int] = {}

    def _reset_run_state(self) -> None:
        super()._reset_run_state()
        self.pruned_states = 0
        self._visited = set()
        self.min_depths = {}

    # -- frontier hooks ----------------------------------------------------

    def _fork_window(self, core) -> int:
        if self._window is not None:
            return self._window
        return core.spec.transient_window

    def _begin_excursion(self, start_pc: int, regs: list[int],
                         taints: list[bool], window: int) -> None:
        # The visited set must not cross excursions: events carry their
        # origin and fork_pc, so the same state reached from a different
        # fork site records *different* events and must be re-walked.
        self._visited = {(start_pc, window, tuple(regs), tuple(taints))}

    def _enqueue_fork(self, queue, forked: int, regs: list[int],
                      taints: list[bool], budget: int, depth: int) -> bool:
        regs_snap = tuple(regs)
        taints_snap = tuple(taints)
        key = (forked, budget, regs_snap, taints_snap)
        if key in self._visited:
            self.pruned_states += 1
            return False
        self._visited.add(key)
        queue.append((forked, regs_snap, taints_snap, budget, depth))
        return True

    @staticmethod
    def _pop_state(queue) -> tuple:
        pc, regs, taints, budget, depth = queue.popleft()
        # Queue entries hold shared tuple snapshots; the walk mutates
        # registers/taints in place, so thaw on pop.
        return pc, list(regs), list(taints), budget, depth

    # -- replay metadata ---------------------------------------------------

    def _record(self, channel: str, origin: str, fork_pc: int, pc: int,
                depth: int, transient: bool, address: int | None = None
                ) -> None:
        if transient:
            key = (channel, origin, fork_pc, pc)
            prev = self.min_depths.get(key)
            if prev is None or depth < prev:
                self.min_depths[key] = depth
        super()._record(channel, origin, fork_pc, pc, depth,
                        transient=transient, address=address)


@dataclass(frozen=True)
class ExplorationRecord:
    """One memoized exploration: the replay metadata for a grid column.

    ``events`` holds one ``(channel, origin, min_depth)`` triple per
    distinct transient leak key, in first-occurrence order.  A key
    manifests under window ``w`` iff ``min_depth <= w`` (the budget ==
    window - depth lockstep), so one record answers every window up to
    the one it was explored at.
    """

    window: int  # the window this record was explored at
    events: tuple[tuple[str, str, int], ...]
    instret: int  # architectural instructions retired by the gadget run
    replayable: bool  # False if exploration hit a state/instruction cap

    def verdict_for(self, window: int
                    ) -> tuple[bool, tuple[str, ...], tuple[str, ...], int]:
        """(leaked, channels, origins, events) at ``window``."""
        live = [e for e in self.events if e[2] <= window]
        channels = tuple(sorted({e[0] for e in live}))
        origins = tuple(sorted({e[1] for e in live}))
        return bool(live), channels, origins, len(live)


class ExplorationMemo:
    """FIFO-bounded store of :class:`ExplorationRecord` by signature."""

    def __init__(self, capacity: int = MEMO_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("memo capacity must be >= 1")
        self.capacity = capacity
        self._records: OrderedDict[tuple, ExplorationRecord] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, signature: tuple,
               window: int) -> ExplorationRecord | None:
        record = self._records.get(signature)
        if record is None or not record.replayable \
                or record.window < window:
            # A record explored at a narrower window cannot answer a
            # wider one (its depth profile is truncated): re-record.
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(self, signature: tuple, record: ExplorationRecord) -> None:
        if signature in self._records:
            del self._records[signature]
        self._records[signature] = record
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)
            self.evictions += 1


def exploration_signature(config, gadget: Gadget) -> tuple:
    """The knob signature an exploration's outcome depends on.

    Non-speculative hosts have no fork sites at all, so every in-order
    config shares one class per gadget.  Speculative hosts share a class
    when the fork-relevant forwarding knobs agree; the window is *not*
    part of the signature — it is the replay parameter.  Gadget
    programs embed absolute addresses derived from the SoC's DRAM base,
    so the base is part of every signature.
    """
    base = config.dram_base
    if not config.speculative:
        return ("arch", CORPUS_REV, gadget.name, base)
    return ("spec", CORPUS_REV, gadget.name, base,
            config.fault_at_retirement, config.l1tf_forwarding,
            config.btb_tagged)


def record_exploration(config, gadget: Gadget) -> ExplorationRecord:
    """Explore ``gadget`` once on ``config``'s SoC, window-inflated.

    Speculative configs record at ``max(window, MEMO_WINDOW_FLOOR)`` so
    the record replays for every grid column sharing the signature;
    non-speculative configs run plain (no fork sites to inflate).
    """
    soc = config.build()
    instance: GadgetInstance = gadget.build(soc)
    window = max(config.window, MEMO_WINDOW_FLOOR) \
        if config.speculative else None
    explorer = MemoizedSpeculationExplorer(soc, window=window)
    for word in instance.taint_words:
        explorer.taint.taint_word(word)
    explorer.injection_targets = list(instance.injection_targets)
    explorer.run(instance.program, instance.entry, regs=instance.regs,
                 max_steps=instance.max_steps)
    events = tuple((channel, origin, depth)
                   for (channel, origin, _fork_pc, _pc), depth
                   in explorer.min_depths.items())
    return ExplorationRecord(
        window=window if window is not None else 0,
        events=events,
        instret=sum(core.instret for core in soc.cores),
        replayable=not explorer.truncated)
