"""The memoized exploration engine: equivalence, replay, and bounds.

Three tiers, mirroring the claims in :mod:`repro.spec.memo`:

* **Differential** — every (config, gadget) cell of the full grid runs
  through the lockstep harness (:mod:`repro.spec.explore_diff`), and a
  hypothesis suite fuzzes random branchy programs through both
  explorers, comparing the same ``ExploreOutcome`` record (``LeakEvent``
  sequences, final register taints, truncation flags) with
  :func:`repro.lockstep.run_pair`.
* **Window-parametric replay** — rows for the no-window and
  narrow-window-4 columns derived from one wide recording must equal
  freshly computed reference rows (the budget == window - depth
  lockstep made verdict-level, in both recording orders).
* **Cache mechanics** — FIFO eviction respects the capacity cap
  without changing any verdict, lookups refuse window-truncated
  records, and frontier dedup actually prunes reconvergent forks.
"""

from functools import partial

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cpu.soc import make_server_soc
from repro.isa import assemble
from repro.lockstep import run_pair
from repro.spec import (
    GADGETS,
    GADGETS_BY_NAME,
    ExplorationMemo,
    ExplorationRecord,
    MemoizedSpeculationExplorer,
    SpeculationExplorer,
    exploration_signature,
    explore_diff,
    record_exploration,
)
from repro.spec.explore_diff import (
    ExploreOutcome,
    diff_cell,
    diff_grid,
    diff_reports,
)
from repro.spec.gadgets import CODE_OFF, PROBE_OFF, PUBLIC_OFF, SECRET_OFF
from repro.spec.memo import MEMO_WINDOW_FLOOR
from repro.spec.scanner import (
    _scan_gadget,
    _scan_gadget_memo,
    full_config_names,
    scan_config_for,
)


def _explore(explorer_cls, text: str, regs=None) -> ExploreOutcome:
    soc = make_server_soc()
    base = soc.dram_base
    program = assemble(
        text.format(secret=base + SECRET_OFF, probe=base + PROBE_OFF,
                    public=base + PUBLIC_OFF),
        base=base + CODE_OFF, name="lockstep")
    soc.memory.write_word(base + SECRET_OFF, 0x2A)
    explorer = explorer_cls(soc)
    explorer.taint.taint_word(base + SECRET_OFF)
    explorer.run(program, "victim", regs=regs)
    return ExploreOutcome.of(explorer)


def _lockstep(text: str, regs=None) -> tuple:
    """Run ``text`` through both explorers; assert full equivalence."""
    memoized, reference = run_pair(
        text, partial(_explore, MemoizedSpeculationExplorer, regs=regs),
        partial(_explore, SpeculationExplorer, regs=regs))
    return reference.explorer, memoized.explorer


class TestGridDifferential:
    def test_every_cell_of_the_full_grid_is_identical(self, monkeypatch):
        cells = []

        def counted(config, gadget, memo=None):
            cells.append((config.name, gadget.name))
            diff_cell(config, gadget, memo=memo)

        monkeypatch.setattr(explore_diff, "diff_cell", counted)
        failures = diff_grid(quick=False)
        assert failures == [], "\n".join(
            f"{config}/{gadget}: {divergence}"
            for config, gadget, divergence in failures)
        assert len(set(cells)) == len(full_config_names()) * len(GADGETS)

    def test_cross_config_sharing_is_exercised_not_bypassed(self):
        # The grid harness shares one memo: most cells must replay a
        # recording made for a *different* config, and still match the
        # per-cell reference rows (diff_cell raises on any mismatch).
        memo = ExplorationMemo()
        gadget = GADGETS_BY_NAME["v1-bounds-bypass"]
        for name in full_config_names():
            diff_cell(scan_config_for(name), gadget, memo=memo)
        assert memo.hits > 0
        assert len(memo) < len(full_config_names())

    def test_full_reports_are_byte_identical(self):
        diff_reports(quick=False)

    def test_quick_reports_are_byte_identical(self):
        diff_reports(quick=True)


class TestWindowReplay:
    def test_narrow_window_row_derives_from_the_wide_recording(self):
        memo = ExplorationMemo()
        gadget = GADGETS_BY_NAME["v1-bounds-bypass"]
        wide = scan_config_for("commodity-speculative")
        narrow = scan_config_for("narrow-window-4")
        wide_row, _ = _scan_gadget_memo(wide, gadget, memo)
        narrow_row, _ = _scan_gadget_memo(narrow, gadget, memo)
        assert memo.misses == 1 and memo.hits == 1  # one shared recording
        assert wide_row.leaked and not narrow_row.leaked
        assert narrow_row == _scan_gadget(narrow, gadget)[0]

    def test_no_window_row_derives_from_the_wide_recording(self):
        memo = ExplorationMemo()
        gadget = GADGETS_BY_NAME["meltdown-late-fault"]
        _scan_gadget_memo(scan_config_for("commodity-speculative"),
                          gadget, memo)
        row, _ = _scan_gadget_memo(scan_config_for("no-window"),
                                   gadget, memo)
        assert memo.hits == 1
        assert not row.leaked and row.events == 0
        assert row == _scan_gadget(scan_config_for("no-window"), gadget)[0]

    def test_recording_on_the_window_zero_soc_serves_wider_configs(self):
        # Reverse order: the recording is made on the no-window SoC
        # (window inflation at the fork sites), then replayed for the
        # wide column — rows must still equal the reference.
        memo = ExplorationMemo()
        gadget = GADGETS_BY_NAME["v1-bounds-bypass"]
        wide = scan_config_for("commodity-speculative")
        _scan_gadget_memo(scan_config_for("no-window"), gadget, memo)
        wide_row, _ = _scan_gadget_memo(wide, gadget, memo)
        assert memo.hits == 1
        assert wide_row == _scan_gadget(wide, gadget)[0]
        assert wide_row.leaked

    def test_recordings_are_window_inflated(self):
        config = scan_config_for("commodity-speculative")
        record = record_exploration(config,
                                    GADGETS_BY_NAME["v1-bounds-bypass"])
        assert record.window == max(config.window, MEMO_WINDOW_FLOOR)
        assert record.replayable
        # Every corpus leak manifests within the min_window budget, so
        # each recorded minimum depth is <= the gadget's min_window.
        assert all(depth <= MEMO_WINDOW_FLOOR
                   for _, _, depth in record.events)

    def test_verdict_for_filters_on_minimum_depth(self):
        record = ExplorationRecord(
            window=128,
            events=(("cache-fill", "branch", 7), ("flush", "branch", 9)),
            instret=10, replayable=True)
        assert record.verdict_for(6) == (False, (), (), 0)
        assert record.verdict_for(7) == (
            True, ("cache-fill",), ("branch",), 1)
        assert record.verdict_for(9) == (
            True, ("cache-fill", "flush"), ("branch",), 2)


class TestMemoCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ExplorationMemo(capacity=0)

    def test_lookup_refuses_window_truncated_records(self):
        memo = ExplorationMemo()
        record = ExplorationRecord(window=8, events=(), instret=1,
                                   replayable=True)
        memo.store(("sig",), record)
        assert memo.lookup(("sig",), 8) is record
        assert memo.lookup(("sig",), 9) is None  # narrower than asked
        assert memo.hits == 1 and memo.misses == 1

    def test_lookup_refuses_unreplayable_records(self):
        memo = ExplorationMemo()
        memo.store(("sig",), ExplorationRecord(
            window=128, events=(), instret=1, replayable=False))
        assert memo.lookup(("sig",), 4) is None
        assert memo.misses == 1

    def test_store_replaces_in_place(self):
        memo = ExplorationMemo(capacity=1)
        memo.store(("sig",), ExplorationRecord(
            window=8, events=(), instret=1, replayable=True))
        wider = ExplorationRecord(window=128, events=(), instret=1,
                                  replayable=True)
        memo.store(("sig",), wider)
        assert len(memo) == 1 and memo.evictions == 0
        assert memo.lookup(("sig",), 100) is wider

    def test_eviction_respects_the_cap_without_changing_verdicts(self):
        memo = ExplorationMemo(capacity=3)
        config = scan_config_for("commodity-speculative")
        for gadget in GADGETS:
            row, instret = _scan_gadget_memo(config, gadget, memo)
            ref_row, ref_instret = _scan_gadget(config, gadget)
            assert row == ref_row, gadget.name
            assert instret == ref_instret, gadget.name
            assert len(memo) <= 3
        assert memo.evictions == len(GADGETS) - 3

    def test_signatures_separate_forwarding_knobs_but_not_windows(self):
        gadget = GADGETS_BY_NAME["meltdown-late-fault"]
        commodity = exploration_signature(
            scan_config_for("commodity-speculative"), gadget)
        assert exploration_signature(
            scan_config_for("narrow-window-4"), gadget) == commodity
        assert exploration_signature(
            scan_config_for("fault-at-issue"), gadget) != commodity
        assert exploration_signature(
            scan_config_for("in-order"), gadget) != commodity
        assert exploration_signature(
            scan_config_for("embedded-inorder"), gadget) \
            == exploration_signature(scan_config_for("in-order"), gadget)


class TestFrontierDedup:
    def test_reconvergent_nested_forks_are_pruned(self):
        # Diamond inside the excursion: two equal-length wrong paths
        # fork to the same target with identical registers and budget —
        # the second fork is a duplicate and must be pruned without
        # losing any event.
        reference, memoized = _lockstep("""
victim:
    li    r9, {secret}
    load  r8, 0(r9)
    li    r2, 1
    beq   r0, r2, wrong
    halt
wrong:
    beq   r0, r2, side
    nop
    beq   r0, r2, tgt
    halt
side:
    nop
    beq   r0, r2, tgt
    halt
tgt:
    li    r5, {probe}
    add   r5, r5, r8
    load  r6, 0(r5)
    halt
""")
        assert memoized.pruned_states == 1
        assert memoized.leaked and reference.leaked

    def test_dedup_does_not_cross_excursions(self):
        # The same wrong-path block is reachable from two architectural
        # branches; events carry distinct fork sites, so the second
        # excursion must re-walk it, not prune it.
        _, memoized = _lockstep("""
victim:
    li    r9, {secret}
    load  r8, 0(r9)
    li    r2, 1
    beq   r0, r2, tgt
    beq   r0, r2, tgt
    halt
tgt:
    li    r5, {probe}
    add   r5, r5, r8
    load  r6, 0(r5)
    halt
""")
        leaks = memoized.transient_leaks()
        assert len(leaks) == 2
        assert len({e.fork_pc for e in leaks}) == 2

    def test_run_reset_clears_dedup_and_replay_state(self):
        soc = make_server_soc()
        instance = GADGETS_BY_NAME["v1-bounds-bypass"].build(soc)
        explorer = MemoizedSpeculationExplorer(soc)
        for word in instance.taint_words:
            explorer.taint.taint_word(word)
        explorer.run(instance.program, instance.entry, regs=instance.regs,
                     max_steps=instance.max_steps)
        first_depths = dict(explorer.min_depths)
        assert first_depths
        explorer.run(instance.program, instance.entry, regs=instance.regs,
                     max_steps=instance.max_steps)
        assert explorer.min_depths == first_depths


# -- hypothesis lockstep ------------------------------------------------------

_BRANCH_KINDS = ("beq", "bne")
_ALU_OPS = ("add", "sub", "xor")


@st.composite
def _line(draw, labels: tuple[str, ...]) -> str:
    """One random instruction line (branches only to ``labels``)."""
    choices = ["alu", "li", "load", "store", "fence"]
    if labels:
        choices += ["branch", "branch"]  # branchy programs fork more
    kind = draw(st.sampled_from(choices))
    rd = draw(st.sampled_from((2, 3, 4, 7, 10, 11)))
    if kind == "alu":
        op = draw(st.sampled_from(_ALU_OPS))
        a = draw(st.sampled_from((2, 3, 4, 7, 8, 10, 11)))
        b = draw(st.sampled_from((2, 3, 4, 7, 8, 10, 11)))
        return f"    {op}   r{rd}, r{a}, r{b}"
    if kind == "li":
        return f"    li    r{rd}, {draw(st.integers(0, 64))}"
    if kind == "load":
        base = draw(st.sampled_from((5, 6, 9)))  # probe/public/secret
        return f"    load  r{rd}, 0(r{base})"
    if kind == "store":
        value = draw(st.sampled_from((2, 3, 8)))
        return f"    store r{value}, 0(r6)"
    if kind == "fence":
        return "    fence"
    a = draw(st.sampled_from((0, 2, 3, 8)))
    b = draw(st.sampled_from((0, 2, 3, 8)))
    op = draw(st.sampled_from(_BRANCH_KINDS))
    return f"    {op}   r{a}, r{b}, {draw(st.sampled_from(labels))}"


@st.composite
def _programs(draw) -> str:
    """A branchy victim with three forward-only label blocks.

    Block ``i`` may only branch to labels after it, so neither the
    architectural walk nor any wrong path can loop; every excursion
    terminates well inside the state and instruction caps, which keeps
    the lockstep claim cap-free (the regime the scanner runs in).
    """
    labels = ("l0", "l1", "l2")
    body = draw(st.lists(_line(labels), min_size=3, max_size=10))
    lines = ["victim:",
             "    li    r9, {secret}",
             "    load  r8, 0(r9)",
             "    li    r5, {probe}",
             "    li    r6, {public}", *body, "    halt"]
    for i, label in enumerate(labels):
        block = draw(st.lists(_line(labels[i + 1:]), min_size=1,
                              max_size=4))
        lines += [f"{label}:", *block, "    halt"]
    return "\n".join(lines) + "\n"


_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestFuzzedLockstep:
    @_SETTINGS
    @given(_programs())
    def test_random_programs_explore_identically(self, text):
        _lockstep(text)

    @_SETTINGS
    @given(_programs(), st.integers(0, 63))
    def test_random_programs_with_attacker_register(self, text, index):
        _lockstep(text, regs={2: index})
