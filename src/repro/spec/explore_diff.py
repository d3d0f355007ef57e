"""Lockstep differential harness: memoized vs reference exploration.

Three layers of equivalence, each strictly stronger than the verdict
the scanner actually reports:

1. **Explorer lockstep** — run the reference
   :class:`~repro.spec.explorer.SpeculationExplorer` and the
   :class:`~repro.spec.memo.MemoizedSpeculationExplorer` (frontier
   dedup on, window *not* inflated) over the same gadget on fresh SoCs
   and require the full ordered :class:`LeakEvent` sequence — every
   field, architectural events included — plus the final register
   taints and the truncation flag to match exactly.
2. **Row lockstep** — require ``_scan_gadget_memo`` (window-parametric
   replay from a shared memo) to produce the exact :class:`ScanRow`
   and retired-instruction count of the reference ``_scan_gadget``.
3. **Report bytes** — require the default (memoized) ``run_scan`` to
   emit the JSON *and* rendered text of a reference-lane
   ``ExperimentRunner(reference=True)`` scan, byte for byte.

Run as a module for the CI cross-check::

    python -m repro.spec.explore_diff [--quick]

Exit status 1 on any mismatch, with per-cell diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.runner import ExperimentRunner
from repro.spec.explorer import SpeculationExplorer
from repro.spec.gadgets import GADGETS, Gadget, GadgetInstance
from repro.spec.memo import ExplorationMemo, MemoizedSpeculationExplorer
from repro.spec.scanner import (
    ScanConfig,
    _scan_gadget,
    _scan_gadget_memo,
    full_config_names,
    quick_config_names,
    run_scan,
    scan_config_for,
)


def explore_with(explorer_cls, config: ScanConfig,
                 gadget: Gadget) -> SpeculationExplorer:
    """Run ``gadget`` on a fresh SoC of ``config`` under ``explorer_cls``."""
    soc = config.build()
    instance: GadgetInstance = gadget.build(soc)
    explorer = explorer_cls(soc)
    for word in instance.taint_words:
        explorer.taint.taint_word(word)
    explorer.injection_targets = list(instance.injection_targets)
    explorer.run(instance.program, instance.entry, regs=instance.regs,
                 max_steps=instance.max_steps)
    return explorer


@dataclass
class ExploreDiff:
    """Per-cell comparison outcome (``ok`` iff every layer agreed)."""

    config: str
    gadget: str
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def diff_cell(config: ScanConfig, gadget: Gadget,
              memo: ExplorationMemo | None = None) -> ExploreDiff:
    """Lockstep-compare one (config, gadget) cell across both layers."""
    diff = ExploreDiff(config=config.name, gadget=gadget.name)

    reference = explore_with(SpeculationExplorer, config, gadget)
    memoized = explore_with(MemoizedSpeculationExplorer, config, gadget)
    if memoized.leaks != reference.leaks:
        diff.mismatches.append(
            f"LeakEvent sequences differ: reference {len(reference.leaks)} "
            f"event(s), memoized {len(memoized.leaks)}")
    if memoized.truncated != reference.truncated:
        diff.mismatches.append(
            f"truncated differs: reference {reference.truncated}, "
            f"memoized {memoized.truncated}")
    if memoized.taint.regs != reference.taint.regs:
        diff.mismatches.append("final register taints differ")

    ref_row, ref_instret = _scan_gadget(config, gadget)
    memo_row, memo_instret = _scan_gadget_memo(
        config, gadget, memo if memo is not None else ExplorationMemo())
    if memo_row != ref_row:
        diff.mismatches.append(
            f"ScanRow differs: reference {ref_row.as_dict()!r}, "
            f"memoized {memo_row.as_dict()!r}")
    if memo_instret != ref_instret:
        diff.mismatches.append(
            f"instret differs: reference {ref_instret}, "
            f"memoized {memo_instret}")
    return diff


def diff_grid(quick: bool = False) -> list[ExploreDiff]:
    """Every (config, gadget) cell through :func:`diff_cell`.

    One memo is shared across all cells — replayed rows are compared
    against freshly computed reference rows, so cross-config sharing is
    exercised, not bypassed.
    """
    names = quick_config_names() if quick else full_config_names()
    memo = ExplorationMemo()
    return [diff_cell(scan_config_for(name), gadget, memo=memo)
            for name in names for gadget in GADGETS]


def diff_reports(quick: bool = False) -> list[str]:
    """Byte-compare full memoized vs reference reports (JSON + text)."""
    reference = run_scan(quick=quick,
                         runner=ExperimentRunner(reference=True))
    memoized = run_scan(quick=quick)
    mismatches = []
    if memoized.to_json() != reference.to_json():
        mismatches.append("report JSON differs between memo and reference")
    if memoized.render() != reference.render():
        mismatches.append("rendered report differs between memo and "
                          "reference")
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="lockstep-diff the memoized explorer vs the reference")
    parser.add_argument("--quick", action="store_true",
                        help="quick grid only (drop narrow-window-4)")
    args = parser.parse_args(argv)

    diffs = diff_grid(quick=args.quick)
    bad = [d for d in diffs if not d.ok]
    for d in bad:
        for reason in d.mismatches:
            print(f"MISMATCH {d.config}/{d.gadget}: {reason}",
                  file=sys.stderr)
    report_mismatches = diff_reports(quick=args.quick)
    for reason in report_mismatches:
        print(f"MISMATCH report: {reason}", file=sys.stderr)
    grid = "quick" if args.quick else "full"
    if bad or report_mismatches:
        print(f"explore-diff: FAIL on the {grid} grid "
              f"({len(bad)}/{len(diffs)} cells, "
              f"{len(report_mismatches)} report mismatch(es))")
        return 1
    print(f"explore-diff: {len(diffs)} cells byte-identical on the "
          f"{grid} grid (events, verdicts, rows, report JSON and text)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
