"""Lockstep differential harness: memoized vs reference exploration.

Three layers of equivalence, each strictly stronger than the verdict
the scanner actually reports:

1. **Explorer lockstep** — run the reference
   :class:`~repro.spec.explorer.SpeculationExplorer` and the
   :class:`~repro.spec.memo.MemoizedSpeculationExplorer` (frontier
   dedup on, window *not* inflated) over the same gadget on fresh SoCs
   and require the same :class:`ExploreOutcome`: the full ordered
   :class:`LeakEvent` sequence — every field, architectural events
   included — plus the final register taints and the truncation flag.
2. **Row lockstep** — require ``_scan_gadget_memo`` (window-parametric
   replay from a shared memo) to produce the exact :class:`ScanRow`
   and retired-instruction count of the reference ``_scan_gadget``.
3. **Report bytes** — require the default (memoized) ``run_scan`` to
   emit the JSON *and* rendered text of a reference-lane
   ``ExperimentRunner(reference=True)`` scan, byte for byte.

Every layer raises :class:`~repro.lockstep.Divergence` on the first
mismatch.  ``make diff`` runs all three through ``tests/test_spec_memo.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.lockstep import Divergence, compare, run_pair
from repro.runner import ExperimentRunner
from repro.spec.explorer import LeakEvent, SpeculationExplorer
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


@dataclass(frozen=True)
class ExploreOutcome:
    """What one exploration exposes; ``explorer`` rides along uncompared."""

    leaks: list[LeakEvent]
    taint_regs: list[bool]
    truncated: bool
    explorer: SpeculationExplorer = field(compare=False, repr=False)

    @classmethod
    def of(cls, explorer: SpeculationExplorer) -> "ExploreOutcome":
        return cls(list(explorer.leaks), list(explorer.taint.regs),
                   explorer.truncated, explorer)


def explore_with(explorer_cls, config: ScanConfig,
                 gadget: Gadget) -> ExploreOutcome:
    """Run ``gadget`` on a fresh SoC of ``config`` under ``explorer_cls``."""
    soc = config.build()
    instance: GadgetInstance = gadget.build(soc)
    explorer = explorer_cls(soc)
    for word in instance.taint_words:
        explorer.taint.taint_word(word)
    explorer.injection_targets = list(instance.injection_targets)
    explorer.run(instance.program, instance.entry, regs=instance.regs,
                 max_steps=instance.max_steps)
    return ExploreOutcome.of(explorer)


def diff_cell(config: ScanConfig, gadget: Gadget,
              memo: ExplorationMemo | None = None) -> None:
    """Lockstep-compare one (config, gadget) cell on the explorer and
    row layers; raises :class:`~repro.lockstep.Divergence`."""
    run_pair(gadget, partial(explore_with, MemoizedSpeculationExplorer,
                             config),
             partial(explore_with, SpeculationExplorer, config))
    memo = ExplorationMemo() if memo is None else memo
    compare("(row, instret)", _scan_gadget_memo(config, gadget, memo),
            _scan_gadget(config, gadget))


def diff_grid(quick: bool = False) -> list[tuple[str, str, Divergence]]:
    """Every (config, gadget) cell through :func:`diff_cell`; returns
    the failures as ``(config, gadget, divergence)``.

    One memo is shared across all cells — replayed rows are compared
    against freshly computed reference rows, so cross-config sharing is
    exercised, not bypassed.
    """
    names = quick_config_names() if quick else full_config_names()
    memo = ExplorationMemo()
    failures = []
    for name in names:
        for gadget in GADGETS:
            try:
                diff_cell(scan_config_for(name), gadget, memo=memo)
            except Divergence as divergence:
                failures.append((name, gadget.name, divergence))
    return failures


def _report_bytes(quick: bool, reference: bool = False) -> dict[str, str]:
    runner = ExperimentRunner(reference=True) if reference else None
    report = run_scan(quick=quick, runner=runner)
    return {"json": report.to_json(), "text": report.render()}


def diff_reports(quick: bool = False) -> None:
    """Byte-compare full memoized vs reference reports (JSON + text)."""
    run_pair(quick, _report_bytes, partial(_report_bytes, reference=True))
