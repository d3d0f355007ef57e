"""Multi-path speculation analysis: explorer, taint, gadgets, scanner.

This package turns the simulator's transient-execution column from
*reproduced* (fixed scripted attacks) into *derived* (program analysis):

* :mod:`repro.spec.taint` — word-granular secret marks over registers
  and physical memory;
* :mod:`repro.spec.explorer` — a Pitchfork-style forking executor that
  explores both directions of every branch, injected indirect targets,
  and late-fault forwarding windows on a real
  :class:`~repro.cpu.speculative.SpeculativeCore`, flagging
  taint-dependent wrong-path effects as :class:`LeakEvent`s;
* :mod:`repro.spec.gadgets` — the scanner corpus: vulnerable gadgets,
  hardened variants, and negative controls for Spectre v1/v2, Meltdown,
  and L1TF;
* :mod:`repro.spec.scanner` — the gadget x architecture/knob sweep,
  dispatched through the supervised experiment runner (``repro scan``);
* :mod:`repro.spec.memo` — the memoized exploration engine: frontier
  dedup, cheap tuple snapshots, and window-parametric excursion
  recordings shared across the grid (the default scan lane;
  ``ExperimentRunner(reference=True)`` or ``repro scan --no-memo``
  selects the reference explorer; byte-identical reports, proven by
  :mod:`repro.spec.explore_diff` under ``make diff``);
* :mod:`repro.spec.report` — the deterministic leak-report artifact.
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "explorer": ("CHANNELS", "LeakEvent", "SpeculationExplorer"),
    "memo": ("ExplorationMemo", "ExplorationRecord", "MEMO_CAPACITY",
             "MEMO_WINDOW_FLOOR", "MemoizedSpeculationExplorer",
             "exploration_signature", "record_exploration"),
    "gadgets": ("CORPUS_REV", "GADGETS", "GADGETS_BY_NAME", "Gadget",
                "GadgetInstance"),
    "report": ("LeakReport", "ScanRow"),
    "scanner": ("DEFAULT_SCAN_SEED", "SCAN_CATEGORY", "ScanConfig",
                "execute_scan_cell", "full_config_names",
                "quick_config_names", "run_scan", "scan_config_for",
                "scan_gadget", "scan_grid", "scan_specs"),
    "taint": ("TaintState",),
})
