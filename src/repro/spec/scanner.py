"""The Spectre scanner: gadget corpus x architecture/knob grid sweep.

Each scan *cell* is one :class:`ScanConfig` — a SoC recipe (a
``SpeculativeConfig`` knob point or a full architecture host) — swept
across the whole gadget corpus by the multi-path explorer.  Cells are
dispatched through the supervised :class:`~repro.runner.ExperimentRunner`
as ``CellSpec``s with the dedicated ``spec-scan`` category, so scans get
caching, retries, timeouts, and chaos-proof supervision for free.

The quick grid mirrors the design points of TAB-S42
(:func:`repro.attacks.transient_oracle.TRANSIENT_DESIGN_POINTS`) plus
the four architecture hosts; the scanner's verdicts on those overlapping
configs are cross-checked against the scripted attacks' success/failure
by the differential suite — analysis and reproduction must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.runner.engine import SCAN_CATEGORY, ExperimentRunner
from repro.spec.explorer import SpeculationExplorer
from repro.spec.gadgets import CORPUS_REV, GADGETS, Gadget, GadgetInstance
from repro.spec.memo import (
    ExplorationMemo,
    exploration_signature,
    record_exploration,
)
from repro.spec.report import LeakReport, ScanRow

if TYPE_CHECKING:
    from repro.cpu.soc import SoCConfig

#: Default master seed for scan sweeps (per-cell seeds derive from it).
DEFAULT_SCAN_SEED = 0x5CA4


@dataclass(frozen=True)
class ScanConfig:
    """One column of the scan grid: a SoC recipe plus its knob summary.

    The knob summary and ``dram_base`` are read from the ``SoCConfig``
    the builder's SoC is made from (see :func:`_scan_config`), so they
    describe that SoC without building one.
    """

    name: str
    kind: str  # "knob" | "arch"
    description: str
    build: Callable  # () -> SoC, architecture installed when kind="arch"
    speculative: bool
    window: int
    fault_at_retirement: bool
    l1tf_forwarding: bool
    btb_tagged: bool
    dram_base: int

    def expects_leak(self, gadget: Gadget) -> bool:
        """Should ``gadget`` leak on this config, per its preconditions?"""
        if not gadget.vulnerable:
            return False
        if not self.speculative or self.window < gadget.min_window:
            return False
        if "btb-untagged" in gadget.requires and self.btb_tagged:
            return False
        if "fault-at-retirement" in gadget.requires \
                and not self.fault_at_retirement:
            return False
        if "l1tf-forward" in gadget.requires and not self.l1tf_forwarding:
            return False
        return True


def _scan_config(name: str, kind: str, description: str, build: Callable,
                 soc_config: SoCConfig) -> ScanConfig:
    """A scan config whose knobs are read from ``soc_config``, the
    ``SoCConfig`` that ``build`` makes its SoC from.  Installing an
    architecture changes neither the speculation knobs nor DRAM."""
    spec = soc_config.spec
    speculative = soc_config.speculative
    return ScanConfig(
        name=name, kind=kind, description=description, build=build,
        speculative=speculative,
        window=spec.transient_window if speculative else 0,
        fault_at_retirement=spec.fault_at_retirement,
        l1tf_forwarding=spec.l1tf_forwarding,
        btb_tagged=spec.predictor.btb_tag_with_asid,
        dram_base=soc_config.dram_base)


def _knob_config(name: str, description: str, label: str) -> ScanConfig:
    """A scan config wrapping one TAB-S42 design point (by its label)."""
    from repro.attacks.transient_oracle import (
        design_point,
        design_soc,
        design_soc_config,
    )

    def build():
        return design_soc(label)

    return _scan_config(name, "knob", description, build,
                        design_soc_config(label, **design_point(label)))


def _arch_config(name: str, description: str, arch_name: str | None,
                 soc_config: Callable[[], SoCConfig]) -> ScanConfig:
    """A scan config hosting ``arch_name`` (or nothing) on a SoC of
    ``soc_config()``."""
    def build():
        from repro import arch as arch_mod
        from repro.cpu.soc import SoC
        soc = SoC(soc_config())
        if arch_name is not None:
            getattr(arch_mod, arch_name)(soc)
        return soc

    return _scan_config(name, "arch", description, build, soc_config())


def _knob_narrow_window(name: str, window: int) -> ScanConfig:
    from repro.attacks.transient_oracle import (
        design_soc_config,
        design_soc_variant,
    )

    def build():
        return design_soc_variant(name, transient_window=window)

    return _scan_config(name, "knob",
                        f"speculative, {window}-instruction window", build,
                        design_soc_config(name, transient_window=window))


def _build_grid() -> dict[str, ScanConfig]:
    """The full grid, insertion-ordered (reports preserve this order)."""
    from repro.attacks.transient_oracle import TRANSIENT_DESIGN_POINTS
    from repro.cpu.soc import (
        embedded_soc_config,
        mobile_soc_config,
        server_soc_config,
    )

    grid: dict[str, ScanConfig] = {}
    # Knob columns: one per TAB-S42 design point, under stable short
    # names (config names are CellSpec.platform strings and cache-key
    # material, so they must not drift with display labels).
    short = {
        "speculative (commodity)": "commodity-speculative",
        "in-order (embedded-class)": "in-order",
        "fault at issue (Meltdown fix)": "fault-at-issue",
        "no L1TF forwarding (Foreshadow fix)": "no-l1tf-forward",
        "BTB tagged per context (v2 fix)": "btb-tagged",
        "no transient window": "no-window",
    }
    for label, _ in TRANSIENT_DESIGN_POINTS:
        name = short[label]
        grid[name] = _knob_config(name, label, label)
    # Architecture hosts: the paper's Figure-1 rows.  The corpus runs on
    # the host core with the architecture's bus/walker/EPC machinery
    # installed; the verdict pattern is governed by the host core's
    # speculation knobs (the paper's point: TEEs do not, by themselves,
    # change the transient-execution column).
    grid["sgx-server"] = _arch_config(
        "sgx-server", "SGX on the server-class speculative host",
        "SGX", server_soc_config)
    grid["sanctum-server"] = _arch_config(
        "sanctum-server", "Sanctum on the server-class speculative host",
        "Sanctum", server_soc_config)
    grid["trustzone-mobile"] = _arch_config(
        "trustzone-mobile", "TrustZone on the mobile speculative host",
        "TrustZone", mobile_soc_config)
    grid["embedded-inorder"] = _arch_config(
        "embedded-inorder", "bare in-order embedded host (SMART-class)",
        None, embedded_soc_config)
    # Full-grid extras: a window too narrow for any corpus gadget to
    # reach its transmission point — the explorer must *derive* that the
    # leaks die, not just read the speculative bit.
    grid["narrow-window-4"] = _knob_narrow_window("narrow-window-4", 4)
    return grid


_GRID: dict[str, ScanConfig] | None = None


def scan_grid() -> dict[str, ScanConfig]:
    global _GRID
    if _GRID is None:
        _GRID = _build_grid()
    return _GRID


#: Config names for the quick (CI-gating) sweep vs the full sweep.
def quick_config_names() -> tuple[str, ...]:
    return tuple(name for name in scan_grid() if name != "narrow-window-4")


def full_config_names() -> tuple[str, ...]:
    return tuple(scan_grid())


def scan_config_for(name: str) -> ScanConfig:
    try:
        return scan_grid()[name]
    except KeyError:
        raise KeyError(f"unknown scan config {name!r}") from None


# -- cell execution ----------------------------------------------------------


def _scan_gadget(config: ScanConfig, gadget: Gadget) -> tuple[ScanRow, int]:
    soc = config.build()
    instance: GadgetInstance = gadget.build(soc)
    explorer = SpeculationExplorer(soc)
    for word in instance.taint_words:
        explorer.taint.taint_word(word)
    explorer.injection_targets = list(instance.injection_targets)
    explorer.run(instance.program, instance.entry, regs=instance.regs,
                 max_steps=instance.max_steps)
    row = ScanRow(
        config=config.name, gadget=gadget.name, family=gadget.family,
        leaked=explorer.leaked, expected=config.expects_leak(gadget),
        channels=explorer.channels(), origins=explorer.origins(),
        events=len(explorer.transient_leaks()),
        window=config.window, truncated=explorer.truncated)
    return row, sum(core.instret for core in soc.cores)


def scan_gadget(config: ScanConfig, gadget: Gadget) -> ScanRow:
    """Run one gadget on a fresh SoC of ``config``; return its verdict."""
    return _scan_gadget(config, gadget)[0]


#: Process-global memo for memoized scans.  Recordings are keyed on the
#: full knob signature (corpus revision included), so sharing one memo
#: across scans is safe and is exactly what makes repeat sweeps cheap.
_SCAN_MEMO: ExplorationMemo | None = None


def _scan_memo() -> ExplorationMemo:
    global _SCAN_MEMO
    if _SCAN_MEMO is None:
        _SCAN_MEMO = ExplorationMemo()
    return _SCAN_MEMO


def _scan_gadget_memo(config: ScanConfig, gadget: Gadget,
                      memo: ExplorationMemo) -> tuple[ScanRow, int]:
    """Memoized ``_scan_gadget``: identical row bytes, shared walks.

    One window-inflated recording per (gadget, knob signature) serves
    every config in the column; the row for this config is derived by
    filtering the record's per-key minimum depths against the config's
    window.  A recording that hit an exploration cap is not replayable
    (the depth-filter argument needs complete depth profiles), so those
    cells fall back to the reference path wholesale.
    """
    signature = exploration_signature(config, gadget)
    record = memo.lookup(signature, config.window)
    if record is None:
        record = record_exploration(config, gadget)
        memo.store(signature, record)
        if not record.replayable:
            return _scan_gadget(config, gadget)
    leaked, channels, origins, events = record.verdict_for(config.window)
    row = ScanRow(
        config=config.name, gadget=gadget.name, family=gadget.family,
        leaked=leaked, expected=config.expects_leak(gadget),
        channels=channels, origins=origins, events=events,
        window=config.window, truncated=False)
    return row, record.instret


def execute_scan_cell(spec, reference: bool = False) -> tuple[dict, tuple]:
    """Payload for one scan cell: the whole corpus on one config.

    ``spec.platform`` carries the scan-config name (scan cells are not
    tied to a ``PlatformClass``); the payload shape is deterministic and
    participates in the runner's integrity/caching machinery unchanged.
    ``reference`` runs the reference explorer instead of the memoized
    one; it is strategy, not measurement: the payload — rows *and*
    ``cell_instret`` — is byte-identical either way, so memoized and
    reference cells share cache entries.  The cell hands the runner no
    SoCs to meter: the memoized lane derives most rows from recordings,
    so per-SoC counters would describe the lane, not the cell.
    """
    config = scan_config_for(spec.platform)
    memo_cache = None if reference else _scan_memo()
    rows = []
    instret = 0
    for gadget in GADGETS:
        if memo_cache is not None:
            row, retired = _scan_gadget_memo(config, gadget, memo_cache)
        else:
            row, retired = _scan_gadget(config, gadget)
        rows.append(row)
        instret += retired
    return {
        "kind": SCAN_CATEGORY,
        "config": config.name,
        "config_kind": config.kind,
        "corpus_rev": CORPUS_REV,
        "rows": [row.as_dict() for row in rows],
        "cell_instret": instret,
    }, ()


# -- the sweep ---------------------------------------------------------------


def scan_specs(quick: bool = True, seed: int = DEFAULT_SCAN_SEED) -> list:
    """CellSpecs for a sweep (one cell per config, corpus inside)."""
    from repro.runner import CellSpec, derive_seed

    names = quick_config_names() if quick else full_config_names()
    return [
        CellSpec(seed=derive_seed(seed, name, SCAN_CATEGORY),
                 platform=name, category=SCAN_CATEGORY,
                 knobs=(("corpus_rev", CORPUS_REV),))
        for name in names
    ]


def run_scan(quick: bool = True, runner=None,
             seed: int = DEFAULT_SCAN_SEED) -> LeakReport:
    """Sweep the corpus across the grid; return the leak report.

    Cells fan out/cache through ``runner`` — by default a private
    serial, uncached :class:`~repro.runner.ExperimentRunner` on the fast
    (memoized) lane; ``ExperimentRunner(reference=True)`` selects the
    reference explorer.  Reports are byte-identical either way.
    """
    specs = scan_specs(quick=quick, seed=seed)
    runner = runner or ExperimentRunner()
    payloads = runner.run(specs)
    missing = [s.platform for s in specs if s not in payloads]
    if missing:
        raise RuntimeError(
            "scan cells failed after retries: " + ", ".join(missing))
    rows = [ScanRow.from_dict(row)
            for spec in specs for row in payloads[spec]["rows"]]
    return LeakReport(rows, seed=seed, corpus_rev=CORPUS_REV)
