"""Regenerate ``bench/golden.json``, cross-checked against oracle lanes.

Usage (from the repository root)::

    python bench/golden.py

Runs each artefact command once, from fresh caches, and records the
outputs the benchmark compares against: the 15 quick and 15 full payload
fingerprints and the Figure 1 text, the sha256 of the ``scan --full``
report JSON, and the sha256 of the rendered TAB-S41 table.  Before
writing, it checks them against lanes that compute the same results
another way, so the goldens are not merely whatever the current code
prints:

* the scan report must be byte-identical under ``scan --no-memo`` (the
  reference explorer);
* the Figure 1 fingerprints must equal those of an
  ``ExperimentRunner(ensemble=True, batch=True)`` run (the vectorized
  sweep and batched attack kernels).

Exits non-zero, writing nothing, if any cross-check disagrees.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from workloads import (
    GOLDEN_PATH,
    ROOT,
    base_env,
    figure_text,
    fingerprints,
    invoke,
    sha256,
)

WORK = ROOT / "bench" / "out" / "golden"

#: Fills a result cache through the vectorized lanes; argv: quick|full DIR.
ORACLE_LANE = """\
import sys
from repro.core import generate_figure1
from repro.runner import ExperimentRunner, ResultCache
runner = ExperimentRunner(cache=ResultCache(sys.argv[2]), ensemble=True,
                          batch=True)
generate_figure1(quick=sys.argv[1] == "quick", runner=runner)
"""


def _run(name: str, commands: list[list[str]],
         prefix: tuple[str, ...] = ("-m", "repro")) -> tuple[Path, list[str]]:
    rep = WORK / name
    rep.mkdir(parents=True)
    inv = invoke(commands, base_env(0, rep / "cells", rep), rep, prefix)
    if inv.returncode:
        sys.exit(f"golden: {name} exited {inv.returncode}:\n"
                 f"{inv.stderrs[-1]}")
    return rep, inv.stdouts


def generate() -> dict:
    golden, mismatches = {}, []
    for size, extra in (("quick", []), ("full", ["--full", "--jobs", "2"])):
        rep, stdouts = _run(f"figure1-{size}", [["figure1", *extra]])
        golden[f"figure1_{size}"] = {
            "stdout_sha256": sha256(figure_text(stdouts[-1])),
            "fingerprints": fingerprints(rep / "cells")}
        oracle, _ = _run(f"oracle-{size}", [[size, str(WORK / f"o-{size}")]],
                         prefix=("-c", ORACLE_LANE))
        if fingerprints(WORK / f"o-{size}") != \
                golden[f"figure1_{size}"]["fingerprints"]:
            mismatches.append(f"figure1 {size}: ensemble+batch lane "
                              f"fingerprints differ")

    reports = {}
    for lane, extra in (("memo", []), ("no-memo", ["--no-memo"])):
        rep, _ = _run(f"scan-{lane}", [[
            "scan", "--full", "--no-cache", "--check", *extra,
            "--report-json", str(WORK / f"scan-{lane}" / "report.json")]])
        reports[lane] = sha256((rep / "report.json").read_text())
    if reports["memo"] != reports["no-memo"]:
        mismatches.append("scan --full: --no-memo report bytes differ")
    golden["scan_full"] = {"report_sha256": reports["memo"]}

    _, stdouts = _run("tab-s41", [["cache"]])
    golden["tab_s41"] = {"stdout_sha256": sha256(stdouts[-1])}
    if mismatches:
        sys.exit("golden: oracle cross-check failed:\n  "
                 + "\n  ".join(mismatches))
    golden["cross_checked"] = [
        "figure1 quick/full fingerprints == "
        "ExperimentRunner(ensemble=True, batch=True)",
        "scan --full report bytes == scan --full --no-memo"]
    return golden


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        golden = generate()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
