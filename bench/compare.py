"""Compare two benchmark result files, metric by metric.

Usage (from the repository root)::

    python bench/compare.py bench/results/A.json bench/results/B.json

A and B are written by ``bench/run.py --runs N --out FILE``; A is the
base.  For every workload and end-to-end metric this prints both
medians and quartiles over the runs and one verdict, using the metric's
``bound`` from ``BENCHMARK.json``:

* ``unresolved`` when either side's run-to-run spread (interquartile
  range over median) is wider than the bound, unless every run of B is
  better than every run of A (then ``better``);
* ``worse`` / ``better`` when B's median moved by more than the bound;
* ``same`` otherwise.

The failed share of invocations is compared too: any increase is
``worse``.  Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], bound: float,
            lower_is_better: bool = True) -> str:
    """One metric's verdict for ``new`` against ``base``."""
    sign = 1.0 if lower_is_better else -1.0
    q1a, ma, q3a = summary(base)
    q1b, mb, q3b = summary(new)
    spread = max((q3a - q1a) / ma if ma else 0.0,
                 (q3b - q1b) / mb if mb else 0.0)
    if spread > bound:
        if all(sign * b < sign * a for a in base for b in new):
            return "better"
        return "unresolved"
    change = sign * (mb - ma) / ma if ma else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def fail_verdict(base: tuple[int, int], new: tuple[int, int]) -> str:
    """``(failed, attempted)`` pairs: any increase in the share is worse."""
    share_a = base[0] / base[1] if base[1] else 0.0
    share_b = new[0] / new[1] if new[1] else 0.0
    if share_b > share_a:
        return "worse"
    return "better" if share_b < share_a else "same"


def _failures(runs: list[dict]) -> tuple[int, int]:
    return (sum(run["failed"] for run in runs),
            sum(run["attempted"] for run in runs))


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, unit, summary A, summary B, verdict)``."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        runs_a = a["workloads"][workload]["runs"]
        runs_b = b["workloads"][workload]["runs"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [run["metrics"][name] for run in runs_a]
            values_b = [run["metrics"][name] for run in runs_b]
            rows.append((workload, name, metric["unit"], summary(values_a),
                         summary(values_b),
                         verdict(values_a, values_b, metric["bound"],
                                 metric["better"] == "lower")))
        fa, fb = _failures(runs_a), _failures(runs_b)
        rows.append((workload, "fail_frac", "ratio",
                     (fa[0] / fa[1],) * 3, (fb[0] / fb[1],) * 3,
                     fail_verdict(fa, fb)))
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python bench/compare.py A.json B.json",
              file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8"))
            for path in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(a, b, spec)
    print(f"{'workload':<14} {'metric':<12} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} verdict")
    for workload, name, unit, (q1a, ma, q3a), (q1b, mb, q3b), word in rows:
        print(f"{workload:<14} {name:<12} "
              f"{f'{ma:.4g} [{q1a:.4g}, {q3a:.4g}] {unit}':<32} "
              f"{f'{mb:.4g} [{q1b:.4g}, {q3b:.4g}] {unit}':<32} {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
