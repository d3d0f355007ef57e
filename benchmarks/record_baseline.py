"""Record a performance baseline for the simulator micro-benchmarks.

Runs the ``bench``-marked suite under pytest-benchmark and distils the
results into a small, diff-friendly ``BENCH_<iso-date>.json`` at the repo
root.  Committing that file pins the numbers a future optimisation (or
regression) is judged against — the acceptance bar for performance PRs is
stated relative to the latest committed baseline.

Usage::

    python benchmarks/record_baseline.py            # writes BENCH_<date>.json
    python benchmarks/record_baseline.py -k core    # subset of benchmarks
    python benchmarks/record_baseline.py -o out.json --label "post-dispatch"
    python benchmarks/record_baseline.py --quick    # CI smoke: gate subset

Or simply ``make bench``.  ``--quick`` runs only the regression-gated
benchmarks (see ``GATED_BENCHMARKS``: core load loop, cache hierarchy
access, scalar/batched trace acquisition, batched CPA, scalar/block
Gaussian noise draws, and the quick matrix on the reference lane and
on the default lane, ``quick_matrix[scalar|ensemble]``) with light
rounds — the shape CI's bench-smoke job compares against the newest
committed baseline via
``benchmarks/check_regression.py``.  "Newest" means the baseline with
the latest *recorded* date (the ``date`` field this script writes), not
the lexicographically greatest filename — see the gate's module
docstring for the sorting bug that distinction fixes.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git_revision() -> str:
    """The short revision of HEAD *at recording time*.

    Note the chicken-and-egg this implies for committed baselines: a
    baseline recorded before its own commit names the parent revision.
    ``git_dirty`` disambiguates — a clean recording measured exactly
    the named revision; a dirty one measured the named revision plus
    uncommitted changes (almost always the optimisation about to be
    committed alongside the baseline).
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _git_dirty() -> bool:
    """Whether the working tree differs from the recorded revision."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True)
        return bool(out.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return False


#: The benchmarks CI gates on; ``--quick`` measures exactly these.
GATED_BENCHMARKS = (
    "core_load_loop",
    "cache_hierarchy_access",
    "trace_acquisition[scalar]",
    "trace_acquisition[batched]",
    "cpa_key_recovery_batched",
    "gauss_block[scalar]",
    "gauss_block[block]",
    "cache_sca[scalar]",
    "cache_sca[batched]",
    "prime_probe[scalar]",
    "prime_probe[batched]",
    "kocher_timing[scalar]",
    "kocher_timing[batched]",
    "quick_matrix[scalar]",
    "quick_matrix[ensemble]",
    "service_overhead[direct]",
    "service_overhead[service]",
    "spec_scan[reference]",
    "spec_scan[memoized]",
)

#: Fewest rounds a gated benchmark may record in ``--quick`` mode; a
#: one-round measurement has no noise floor at all and must not become
#: the number CI gates future PRs against.
QUICK_MIN_ROUNDS = 2


def _quick_keyword() -> str:
    """``-k`` filter covering the gated set.

    ``-k`` expressions cannot contain ``[``, so parametrized gate
    entries are reduced to their test-function stem (which selects all
    of that test's parametrizations — a superset is fine for the smoke
    run; the gate itself matches full names).
    """
    stems = dict.fromkeys(name.split("[")[0] for name in GATED_BENCHMARKS)
    return " or ".join(stems)


def run_benchmarks(keyword: str | None = None,
                   quick: bool = False) -> dict:
    """Run the micro-benchmark suite; return pytest-benchmark's JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "bench.json"
        cmd = [
            sys.executable, "-m", "pytest",
            "benchmarks/test_perf_microbench.py",
            "--run-bench", "-q", "-p", "no:cacheprovider",
            "--benchmark-disable-gc", "--benchmark-warmup=on",
            f"--benchmark-json={raw}",
        ]
        if quick:
            keyword = keyword or _quick_keyword()
            cmd += ["--benchmark-min-rounds=3"]
        if keyword:
            cmd += ["-k", keyword]
        env = dict(PYTHONPATH=str(REPO_ROOT / "src"))
        import os
        env = {**os.environ, **env}
        result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if result.returncode != 0:
            raise SystemExit(result.returncode)
        return json.loads(raw.read_text())


def distil(raw: dict, label: str | None = None) -> dict:
    """Reduce pytest-benchmark output to the stats worth committing."""
    import repro

    benches = {}
    for bench in raw["benchmarks"]:
        stats = bench["stats"]
        benches[bench["name"]] = {
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "min_s": stats["min"],
            "rounds": stats["rounds"],
            "ops_per_s": stats["ops"],
        }
    return {
        "schema": "repro-bench-baseline/1",
        "date": _dt.date.today().isoformat(),
        "label": label or "baseline",
        "git_revision": _git_revision(),
        "git_dirty": _git_dirty(),
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": dict(sorted(benches.items())),
    }


def assert_quick_rounds(baseline: dict) -> None:
    """Refuse to write a quick baseline whose gated benchmarks ran too
    few rounds — a single-round stat is pure noise and CI would gate
    every future PR against it."""
    thin = [
        (name, stats["rounds"])
        for name, stats in baseline["benchmarks"].items()
        if stats["rounds"] < QUICK_MIN_ROUNDS]
    if thin:
        detail = ", ".join(f"{name} ({rounds} rounds)"
                           for name, rounds in thin)
        raise SystemExit(
            f"quick baseline under-measured: {detail}; every gated "
            f"benchmark needs >= {QUICK_MIN_ROUNDS} rounds")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", dest="keyword", default=None,
                        help="pytest -k filter for a benchmark subset")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="output path (default BENCH_<date>.json)")
    parser.add_argument("--label", default=None,
                        help="free-form label stored in the baseline")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: only the regression-gated "
                             "benchmarks, fewer rounds, label 'quick'")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    if args.quick and args.label is None:
        args.label = "quick"
    baseline = distil(run_benchmarks(args.keyword, quick=args.quick),
                      label=args.label)
    if args.quick:
        assert_quick_rounds(baseline)
    out = args.output or REPO_ROOT / f"BENCH_{baseline['date']}.json"
    out.write_text(json.dumps(baseline, indent=2, sort_keys=False) + "\n")
    print(f"wrote {out}")
    for name, stats in baseline["benchmarks"].items():
        print(f"  {name}: mean {stats['mean_s'] * 1e3:.3f} ms "
              f"({stats['ops_per_s']:.1f} ops/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
