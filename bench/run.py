"""Benchmark: cold end-to-end times of the commands that regenerate the
paper's artefacts, with a per-layer breakdown from a separate traced run.

Usage (from the repository root)::

    python bench/run.py                          # every workload, once
    python bench/run.py --workload fig1-quick --seed 3 --seconds 12
    python bench/run.py --workload scan-full --trace 1
    python bench/run.py --runs 10 --out bench/results/DATE-a.json

One run of a workload: time ``setup_s`` (five cold imports of the
command's entry modules), then invoke the command in a closed loop —
one client, the next invocation only after the previous one exits — for
``--seconds``, at least three times.  Every invocation is checked against
``bench/golden.json``.  With ``--trace 1`` the run then repeats the
command once with ``-X importtime`` and once under ``bench/tracing.py``
and reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output matched, 1 when some did not, and 2 (with no JSON line)
when the benchmark could not be set up, e.g. without ``src/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from compare import summary
from workloads import (
    ROOT,
    WORKLOADS,
    Workload,
    base_env,
    invoke,
    load_golden,
    spawn,
)

BENCH = ROOT / "bench"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Cold imports timed per run; ``setup_s`` is their median.
SETUP_IMPORTS = 5
#: Invocations per run even when ``--seconds`` is shorter than three.
MIN_REPS = 3


class SetupError(Exception):
    """The benchmark cannot run here (no program, no golden outputs)."""


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


class Run:
    """One run of one workload in its own scratch directory."""

    def __init__(self, workload: Workload, seed: int, golden: dict) -> None:
        self.workload = workload
        self.golden = golden
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.dir = OUT / f"{workload.name}-{seed}"
        #: Result cache shared by every invocation of a warm workload.
        self.shared_cache = self.dir / "warm-cells"

    def cache_for(self, rep: Path) -> Path:
        return self.shared_cache if self.workload.warm else rep / "cells"

    def env(self, rep: Path) -> dict[str, str]:
        return base_env(self.rng.randrange(2 ** 32), self.cache_for(rep),
                        rep)

    def fresh(self, name: str) -> Path:
        rep = self.dir / name
        shutil.rmtree(rep, ignore_errors=True)
        rep.mkdir(parents=True)
        return rep

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> list[float]:
        """Time the cold imports; pre-fill the cache of a warm workload."""
        modules = ", ".join(self.workload.entry_modules)
        times = []
        for index in range(SETUP_IMPORTS):
            rep = self.fresh(f"setup{index}")
            wall, _, _, code = spawn(
                [sys.executable, "-c", f"import {modules}"], self.env(rep),
                rep / "out", rep / "err")
            if code != 0:
                raise SetupError(f"cannot import {modules}: "
                                 f"{_tail((rep / 'err').read_text())}")
            times.append(wall)
        if self.workload.warm:
            rep = self.fresh("prefill")
            inv = invoke(self.workload.argv(rep, self.shared_cache),
                         self.env(rep), rep)
            errors = self.workload.check(rep, self.shared_cache, inv.stdouts,
                                         self.golden, warm=False)
            if inv.returncode or errors:
                raise SetupError(f"pre-filling the cache failed: "
                                 f"{errors or _tail(inv.stderrs[-1])}")
        return times

    # -- invocations ------------------------------------------------------------

    def checked_invocation(self, name: str):
        """One invocation and its output errors: ``(Invocation, errors)``."""
        rep = self.fresh(name)
        cache = self.cache_for(rep)
        inv = invoke(self.workload.argv(rep, cache), self.env(rep), rep)
        if inv.returncode:
            errors = [f"exit code {inv.returncode}: "
                      f"{_tail(inv.stderrs[-1])}"]
        else:
            errors = self.workload.check(rep, cache, inv.stdouts,
                                         self.golden)
        shutil.rmtree(rep, ignore_errors=True)
        return inv, errors

    def traced(self, wall_median: float) -> tuple[dict, list[str]]:
        """Per-layer metrics from one ``-X importtime`` invocation and one
        traced invocation: ``(metrics, errors)``."""
        rep = self.fresh("importtime")
        env = self.env(rep)
        env["PYTHONPROFILEIMPORTTIME"] = "1"
        inv = invoke(self.workload.argv(rep, self.cache_for(rep)), env, rep)
        errors = ([f"importtime run exit code {inv.returncode}"]
                  if inv.returncode else [])
        metrics = layers.startup_metrics(inv.stderrs)

        rep = self.fresh("traced")
        cache = self.cache_for(rep)
        out = OUT / f"trace-{self.workload.name}.json"
        wall, _, _, code = spawn(
            [sys.executable, str(BENCH / "tracing.py"),
             "--commands", json.dumps(self.workload.argv(rep, cache,
                                                         traced=True)),
             "--trace-out", str(out),
             "--metrics-out", str(rep / "layers.json"),
             "--spill", str(rep / "spill")],
            self.env(rep), rep / "cmd.out", rep / "cmd.err")
        if code != 0:
            errors.append(f"traced run exit code {code}: "
                          f"{_tail((rep / 'cmd.err').read_text())}")
            return metrics, errors
        stdout = (rep / "cmd.out").read_text(encoding="utf-8")
        errors += [f"traced: {e}" for e in
                   self.workload.check(rep, cache, [stdout], self.golden)]
        metrics.update(json.loads((rep / "layers.json").read_text()))
        metrics["trace.overhead"] = wall / wall_median
        return metrics, errors

    def measure(self, seconds: float, trace: bool) -> dict:
        """The whole run; returns its result record."""
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            setup = self.setup()
            invocations, failures = [], []
            deadline = time.perf_counter() + seconds
            while (len(invocations) < MIN_REPS
                   or time.perf_counter() < deadline):
                inv, errors = self.checked_invocation(
                    f"rep{len(invocations)}")
                invocations.append(inv)
                failures.append(errors)
            samples = {
                "wall_s": [inv.wall_s for inv in invocations],
                "cpu_s": [inv.cpu_s for inv in invocations],
                "peak_rss_mb": [inv.peak_rss_mb for inv in invocations],
                "setup_s": setup,
            }
            result = {
                "metrics": {name: statistics.median(values)
                            for name, values in samples.items()},
                "samples": samples,
            }
            if trace:
                result["layers"], errors = self.traced(
                    result["metrics"]["wall_s"])
                failures.append(errors)
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        result["attempted"] = len(failures)
        result["failed"] = sum(1 for errors in failures if errors)
        result["errors"] = sorted({e for errors in failures for e in errors})
        return result


# -- reporting -------------------------------------------------------------------


def host_provenance() -> dict:
    def git(*args: str) -> str:
        try:
            return subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, check=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": None if status == "unknown" else bool(status),
        "date": datetime.date.today().isoformat(),
    }


def print_run(name: str, seed: int, result: dict) -> None:
    print(f"{name} seed={seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for spec in SPEC["end_to_end"]:
        values = result["samples"][spec["name"]]
        q1, median, q3 = summary(values)
        print(f"  {spec['name']:<14} {median:>12.6g} {spec['unit']:<5} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    for spec in SPEC["per_layer"] if "layers" in result else ():
        print(f"  {spec['name']:<30} {result['layers'][spec['name']]:>14.6g}"
              f" {spec['unit']}")
    for error in result["errors"][:5]:
        print(f"  FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="names scratch directories, orders the "
                             "workloads and picks each invocation's "
                             "PYTHONHASHSEED (default: 1)")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="closed-loop time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also trace one invocation and report the "
                             "per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED.. SEED+RUNS-1, "
                             "round-robin over the workloads")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's samples and the host "
                             "provenance to this JSON file")
    args = parser.parse_args(argv)

    # Invocations inherit this affinity.  On one CPU their times do not
    # depend on whether the host grants a second core at that moment (a
    # VM's vCPUs may share one physical core), and numpy's BLAS starts
    # no helper thread that would spin on it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    try:
        golden = load_golden()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read the golden outputs: {exc}",
              file=sys.stderr)
        return 2
    try:
        for index in range(args.runs):
            for name in names:
                seed = args.seed + index
                result = Run(WORKLOADS[name], seed, golden).measure(
                    args.seconds, bool(args.trace))
                result["seed"] = seed
                runs[name].append(result)
                print_run(name, seed, result)
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    key = "layers" if args.trace else "metrics"
    metrics = {}
    for name, results in runs.items():
        prefix = f"{name}." if len(runs) > 1 else ""
        for spec in SPEC[kind]:
            metrics[prefix + spec["name"]] = {
                "value": statistics.median([r[key][spec["name"]]
                                            for r in results]),
                "unit": spec["unit"]}
    attempted = sum(r["attempted"] for rs in runs.values() for r in rs)
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": "repro-bench-results/1",
            "host": host_provenance(),
            "argv": sys.argv[1:] if argv is None else argv,
            "seconds": args.seconds,
            "workloads": {name: {"runs": results}
                          for name, results in runs.items()},
        }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
