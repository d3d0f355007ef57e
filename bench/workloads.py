"""The benchmark's workloads, how one invocation runs, and its checks.

Every invocation is a fresh ``python -m repro ...`` subprocess (or a
short sequence of them, for the service) started from the repository
root with ``PYTHONPATH=src``.  Its wall time runs from spawn to exit;
its CPU time and peak RSS come from ``os.wait4``, so they include every
child process it waited for.

The CLI takes no input seed: each workload's inputs are the paper's
fixed grids.  The benchmark seed only picks ``PYTHONHASHSEED`` for each
invocation (the outputs must not depend on it) and names scratch
directories.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "bench" / "golden.json"

#: Seconds after which one invocation counts as hung and is killed.
INVOCATION_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    ``commands`` are repro argv lists run in order as one invocation;
    ``{rep}`` expands to the invocation's scratch directory and
    ``{cache}`` to the result-cache directory it uses.  ``traced`` is
    the in-process equivalent run under tracing, when it differs.
    ``golden`` names the ``golden.json`` entry its output must match;
    ``output`` says which output is compared: the Figure 1 text of
    stdout, the whole stdout, the report file, or none (payload
    fingerprints only).  ``cells`` is where its payloads land.
    """

    name: str
    why: str
    entry_modules: tuple[str, ...]
    commands: tuple[tuple[str, ...], ...]
    golden: str
    output: str | None
    cells: str | None = None
    warm: bool = False
    traced: tuple[tuple[str, ...], ...] | None = None

    def argv(self, rep: Path, cache: Path, traced: bool = False
             ) -> list[list[str]]:
        commands = self.traced if traced and self.traced else self.commands
        return [[part.format(rep=rep, cache=cache) for part in command]
                for command in commands]

    def check(self, rep: Path, cache: Path, stdouts: list[str],
              golden: dict, warm: bool | None = None) -> list[str]:
        """Every way this invocation's output differs from the golden."""
        expected = golden[self.golden]
        errors = []
        if self.cells is not None:
            got = fingerprints(Path(self.cells.format(rep=rep, cache=cache)))
            if got != expected["fingerprints"]:
                errors.append(f"{len(got)} payload fingerprints differ from "
                              f"the {len(expected['fingerprints'])} golden")
        stdout = stdouts[-1] if stdouts else ""
        if self.output == "figure":
            cells = len(expected["fingerprints"])
            line = (f"cache: {cells} hits / 0 misses"
                    if (self.warm if warm is None else warm)
                    else f"cache: 0 hits / {cells} misses")
            if line not in stdout:
                errors.append(f"stdout lacks {line!r}")
            if "not evaluated:" in stdout:
                errors.append("a cell was not evaluated")
            if sha256(figure_text(stdout)) != expected["stdout_sha256"]:
                errors.append("Figure 1 text differs from the golden")
        elif self.output == "stdout":
            if sha256(stdout) != expected["stdout_sha256"]:
                errors.append("stdout differs from the golden")
        elif self.output == "report":
            report = rep / "report.json"
            text = report.read_text(encoding="utf-8") \
                if report.exists() else ""
            if sha256(text) != expected["report_sha256"]:
                errors.append("scan report differs from the golden")
        return errors


_FIG1 = ("repro.core", "repro.runner")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig1-quick",
        "the default user command; attack cells dominate and it writes "
        "15 result-cache entries",
        _FIG1, (("figure1",),), golden="figure1_quick", output="figure",
        cells="{cache}"),
    Workload(
        "fig1-full-j2",
        "full sizing through a 2-worker process pool: kernel sweep is a "
        "third of cell time, plus pool start-up and supervision",
        _FIG1, (("figure1", "--full", "--jobs", "2"),),
        golden="figure1_full", output="figure", cells="{cache}"),
    Workload(
        "fig1-warm",
        "no simulation: startup, 15 cache reads with integrity digests, "
        "then figure aggregation",
        _FIG1, (("figure1",),), golden="figure1_quick", output="figure",
        cells="{cache}", warm=True),
    Workload(
        "scan-full",
        "speculation explorer and memo, cold in every process; mostly "
        "import floor, so startup changes show most here",
        ("repro.spec", "repro.runner"),
        (("scan", "--full", "--no-cache", "--check", "--report-json",
          "{rep}/report.json"),),
        golden="scan_full", output="report"),
    Workload(
        "tab-s41",
        "scalar Prime+Probe and Flush+Reload on 5 TEE hosts, including "
        "cache configurations the batch kernels decline",
        ("repro.core.comparison",), (("cache",),),
        golden="tab_s41", output="stdout"),
    Workload(
        "serve-quick",
        "service protocol on the fig1-quick cells: job publish, leases, "
        "heartbeats and two contending workers",
        ("repro.service", "repro.runner"),
        (("submit", "--queue", "{rep}/queue"),
         ("serve", "--queue", "{rep}/queue", "--workers", "2")),
        golden="figure1_quick", output=None, cells="{rep}/queue/cells",
        traced=(("submit", "--queue", "{rep}/queue"),
                ("worker", "--queue", "{rep}/queue"))),
)}


# -- outputs -------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def figure_text(stdout: str) -> str:
    """Figure 1 and the agreement line, without the timing stat lines."""
    return stdout.split("\nrunner:")[0]


def fingerprints(cache_dir: Path) -> list[str]:
    """Sorted payload fingerprints of every entry in a result cache."""
    found = []
    for path in sorted(cache_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = None
        digest = payload.get("payload_sha256") \
            if isinstance(payload, dict) else None
        found.append(digest if isinstance(digest, str) else "unreadable")
    return sorted(found)


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# -- one invocation ------------------------------------------------------------


@dataclass
class Invocation:
    """What one invocation cost and printed."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdouts: list[str]
    stderrs: list[str]


def base_env(hash_seed: int, cache: Path, rep: Path) -> dict[str, str]:
    """The caller's environment without its ``PYTHON*`` settings.

    Those change what is measured (``PYTHONDONTWRITEBYTECODE`` makes
    every invocation recompile the package; ``PYTHONPATH`` could import
    another copy of it), so every invocation gets the same ones here.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["REPRO_CACHE_DIR"] = str(cache)
    env["REPRO_QUEUE_DIR"] = str(rep / "queue")
    return env


def spawn(argv: list[str], env: dict[str, str], out: Path, err: Path
          ) -> tuple[float, float, float, int]:
    """Run one process to exit: ``(wall s, cpu s, max RSS MB, code)``.

    The child gets its own process group, which is killed whole if it
    outlives :data:`INVOCATION_TIMEOUT_S` or exits abnormally, so no
    helper process it started survives the invocation.
    """
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout,
                                stderr=stderr, start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group,
                                (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        _kill_group(proc.pid)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            code)


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def invoke(commands: list[list[str]], env: dict[str, str], rep: Path,
           prefix: tuple[str, ...] = ("-m", "repro")) -> Invocation:
    """Run ``commands`` in order as one invocation; stop at a failure."""
    total = Invocation(0.0, 0.0, 0.0, 0, [], [])
    for index, command in enumerate(commands):
        out, err = rep / f"cmd{index}.out", rep / f"cmd{index}.err"
        wall, cpu, rss, code = spawn([sys.executable, *prefix, *command],
                                     env, out, err)
        total.wall_s += wall
        total.cpu_s += cpu
        total.peak_rss_mb = max(total.peak_rss_mb, rss)
        total.stdouts.append(out.read_text(encoding="utf-8",
                                           errors="replace"))
        total.stderrs.append(err.read_text(encoding="utf-8",
                                           errors="replace"))
        if code != 0:
            total.returncode = code
            break
    return total
