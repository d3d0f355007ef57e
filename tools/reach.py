#!/usr/bin/env python
"""Reachability gate: every ``src/repro`` module runs in some entry point.

Runs each entry point in a fresh interpreter under a ``sys.setprofile``
hook (a generated ``sitecustomize``, so forked members and child
interpreters are traced too) that logs the first call of every
``src/repro`` function, and prints the reached/total function counts.
A module is reached when one of its functions runs.  Exits 1 when a
module no entry point reaches is not on :data:`ALLOWLIST`, when an
allowlist entry is reached or matches nothing, or when an entry point
fails.  Stdlib only, Python 3.11+ (``co_qualname``).  Run via ``make
reach``; it takes minutes, as the hook slows every call.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PY = sys.executable

#: Every way the project runs: the artefact commands, the artefact shape
#: checks, the differential oracles, the chaos suites and the service.
ENTRY_POINTS = {
    "all": [PY, "-m", "repro", "all"],
    "all --full": [PY, "-m", "repro", "all", "--full"],
    "scan": [PY, "-m", "repro", "scan", "--no-cache"],
    "scan --full": [PY, "-m", "repro", "scan", "--full", "--no-cache"],
    "figure1 observed": [PY, "-m", "repro", "figure1", "--no-cache",
                         "--trace", "{tmp}/t.json", "--metrics",
                         "{tmp}/m.prom", "--manifest", "{tmp}/man.json"],
    "benchmarks": [PY, "-m", "pytest", "-q", "benchmarks",
                   "--benchmark-disable"],
    "make diff": ["make", "diff"],
    "make chaos": ["make", "chaos"],
    "make serve-smoke": ["make", "serve-smoke"],
}

#: Unreached code kept on purpose, with the reason: a module (relative to
#: ``src/repro``), exempt from the gate, or ``module:pattern``, an
#: ``fnmatch`` pattern over the qualified names of known dead functions.
_ITEM5 = "awaits the TAB-S3 attestation probe (ROADMAP item 5)"
ALLOWLIST = {
    "attestation/protocol.py": _ITEM5,
    "arch/sancus.py:*attest*": _ITEM5,
    "arch/sancus.py:*key_for_verifier": _ITEM5,
    "arch/tytan.py:TyTAN.*seal*": _ITEM5,
    "arch/tytan.py:TyTAN.*boot*": _ITEM5,
    "crypto/aes.py:ConstantTimeAES.*":
        "awaits the leakage-contract checker (ROADMAP item 6)",
}

_HOOK = """\
import os, sys, threading
_fd = os.open(os.environ["REPRO_REACH_LOG"],
              os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_src = os.environ["REPRO_REACH_SRC"]
_seen = {}  # id -> code: holding the code keeps its id unique
def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            path = os.path.realpath(code.co_filename)
            if path.startswith(_src):
                os.write(_fd, ("%s\\t%d\\t%s\\n" % (
                    path[len(_src):], code.co_firstlineno,
                    code.co_name)).encode())
sys.setprofile(_hook)
threading.setprofile(_hook)
"""


def functions() -> dict[tuple[str, int, str], str]:
    """Every function in ``src/repro``: (module, first line, name) to
    qualified name.  Comprehensions count as part of their function."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    stack.append(const)
            name = code.co_name
            if code.co_flags & 1 and (name == "<lambda>"
                                      or not name.startswith("<")):
                found[module, code.co_firstlineno, name] = \
                    code.co_qualname
    return found


def trace() -> tuple[set[tuple[str, int, str]], list[str]]:
    """Run every entry point under the hook: the (module, first line,
    name) of every function that ran, and the entry points that failed."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "reach.log"
        log.touch()
        (Path(tmp) / "sitecustomize.py").write_text(_HOOK)
        pythonpath = os.pathsep.join([tmp, str(ROOT / "src")])
        env = {**os.environ, "PYTHONPATH": pythonpath,
               "REPRO_REACH_LOG": str(log),
               "REPRO_REACH_SRC": str(SRC) + os.sep,
               "REPRO_CACHE_DIR": str(Path(tmp) / "cells")}
        for name, argv in ENTRY_POINTS.items():
            argv = [arg.format(tmp=tmp) for arg in argv]
            if argv[0] == "make":  # the Makefile exports its own path
                argv += [f"PYTHON={PY}", f"PYTHONPATH={pythonpath}"]
            start = time.monotonic()
            done = subprocess.run(argv, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            status = "ok" if done.returncode == 0 else "FAILED"
            print(f"reach: {name}: {status} "
                  f"({time.monotonic() - start:.0f} s)", flush=True)
            if done.returncode:
                print(done.stderr[-2000:], file=sys.stderr)
                failed.append(name)
        reached = {(module, int(first), name) for module, first, name
                   in (line.split("\t")
                       for line in log.read_text().splitlines())}
    return reached, failed


def main() -> int:
    reached, failed = trace()
    known = functions()
    hit = known.keys() & reached
    # Modules without functions only hold data; they cannot go unreached.
    all_modules = {m for m, _, _ in known}
    reached_modules = {m for m, _, _ in hit}
    print(f"reach: {len(hit)} / {len(known)} functions reached, "
          f"{len(reached_modules)} / {len(all_modules)} modules")
    errors = [f"entry point failed: {name}" for name in failed]
    for module in sorted(all_modules - reached_modules):
        if module in ALLOWLIST:
            print(f"reach: unreached, allowed: {module} "
                  f"({ALLOWLIST[module]})")
        else:
            errors.append(f"no entry point reaches {module}")
    for entry in ALLOWLIST:
        module, _, pattern = entry.partition(":")
        matched = [key for key, qual in known.items() if key[0] == module
                   and fnmatchcase(qual, pattern or "*")]
        if not matched:
            errors.append(f"allowlisted {entry} matches no function")
        elif any(key in hit for key in matched):
            errors.append(f"allowlisted {entry} is reached; "
                          "remove it from ALLOWLIST")
    for error in errors:
        print(f"reach: FAIL: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
