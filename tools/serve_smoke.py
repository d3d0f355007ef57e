"""Serve-smoke gate: a chaos-killed worker fleet must finish byte-identically.

The CI-facing proof of the service layer's headline guarantee, end to
end with nothing mocked:

1. compute the fault-free quick-matrix payload fingerprints with a
   direct serial :class:`~repro.runner.engine.ExperimentRunner` (the
   oracle);
2. submit the same campaign to a fresh queue directory and run a
   2-process worker fleet against it with the *host-kill* chaos
   controller enabled — fleet members are SIGKILLed on deterministic
   draws and respawned, so leases genuinely expire and survivors
   reclaim the dead host's cells.  A
   :class:`~repro.service.chaos.MidJobKill` holds one cell until the
   fleet has finished every other, then lets it go and SIGKILLs the
   member that claims it, so at least one kill lands on a lease holder
   mid-job however fast the fleet runs;
3. gate on (a) the job completing inside an explicit timeout, (b) that
   kill having left the victim's lease on an unfinished cell, so the
   cell was only finished by a takeover after the lease expired (a
   chaos run where nothing had to be taken over proves nothing), and
   (c) every payload fingerprint being byte-identical to the
   fault-free oracle.

Exit status is the gate: 0 green, 1 red.  Run via ``make serve-smoke``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Explicit wall-clock guard: generous against CI noise, but a hang —
#: a lease that never expires, a worker that never takes over — must
#: fail the gate rather than the CI job's global timeout.
DEFAULT_TIMEOUT_S = 420.0


def fault_free_fingerprints(job) -> dict[str, str]:
    from repro.runner import ExperimentRunner
    runner = ExperimentRunner()
    results = runner.run(job.cells())
    if len(results) != len(job.cells()):
        raise SystemExit("oracle run failed to produce every cell")
    return {f"{spec.platform}/{spec.category}":
            payload["payload_sha256"]
            for spec, payload in results.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--lease-ttl", type=float, default=4.0)
    parser.add_argument("--kill-rate", type=float, default=0.5,
                        help="per-tick probability of SIGKILLing a "
                             "fleet member (default 0.5)")
    parser.add_argument("--kill-interval", type=float, default=2.0)
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S)
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="run in DIR and keep it (default: tempdir)")
    args = parser.parse_args(argv)

    from repro.service import (
        Coordinator,
        HostChaosConfig,
        JobQueue,
        JobSpec,
        MidJobKill,
        WorkerFleet,
    )
    from repro.runner import ResultCache

    workdir = Path(args.keep) if args.keep else Path(
        tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    queue = JobQueue(workdir / "queue")
    cache_root = workdir / "cells"
    job = JobSpec.matrix(quick=True)

    print(f"serve-smoke: oracle run ({len(job.cells())} cells) ...")
    oracle = fault_free_fingerprints(job)

    queue.submit(job)
    chaos = HostChaosConfig(kill_rate=args.kill_rate,
                            kill_interval_s=args.kill_interval)
    coordinator = Coordinator(queue, ResultCache(cache_root))
    fleet = WorkerFleet(queue.root, cache_root, size=args.workers,
                        ttl_s=args.lease_ttl, poll_s=0.1, chaos=chaos)

    start = time.monotonic()
    # The quick matrix can outrun the random controller's first tick:
    # the mid-job kill guarantees the host loss the gate is about.
    with MidJobKill(queue, job) as mid_job, fleet:
        def supervise(status) -> None:
            fleet.poll()
            mid_job.strike(fleet, status)

        status = coordinator.wait(job, timeout_s=args.timeout, poll_s=0.05,
                                  on_poll=supervise, wait_hook=fleet.wait)
        elapsed = time.monotonic() - start
        fleet.drain(timeout_s=30.0)
    print(f"serve-smoke: {status.summary()} in {elapsed:.1f}s "
          f"(kills={fleet.kills} respawns={fleet.respawns})")

    failures: list[str] = []
    if not status.complete:
        failures.append(f"job incomplete after {args.timeout:.0f}s: "
                        f"{status.pending} cells pending")
    if status.failed:
        failures.append(f"{status.failed} cells recorded terminal failures")
    if not mid_job.killed:
        failures.append("no lease holder was killed mid-job — "
                        "the run proved nothing")
    got = coordinator.fingerprints(job)
    for coords, fingerprint in sorted(oracle.items()):
        if got.get(coords) != fingerprint:
            failures.append(
                f"fingerprint mismatch for {coords}: "
                f"{(got.get(coords) or 'absent')[:12]} != "
                f"{fingerprint[:12]}")
    if failures:
        for failure in failures:
            print(f"serve-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"serve-smoke passed: {len(oracle)} fingerprints byte-identical "
          f"under {fleet.kills} host kill(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
