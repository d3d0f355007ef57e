"""Command-line entry point: regenerate the paper's artefacts.

Usage::

    python -m repro figure1            # Figure 1 from live attacks
    python -m repro                    # same (figure1 is the default)
    python -m repro figure1 --jobs 4   # ... cells fanned over 4 workers
    python -m repro figure1 --full     # ... non-quick attack sizing
    python -m repro architectures      # TAB-S3 feature comparison
    python -m repro cache              # TAB-S41 cache side channels
    python -m repro cache --jobs 4     # ... its 5 rows over 4 workers
    python -m repro transient          # TAB-S42 transient attacks
    python -m repro advisor            # Section-6 recommendations demo
    python -m repro all                # everything above

Every artefact command runs its cells through one executor
(:func:`repro.runner.engine.execute_spec`) on the fast execution lanes:
attack cells and TAB-S41 rows go through the batched attack kernels
(:mod:`repro.attacks.batch`) and power capture, workload cells through
the kernel sweep's lane replay (:mod:`repro.core.sweep`) and scan cells
through the memoized explorer (:mod:`repro.spec.memo`).  All are
bit-identical to the retained oracles, which library callers select
with ``ExperimentRunner(reference=True)`` (``repro scan --no-memo`` on
the command line); configurations the kernels do not model fall back
to the scalar path on their own.

Evaluation as a service (the crash-safe multi-host job layer,
:mod:`repro.service`)::

    python -m repro submit --queue DIR             # enqueue the quick matrix
    python -m repro serve --queue DIR --workers 2  # run a worker fleet
    python -m repro worker --queue DIR             # one worker, drain & exit
    python -m repro status --queue DIR             # job progress snapshot

``submit`` publishes an atomic, content-addressed job file;
``serve``/``worker`` processes claim cells via leased single-flight on
the shared result cache and survive SIGKILL of any member (leases
expire and survivors take over); ``--chaos RATE`` under ``serve`` turns
on the *host-kill* chaos controller, which SIGKILLs and respawns fleet
members to prove it.  ``submit --from-manifest PATH`` cold-resumes the
campaign a RunManifest describes — cells the shared cache already
holds are skipped, not recomputed.

Observability (``--trace``, ``--metrics``, ``--manifest``) makes a
figure1, cache or scan run emit machine-readable evidence: a Chrome
``trace_event`` file of every runner/cell/attack phase (lane-decline
events included), a Prometheus (or JSON) metrics snapshot, and a
diffable per-run manifest.  All three default to off, which keeps
execution on the unobserved fast path.

Cell results are memoised on disk (``~/.cache/repro/cells`` or
``$REPRO_CACHE_DIR``) keyed by (package version, knobs, seed, platform,
category); ``--no-cache`` bypasses the cache and ``--clear-cache``
explicitly invalidates it first (under ``all``, once, before figure1).
Runner statistics (mode, per-cell wall time, cache hits/misses, worker
utilisation) are printed after figure1 and scan runs.

Execution is supervised, for figure1, scan and TAB-S41 rows alike:
each cell runs under a ``--timeout``, failing cells are retried
``--retries`` times with deterministic-jitter backoff, hung or crashed
workers are replaced, and Figure 1 cells that still fail render as
explicitly not-evaluated (a scan cell or TAB-S41 row aborts its
command; ``--fail-fast`` aborts on the first failure).  ``--chaos
RATE`` turns the repo's fault-injection discipline on the harness
itself.
"""

from __future__ import annotations

import argparse
import sys
import time


def _make_observer(args, run_seed: int):
    """An :class:`~repro.obs.Observability` sink, or ``None`` when no
    telemetry artefact was requested (the no-op fast path)."""
    if not (args.trace or args.metrics or args.manifest):
        return None
    from repro.obs import Observability
    command = "repro " + " ".join(
        part for part in (args.command, "--full" if args.full else "")
        if part)
    return Observability(run_seed=run_seed, command=command)


def _write_artifacts(args, observer) -> None:
    if observer is None:
        return
    for path in observer.write_artifacts(trace=args.trace,
                                         metrics=args.metrics,
                                         manifest=args.manifest):
        print(f"wrote {path}")


def _make_runner(args, observer=None, reference=False):
    from repro.runner import (
        ChaosConfig,
        ExperimentRunner,
        ResultCache,
        RetryPolicy,
    )
    cache = ResultCache()
    if args.clear_cache:
        removed = cache.clear()
        print(f"cache cleared: {removed} entries removed")
    chaos = ChaosConfig(rate=args.chaos) if args.chaos > 0 else None
    return ExperimentRunner(
        jobs=args.jobs,
        cache=None if args.no_cache else cache,
        timeout_s=args.timeout if args.timeout > 0 else None,
        retry=RetryPolicy(max_retries=args.retries),
        chaos=chaos,
        fail_fast=args.fail_fast,
        observer=observer,
        reference=reference)


def _figure1(args) -> None:
    from repro.core import generate_figure1
    observer = _make_observer(args, run_seed=0x2019)
    runner = _make_runner(args, observer=observer)
    figure = generate_figure1(quick=not args.full, runner=runner)
    print(figure.render())
    print(f"\ncell agreement with the published Figure 1: "
          f"{figure.agreement_with_paper():.0%}")
    print(f"\n{runner.stats.summary()}")
    if args.profile:
        print(f"\n{runner.stats.profile()}")
    _write_artifacts(args, observer)


def _architectures(args) -> None:
    from repro.core.comparison import (
        architecture_feature_table,
        render_table,
    )
    headers, rows = architecture_feature_table()
    print(render_table(headers, rows))


def _cache(args) -> None:
    from repro.core.comparison import (
        cache_defence_table,
        render_cache_defence_table,
    )
    observer = _make_observer(args, run_seed=0x41)
    runner = _make_runner(args, observer=observer)
    rows = cache_defence_table(quick=not args.full, runner=runner)
    # No runner summary: the table is the command's whole stdout.
    print(render_cache_defence_table(rows))
    _write_artifacts(args, observer)


def _transient(args) -> None:
    from repro.core.comparison import (
        render_table,
        transient_applicability_table,
    )
    headers, rows = transient_applicability_table()
    print(render_table(headers, rows))


def _scan(args) -> int:
    from repro.spec import run_scan
    from repro.spec.scanner import DEFAULT_SCAN_SEED
    observer = _make_observer(args, run_seed=DEFAULT_SCAN_SEED)
    runner = _make_runner(args, observer=observer, reference=args.no_memo)
    report = run_scan(quick=not args.full, runner=runner)
    print(report.render())
    print(f"\n{runner.stats.summary()}")
    if args.profile:
        print(f"\n{runner.stats.profile()}")
    _write_artifacts(args, observer)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.report_json}")
    if args.report_txt:
        with open(args.report_txt, "w", encoding="utf-8") as fh:
            fh.write(report.render() + "\n")
        print(f"wrote {args.report_txt}")
    violations = report.violations()
    if violations:
        print("\nEXPECTATION VIOLATIONS:")
        for violation in violations:
            print(f"  {violation}")
        if args.check:
            return 1
    return 0


def _advisor(args) -> None:
    from repro.attacks.result import AttackCategory
    from repro.common import PlatformClass
    from repro.core import Requirements, recommend_architecture
    for platform in PlatformClass:
        reqs = Requirements(
            platform=platform,
            threats=frozenset({AttackCategory.REMOTE, AttackCategory.LOCAL,
                               AttackCategory.MICROARCHITECTURAL}),
            need_multiple_enclaves=True)
        print(f"\n{platform.value}:")
        for advice in recommend_architecture(reqs)[:2]:
            print(f"  {advice}")


def _queue_root(args):
    import os
    from pathlib import Path
    if args.queue:
        return Path(args.queue)
    env = os.environ.get("REPRO_QUEUE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "queue"


def _service_parts(args):
    from repro.runner import ResultCache
    from repro.service import Coordinator, JobQueue
    queue = JobQueue(_queue_root(args))
    cache_root = args.cache_dir or (queue.root / "cells")
    cache = ResultCache(cache_root)
    return queue, cache_root, cache, Coordinator(queue, cache)


def _submit(args) -> None:
    from repro.service import JobSpec
    queue, _, cache, coordinator = _service_parts(args)
    if args.from_manifest:
        from repro.obs.manifest import RunManifest
        job = JobSpec.from_manifest(RunManifest.read(args.from_manifest))
        print(f"resuming campaign from {args.from_manifest}")
    else:
        job = JobSpec.matrix(quick=not args.full)
    job_id = queue.submit(job)
    status = coordinator.status(job)
    print(f"submitted {job_id}: {len(job.cells())} cells "
          f"({status.done} already cached) -> {queue.root}")


def _status(args) -> None:
    _, _, _, coordinator = _service_parts(args)
    statuses = coordinator.statuses()
    if not statuses:
        print("no jobs in queue")
        return
    for status in statuses:
        print(status.summary())
    if args.metrics:
        print(f"wrote {coordinator.write_metrics(args.metrics)}")


def _worker(args) -> None:
    from repro.service import run_worker_process
    queue, cache_root, _, _ = _service_parts(args)
    stats = run_worker_process(
        str(queue.root), str(cache_root),
        ttl_s=args.lease_ttl, poll_s=args.poll, forever=args.forever,
        timeout_s=args.timeout if args.timeout > 0 else None)
    print(stats.summary())


def _serve(args) -> None:
    started = time.perf_counter()
    from repro.runner.engine import _import_cell_modules
    from repro.service import HostChaosConfig, WorkerFleet
    queue, cache_root, _, coordinator = _service_parts(args)
    jobs = [job for job in map(queue.load, queue.job_ids())
            if job is not None]
    if not jobs:
        print("no jobs in queue; submit one first")
        return
    # Fleet members are forked from this process: import the cells'
    # modules here once, not once per member.
    _import_cell_modules(spec for job in jobs for spec in job.cells())
    chaos = (HostChaosConfig(kill_rate=args.chaos, kill_interval_s=2.0)
             if args.chaos > 0 else None)
    fleet = WorkerFleet(queue.root, cache_root, size=args.workers,
                        ttl_s=args.lease_ttl, poll_s=args.poll,
                        chaos=chaos)

    def on_poll(status):
        fleet.poll()
        if args.progress:
            coordinator.append_progress(args.progress, status)

    with fleet:
        coordinator.record_fleet_phase("start_to_fork",
                                       time.perf_counter() - started)
        for job in jobs:
            status = coordinator.wait(job, timeout_s=args.wait_timeout,
                                      poll_s=args.poll, on_poll=on_poll,
                                      wait_hook=fleet.wait)
            completed = time.perf_counter()
            print(status.summary())
            if args.manifest:
                path = coordinator.manifest(
                    job, command="repro serve").write(args.manifest)
                print(f"wrote {path}")
        fleet.drain(timeout_s=30.0)
    coordinator.record_fleet_phase("complete_to_exit",
                                   time.perf_counter() - completed)
    published = [coordinator.first_published_at(job, fleet.started_at)
                 for job in jobs]
    published = [t for t in published if t is not None]
    if published:
        coordinator.record_fleet_phase("fork_to_first_cell",
                                       min(published) - fleet.started_at)
    if fleet.kills:
        print(f"chaos: {fleet.kills} worker(s) SIGKILLed, "
              f"{fleet.respawns} respawned")
    if args.metrics:
        print(f"wrote {coordinator.write_metrics(args.metrics)}")


_COMMANDS = {
    "figure1": _figure1,
    "architectures": _architectures,
    "cache": _cache,
    "transient": _transient,
    "advisor": _advisor,
}

#: Service verbs: excluded from ``all`` (``serve`` blocks on a fleet).
_SERVICE_COMMANDS = {
    "submit": _submit,
    "serve": _serve,
    "worker": _worker,
    "status": _status,
}

#: Analysis verbs: excluded from ``all`` (``scan --check`` is a CI gate
#: with its own exit-code semantics).
_ANALYSIS_COMMANDS = {
    "scan": _scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artefacts of 'In Hardware We Trust' "
                    "(DAC 2019) from simulation.")
    parser.add_argument("command",
                        choices=[*_COMMANDS, *_SERVICE_COMMANDS,
                                 *_ANALYSIS_COMMANDS, "all"],
                        nargs="?", default="figure1",
                        help="which artefact to regenerate, a service "
                             "verb (submit/serve/worker/status), or "
                             "'scan' (the Spectre gadget-corpus sweep) "
                             "(default: figure1)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent cells "
                             "(default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell; skip the on-disk "
                             "result cache")
    parser.add_argument("--clear-cache", action="store_true",
                        help="invalidate the on-disk result cache before "
                             "running")
    parser.add_argument("--full", action="store_true",
                        help="full (non-quick) attack sizing: more "
                             "traces, longer secrets, bigger keys")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-cell profile (wall time, "
                             "simulated instructions/second, and outcome/"
                             "retry status) after figure1 or scan runs — "
                             "for scans that is a per-config timing "
                             "summary (one cell per config)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        metavar="SECONDS",
                        help="per-cell wall-time budget before a worker "
                             "counts as hung and is replaced (default: "
                             "120; 0 disables)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="re-executions permitted per failing cell, "
                             "with capped exponential backoff and "
                             "deterministic jitter (default: 2)")
    parser.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                        help="inject harness faults (worker crash/hang/"
                             "raise/corrupt) into this fraction of cell "
                             "attempts — exercises the recovery paths "
                             "(default: 0, off)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort on the first cell failure instead of "
                             "recording it as a not-evaluated outcome "
                             "(the historical behaviour)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace_event JSON of the run "
                             "(open in chrome://tracing or Perfetto) plus "
                             "a sibling .jsonl of the raw records "
                             "(figure1, cache and scan runs)")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write run metrics: Prometheus text "
                             "exposition, or JSON when PATH ends in "
                             ".json (figure1, cache and scan runs)")
    parser.add_argument("--manifest", metavar="PATH", default=None,
                        help="write the diffable RunManifest JSON "
                             "(version, knobs, seeds, outcomes, payload "
                             "fingerprints, metric snapshot) "
                             "(figure1, cache and scan runs)")
    parser.add_argument("--queue", metavar="DIR", default=None,
                        help="service queue directory (default: "
                             "$REPRO_QUEUE_DIR or ~/.cache/repro/queue)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="shared result-cache directory for service "
                             "verbs (default: <queue>/cells)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="fleet size for 'serve' (default: 2)")
    parser.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="SECONDS",
                        help="lease TTL: how long after a host stops "
                             "heartbeating its cells are reclaimed "
                             "(default: 30)")
    parser.add_argument("--poll", type=float, default=0.2,
                        metavar="SECONDS",
                        help="worker/coordinator poll interval: the "
                             "longest a wait lasts, since a fleet "
                             "member's exit or SIGTERM ends it early "
                             "(default: 0.2)")
    parser.add_argument("--wait-timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="'serve': max wall time to wait per job "
                             "before reporting it incomplete "
                             "(default: 600)")
    parser.add_argument("--forever", action="store_true",
                        help="'worker': keep polling for new jobs "
                             "instead of exiting once drained")
    parser.add_argument("--from-manifest", metavar="PATH", default=None,
                        help="'submit': reconstruct and resubmit the "
                             "campaign a RunManifest describes "
                             "(cold resume; cached cells are skipped)")
    parser.add_argument("--progress", metavar="PATH", default=None,
                        help="'serve': append JSONL progress records "
                             "per poll to PATH")
    parser.add_argument("--check", action="store_true",
                        help="'scan': exit nonzero on any expectation "
                             "violation (safe gadget leaking or "
                             "vulnerable gadget reported clean) — the "
                             "CI gate")
    parser.add_argument("--report-json", metavar="PATH", default=None,
                        help="'scan': write the canonical JSON leak "
                             "report to PATH")
    parser.add_argument("--report-txt", metavar="PATH", default=None,
                        help="'scan': write the rendered leak-report "
                             "table to PATH")
    parser.add_argument("--no-memo", action="store_true",
                        help="'scan': use the reference (unmemoized) "
                             "explorer instead of the memoized engine — "
                             "slower, byte-identical reports (the CI "
                             "cross-check lane)")
    args = parser.parse_args(argv)
    if args.command == "all":
        for name, command in _COMMANDS.items():
            print(f"\n{'=' * 20} {name} {'=' * 20}")
            command(args)
            # One-shot flags act on figure1 only: cache must neither clear
            # figure1's cells nor overwrite its trace/metrics/manifest.
            args.clear_cache = False
            args.trace = args.metrics = args.manifest = None
    else:
        command = {**_COMMANDS, **_SERVICE_COMMANDS,
                   **_ANALYSIS_COMMANDS}[args.command]
        return int(command(args) or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
