"""The coordinator: observe job progress, stream it, prove completion.

The queue protocol needs no coordinator to *function* — workers drive
jobs to completion from the directory state alone — so this one is
purely observational, which is what makes it crash-safe: everything it
reports is re-derived from (queue directory + shared cache) on every
poll, and a coordinator restarted cold reconstructs the same view.

Progress streams through the existing observability layer: a
:class:`~repro.obs.metrics.MetricsRegistry` fed per poll (exportable as
Prometheus text via :func:`repro.obs.export.write_metrics`), an
append-only JSONL progress feed, and — once a job completes — a
:class:`~repro.obs.manifest.RunManifest` whose outcome rows and payload
fingerprints are byte-compatible with a direct
:class:`~repro.runner.engine.ExperimentRunner` run of the same grid.
The manifest is also the cold-resume artefact:
:meth:`repro.service.jobs.JobSpec.from_manifest` turns one back into a
submittable job, and every cell the manifest's cache still holds is
skipped rather than recomputed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import write_metrics
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.runner.cache import ResultCache
from repro.runner.engine import (
    CellSpec,
    cache_key_for,
    payload_intact,
)
from repro.runner.stats import CellOutcome, RunnerStats
from repro.service.jobs import JobSpec
from repro.service.queue import JobQueue


@dataclass(frozen=True)
class JobStatus:
    """One job's progress, derived entirely from shared state."""

    job_id: str
    total: int
    done: int
    failed: int
    leased: int
    reapable: int
    owners: tuple[str, ...] = ()

    @property
    def pending(self) -> int:
        return self.total - self.done - self.failed

    @property
    def complete(self) -> bool:
        """Every cell terminal (a payload or a failure record exists)."""
        return self.total > 0 and self.pending == 0

    @property
    def succeeded(self) -> bool:
        return self.complete and self.failed == 0

    def summary(self) -> str:
        line = (f"{self.job_id}: {self.done}/{self.total} done"
                f" ({self.leased} leased, {self.failed} failed,"
                f" {self.pending} pending)")
        if self.owners:
            line += f" workers: {', '.join(sorted(set(self.owners)))}"
        return line


@dataclass
class _Progress:
    """Mutable per-coordinator metric handles."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def __post_init__(self) -> None:
        m = self.registry
        self.done = m.gauge("repro_service_cells_done",
                            "Cells with an intact cached payload")
        self.pending = m.gauge("repro_service_cells_pending",
                               "Cells not yet terminal")
        self.failed = m.gauge("repro_service_cells_failed",
                              "Cells with a terminal failure record")
        self.leased = m.gauge("repro_service_cells_leased",
                              "Cells currently claimed by a fresh lease")
        self.jobs = m.gauge("repro_service_jobs",
                            "Jobs visible in the queue")
        self.polls = m.counter("repro_service_polls_total",
                               "Coordinator status polls")
        self.wakes = m.counter("repro_service_wakes_total",
                               "Coordinator waits ended, by cause")
        self.fleet = m.gauge("repro_service_fleet_seconds",
                             "Where a serve run's fleet spent its time, "
                             "by phase")


class Coordinator:
    """Cold-restartable observer of one queue (and its shared cache)."""

    def __init__(self, queue: JobQueue,
                 cache: ResultCache | None = None) -> None:
        self.queue = queue
        self.cache = cache if cache is not None else queue.default_cache()
        self._progress = _Progress()

    @property
    def metrics(self) -> MetricsRegistry:
        return self._progress.registry

    # -- status ------------------------------------------------------------

    def cell_state(self, spec: CellSpec) -> str:
        """``"done" | "failed" | "leased" | "reapable" | "pending"``."""
        key = cache_key_for(spec)
        payload = self.cache.get(key)
        if payload is not None and payload_intact(payload):
            return "done"
        if self.queue.failure(key) is not None:
            return "failed"
        lease = self.queue.lease_state(key)
        if lease == "held":
            return "leased"
        if lease in ("stale", "torn", "skewed"):
            return "reapable"
        return "pending"

    def status(self, job: JobSpec) -> JobStatus:
        counts = {"done": 0, "failed": 0, "leased": 0, "reapable": 0,
                  "pending": 0}
        owners: list[str] = []
        cells = job.cells()
        for spec in cells:
            state = self.cell_state(spec)
            counts[state] += 1
            if state == "leased":
                owner = self.queue.lease_owner(cache_key_for(spec))
                if owner:
                    owners.append(owner)
        status = JobStatus(
            job_id=job.job_id, total=len(cells), done=counts["done"],
            failed=counts["failed"], leased=counts["leased"],
            reapable=counts["reapable"], owners=tuple(owners))
        self._record(status)
        return status

    def statuses(self) -> list[JobStatus]:
        out = []
        for job_id in self.queue.job_ids():
            job = self.queue.load(job_id)
            if job is not None:
                out.append(self.status(job))
        return out

    def _record(self, status: JobStatus) -> None:
        p = self._progress
        p.polls.inc(job=status.job_id)
        p.done.set(status.done, job=status.job_id)
        p.pending.set(status.pending, job=status.job_id)
        p.failed.set(status.failed, job=status.job_id)
        p.leased.set(status.leased, job=status.job_id)
        p.jobs.set(len(self.queue.job_ids()))

    # -- waiting -----------------------------------------------------------

    def wait(self, job: JobSpec, timeout_s: float = 600.0,
             poll_s: float = 0.25,
             on_poll=None, wait_hook=None) -> JobStatus:
        """Poll until the job is complete or ``timeout_s`` elapses.

        Returns the final status either way — the caller decides
        whether an incomplete job is an error.  ``on_poll`` (if given)
        receives every intermediate :class:`JobStatus`, which is how
        the CLI streams progress and the fleet injects chaos ticks.
        Between polls the coordinator calls ``wait_hook(poll_s)``,
        which blocks until an event or for at most ``poll_s`` and
        returns the wake's cause (``repro serve`` passes
        :meth:`~repro.service.fleet.WorkerFleet.wait`, which wakes on a
        member's exit); without one it sleeps ``poll_s``.  Wakes are
        counted by cause in ``repro_service_wakes_total``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job)
            if on_poll is not None:
                on_poll(status)
            if status.complete or time.monotonic() >= deadline:
                return status
            if wait_hook is None:
                time.sleep(poll_s)
                cause = "timeout"
            else:
                cause = wait_hook(poll_s)
            self._progress.wakes.inc(cause=cause)

    def record_fleet_phase(self, phase: str, seconds: float) -> None:
        """Record how long one phase of a serve run's fleet took."""
        self._progress.fleet.set(seconds, phase=phase)

    def first_published_at(self, job: JobSpec,
                           since: float) -> float | None:
        """Wall-clock time the first of ``job``'s payloads written at or
        after ``since`` was published, or ``None`` if none was.

        A payload's publish time is its cache file's modification time:
        the cache writes the whole entry, then renames it into place.
        Take ``since`` from the same clock, as
        :attr:`~repro.service.fleet.WorkerFleet.started_at` does.
        """
        times = []
        for spec in job.cells():
            try:
                mtime = self.cache.path_for(cache_key_for(spec)).stat(
                ).st_mtime
            except OSError:
                continue
            if mtime >= since:
                times.append(mtime)
        return min(times, default=None)

    # -- results -----------------------------------------------------------

    def collect(self, job: JobSpec) -> dict[CellSpec, dict]:
        """Every completed cell's payload, straight from the cache."""
        results: dict[CellSpec, dict] = {}
        for spec in job.cells():
            payload = self.cache.get(cache_key_for(spec))
            if payload is not None and payload_intact(payload):
                results[spec] = payload
        return results

    def fingerprints(self, job: JobSpec) -> dict[str, str]:
        """``{"platform/category": payload_sha256}`` for completed cells."""
        return {
            f"{spec.platform}/{spec.category}":
                payload.get("payload_sha256", "")
            for spec, payload in self.collect(job).items()}

    def manifest(self, job: JobSpec, command: str = "",
                 version: str | None = None) -> RunManifest:
        """A RunManifest equivalent to a direct runner's for this grid."""
        if version is None:
            import repro
            version = repro.__version__
        stats = RunnerStats(jobs=0, mode="service")
        for spec in job.cells():
            coords = (spec.platform, spec.category)
            key = cache_key_for(spec)
            state = self.cell_state(spec)
            if state == "done":
                stats.outcomes[coords] = CellOutcome(status="ok", attempts=0)
                stats.cache_hits += 1
            elif state == "failed":
                record = self.queue.failure(key) or {}
                stats.outcomes[coords] = CellOutcome(
                    status=str(record.get("status", "failed")),
                    attempts=int(record.get("attempts", 0)),
                    error=record.get("error"))
            else:
                # Pending cells are recorded too: a mid-flight manifest
                # must describe the *whole* campaign, or cold resume
                # via JobSpec.from_manifest would reconstruct only the
                # finished slice of the grid.
                stats.outcomes[coords] = CellOutcome(status="pending",
                                                     attempts=0)
                stats.cache_misses += 1
        return RunManifest.from_stats(
            version, stats, command=command or f"repro service {job.job_id}",
            seed=job.seed, knobs=dict(job.knobs),
            fingerprints=self.fingerprints(job),
            metrics=self.metrics.to_json())

    # -- artefacts ---------------------------------------------------------

    def append_progress(self, path: str | Path,
                        status: JobStatus) -> None:
        """Append one JSONL progress record (the streaming feed)."""
        record = {
            "job_id": status.job_id, "total": status.total,
            "done": status.done, "failed": status.failed,
            "leased": status.leased, "pending": status.pending,
            "ts": round(time.time(), 3),
        }
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def write_metrics(self, path: str | Path) -> Path:
        """Prometheus (or JSON) snapshot via the existing exporter."""
        return write_metrics(self.metrics, path)
