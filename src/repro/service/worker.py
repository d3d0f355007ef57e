"""Service workers: claim cells by lease, execute, publish to the cache.

A :class:`ServiceWorker` is one process's participation in the fleet.
Its loop is deliberately stateless between cells — every decision is
re-derived from the queue directory and the shared cache — so a worker
can be SIGKILLed at *any* instruction and the system's only loss is the
single in-flight cell, whose lease expires and whose next owner
recomputes the identical payload (cells are pure functions of their
specs; the content-addressed cache makes double-publish harmless).

Per cell the worker:

1. skips it when the shared cache already holds an intact payload or a
   terminal failure record exists (completion is *observed*, never
   tracked);
2. claims the cell's **cache key** with an ``O_EXCL`` lease — keying
   the lease by content address rather than by (job, cell) is what
   gives single-flight *across jobs and hosts*: two campaigns sharing a
   cell contend on one lease, so a cache stampede cannot start;
3. executes the cell through a serial, supervised
   :class:`~repro.runner.engine.ExperimentRunner` (same retries, same
   integrity digests, same outcome taxonomy as a local run) while a
   keepalive thread heartbeats the lease;
4. publishes the payload via the runner's crash-safe cache write and
   releases the lease (or records a terminal failure).

Losing a lease race is not an error: the loser backs off with the
repo's deterministic-jitter schedule (:mod:`repro.runner.retry` — the
same derivation that schedules cell retries, so contention behaviour
replays exactly) and moves on to the next claimable cell.

``SIGTERM``/``SIGINT`` request a *graceful drain*: the worker finishes
the in-flight cell, releases every lease it holds, and returns — a
drained worker leaves the queue exactly as claimable as before it
started, which the drain test asserts.
"""

from __future__ import annotations

import os
import select
import signal
import time
from dataclasses import dataclass

from repro.runner.cache import ResultCache
from repro.runner.engine import (
    CellSpec,
    ExperimentRunner,
    cache_key_for,
    payload_intact,
)
from repro.runner.retry import RetryPolicy
from repro.service.jobs import JobSpec
from repro.service.lease import (
    DEFAULT_TTL_S,
    Lease,
    default_owner_id,
    try_acquire,
)
from repro.service.queue import JobQueue


@dataclass
class WorkerStats:
    """What one worker contributed to the fleet."""

    cells_computed: int = 0
    cells_already_done: int = 0
    cells_failed: int = 0
    lease_losses: int = 0
    leases_reclaimed_stale: int = 0
    passes: int = 0
    drained: bool = False

    def summary(self) -> str:
        return (f"worker: computed={self.cells_computed} "
                f"already-done={self.cells_already_done} "
                f"failed={self.cells_failed} "
                f"lease-losses={self.lease_losses} "
                f"passes={self.passes}"
                + (" (drained)" if self.drained else ""))


class ServiceWorker:
    """One worker process of the evaluation service.

    ``owner_id`` defaults to a host/pid/nonce identity so lease files
    name their holder across machines; ``ttl_s`` is the lease TTL (and
    therefore the recovery latency after a host death); ``retry``
    drives both in-cell retries and the lease-contention backoff.
    """

    def __init__(self, queue: JobQueue,
                 cache: ResultCache | None = None,
                 owner_id: str | None = None,
                 ttl_s: float = DEFAULT_TTL_S,
                 poll_s: float = 0.2,
                 retry: RetryPolicy | None = None,
                 timeout_s: float | None = None) -> None:
        self.queue = queue
        self.cache = cache if cache is not None else queue.default_cache()
        self.owner_id = owner_id or default_owner_id()
        self.ttl_s = float(ttl_s)
        self.poll_s = float(poll_s)
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout_s = timeout_s
        self.stats = WorkerStats()
        self._draining = False
        self._current_lease: Lease | None = None
        #: The idle wait's self-pipe (read end, write end), while open.
        self._wake: tuple[int, int] | None = None

    # -- drain / signals ---------------------------------------------------

    def request_drain(self) -> None:
        """Finish the in-flight cell, release leases, then stop.

        Safe to call from a signal handler: it sets a flag and writes a
        byte to the idle wait's pipe, so a worker waiting for work wakes
        at once instead of after ``poll_s``.
        """
        self._draining = True
        wake = self._wake
        if wake is not None:
            try:
                os.write(wake[1], b"\0")
            except OSError:
                pass

    def idle(self, timeout_s: float) -> None:
        """Wait up to ``timeout_s``; :meth:`request_drain` ends it early."""
        if self._wake is None:
            read_end, write_end = os.pipe()
            os.set_blocking(write_end, False)
            self._wake = (read_end, write_end)
        if not self._draining:
            select.select([self._wake[0]], [], [], timeout_s)

    def close(self) -> None:
        """Close the idle wait's pipe (a later :meth:`idle` reopens it)."""
        wake, self._wake = self._wake, None
        if wake is not None:
            for fd in wake:
                os.close(fd)

    @property
    def draining(self) -> bool:
        return self._draining

    def install_signal_handlers(self):
        """Route SIGTERM/SIGINT to :meth:`request_drain`.

        Returns a zero-argument callable restoring the previous
        handlers (main thread only — Python's signal rules).
        """
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *_args: self.request_drain())

        def restore() -> None:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

        return restore

    # -- the loop ----------------------------------------------------------

    def run_until_drained(self, max_cells: int | None = None,
                          max_idle_passes: int | None = None) -> WorkerStats:
        """Work until every known cell is terminal (cached or failed),
        a drain is requested, or ``max_cells`` computations are done.

        ``max_idle_passes`` bounds how many consecutive passes may make
        no progress while cells remain non-terminal (leased by someone
        else, or jobs arriving late); ``None`` waits indefinitely —
        the fleet's chaos guarantee is that stale leases *will* expire,
        so waiting is always productive eventually.
        """
        self.stats = WorkerStats()
        self.cache.sweep()
        idle = 0
        try:
            while not self._draining:
                self.stats.passes += 1
                progressed, pending = self._pass(max_cells)
                if pending == 0:
                    break
                if (max_cells is not None
                        and self.stats.cells_computed >= max_cells):
                    break
                if progressed:
                    idle = 0
                    continue
                idle += 1
                if max_idle_passes is not None and idle > max_idle_passes:
                    break
                self.idle(self.poll_s)
        finally:
            self.close()
        self.stats.drained = self._draining
        self._release_current()
        return self.stats

    def _pass(self, max_cells: int | None = None) -> tuple[bool, int]:
        """One sweep over every known job's cells.

        Returns ``(progressed, pending)`` where ``pending`` counts
        cells that are not yet terminal.  The cell order is rotated by
        a stable function of the worker identity so a fleet's workers
        start at different offsets and mostly avoid contending for the
        same lease.
        """
        progressed = False
        pending = 0
        for job_id in self.queue.job_ids():
            job = self.queue.load(job_id)
            if job is None:
                continue
            for spec in self._rotated(job.cells()):
                if self._draining:
                    return progressed, pending + 1
                if (max_cells is not None
                        and self.stats.cells_computed >= max_cells):
                    return progressed, pending + 1
                state = self._advance(job, spec)
                if state == "computed":
                    progressed = True
                elif state in ("busy", "lost-race"):
                    pending += 1
        return progressed, pending

    def _rotated(self, cells: list[CellSpec]) -> list[CellSpec]:
        if not cells:
            return cells
        offset = sum(ord(ch) for ch in self.owner_id) % len(cells)
        return cells[offset:] + cells[:offset]

    # -- one cell ----------------------------------------------------------

    def _advance(self, job: JobSpec, spec: CellSpec) -> str:
        """Move one cell toward terminal state; returns what happened:
        ``"done"`` (already terminal), ``"computed"``, ``"failed"``,
        ``"busy"`` (fresh foreign lease) or ``"lost-race"``."""
        key = cache_key_for(spec)
        if self.queue.failure(key) is not None:
            return "done"
        if self._cached_ok(key):
            self.stats.cells_already_done += 1
            return "done"
        state = self.queue.lease_state(key)
        if state == "held":
            return "busy"
        was_reapable = state in ("stale", "torn", "skewed")
        lease = try_acquire(self.queue.lease_path(key), self.owner_id,
                            ttl_s=self.ttl_s)
        if lease is None:
            self.stats.lease_losses += 1
            time.sleep(self._backoff_s(spec))
            return "lost-race"
        if was_reapable:
            self.stats.leases_reclaimed_stale += 1
        self._current_lease = lease
        try:
            # The lease holder re-checks the cache: the previous owner
            # may have published before dying, making this a free hit.
            if self._cached_ok(key):
                self.stats.cells_already_done += 1
                return "done"
            return self._execute(job, spec, key, lease)
        finally:
            self._release_current()

    def _execute(self, job: JobSpec, spec: CellSpec, key: str,
                 lease: Lease) -> str:
        lease.start_keepalive()
        runner = ExperimentRunner(
            jobs=1, cache=self.cache, timeout_s=self.timeout_s,
            retry=self.retry)
        results = runner.run([spec])
        outcome = runner.stats.outcomes.get((spec.platform, spec.category))
        if spec in results and outcome is not None and outcome.ok:
            self.stats.cells_computed += 1
            return "computed"
        self.stats.cells_failed += 1
        self.queue.mark_failed(key, {
            "job_id": job.job_id,
            "platform": spec.platform,
            "category": spec.category,
            "status": outcome.status if outcome else "failed",
            "attempts": outcome.attempts if outcome else 0,
            "error": (outcome.error if outcome else None) or "unknown",
            "owner": self.owner_id,
        })
        return "failed"

    def _release_current(self) -> None:
        lease, self._current_lease = self._current_lease, None
        if lease is not None:
            lease.release()

    def _cached_ok(self, key: str) -> bool:
        payload = self.cache.get(key)
        return payload is not None and payload_intact(payload)

    def _backoff_s(self, spec: CellSpec) -> float:
        """Deterministic contention backoff: the same jitter derivation
        that schedules cell retries, scoped to this cell's coordinates,
        scaled to stay well under a lease TTL."""
        fraction = self.retry.jitter_fraction(
            spec.seed, spec.platform, spec.category, 1)
        return min(self.retry.base_delay_s * (0.5 + fraction),
                   self.ttl_s / 4.0)


def run_worker_process(queue_root: str, cache_root: str | None = None,
                       ttl_s: float = DEFAULT_TTL_S, poll_s: float = 0.2,
                       forever: bool = False,
                       timeout_s: float | None = None) -> WorkerStats:
    """Entry point for ``python -m repro worker``: signals installed,
    drain on SIGTERM/SIGINT, exit when the queue is fully terminal
    (or never, with ``forever``, for long-lived fleet members)."""
    queue = JobQueue(queue_root)
    cache = ResultCache(cache_root) if cache_root else None
    worker = ServiceWorker(queue, cache=cache, ttl_s=ttl_s, poll_s=poll_s,
                           timeout_s=timeout_s)
    restore = worker.install_signal_handlers()
    try:
        if forever:
            while not worker.draining:
                worker.run_until_drained()
                worker.idle(poll_s)
            return worker.stats
        return worker.run_until_drained()
    finally:
        worker.close()
        restore()
