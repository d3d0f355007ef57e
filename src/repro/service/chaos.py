"""Host-level chaos: faults the process-level harness cannot express.

PR 3's chaos harness (:mod:`repro.runner.chaos`) sabotages individual
cell *attempts* inside a supervised runner's workers.  This module
scales the same discipline to the service's failure domain — whole
hosts and the shared directory protocol between them:

``kill-worker``
    SIGKILL an entire worker process mid-job (not one pool worker — the
    fleet member itself), exactly like a host dying.  Its held lease
    stops heartbeating, expires, and a survivor reclaims the cell.
``stale-lease``
    plant a lease whose owner is a fiction and whose heartbeat is long
    past — the wreckage a dead host leaves.  Workers must reap it.
``torn-lease``
    plant a half-written (non-JSON) lease, as if the owner died
    mid-``write``.  Treated as immediately stale.
``skewed-lease``
    plant a lease heartbeated far into the *future* — a host with a
    broken clock.  Trusting it would deadlock the cell forever, so the
    lease layer classifies beyond-TTL future skew as reapable.
``torn-job``
    tear a submitted job file; the queue must quarantine it without
    wedging job listings.

:class:`MidJobKill` makes one ``kill-worker`` land on a lease holder
mid-job on every run, however fast the fleet finishes the rest.

Fault *selection* is deterministic (the repo's SHA-256 draw over the
chaos seed and the cell key), so a chaos campaign is reproducible; the
faults' interleaving with real workers is of course not, which is the
point — the end-state guarantee (every payload byte-identical to a
fault-free run) must hold under any interleaving.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.runner.cache import ResultCache
from repro.runner.engine import cache_key_for
from repro.runner.seeding import derive_seed
from repro.service.jobs import JobSpec
from repro.service.lease import (
    LeaseInfo,
    default_owner_id,
    read_lease,
    try_acquire,
)
from repro.service.queue import JobQueue

#: Lease/job faults plantable in a queue directory, in draw order.
LEASE_FAULTS = ("stale-lease", "torn-lease", "skewed-lease")


@dataclass(frozen=True)
class HostChaosConfig:
    """A host-level chaos campaign.

    ``lease_rate`` is the per-cell probability of planting a lease
    fault before workers start; ``kill_interval_s`` is how often the
    fleet's chaos controller considers killing a worker and
    ``kill_rate`` the probability it goes through with it on each tick.
    """

    lease_rate: float = 0.0
    kill_rate: float = 0.0
    kill_interval_s: float = 1.0
    seed: int = 0x4057

    def __post_init__(self) -> None:
        for name in ("lease_rate", "kill_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")

    def _fraction(self, *parts: object) -> float:
        digest = derive_seed(self.seed, *parts)
        return (digest % (1 << 32)) / float(1 << 32)

    def draw_lease_fault(self, key: str) -> str | None:
        """The lease fault for this cache key, or ``None``."""
        if self._fraction(key, "lease") >= self.lease_rate:
            return None
        pick = derive_seed(self.seed, key, "lease-mode")
        return LEASE_FAULTS[pick % len(LEASE_FAULTS)]

    def draw_kill(self, tick: int, fleet_size: int) -> int | None:
        """Index of the worker to SIGKILL on this tick, or ``None``."""
        if fleet_size <= 0 or self._fraction(tick, "kill") >= self.kill_rate:
            return None
        return derive_seed(self.seed, tick, "kill-victim") % fleet_size


# -- lease/job fault injectors ---------------------------------------------


def plant_stale_lease(queue: JobQueue, key: str,
                      age_s: float = 3600.0,
                      ttl_s: float = 5.0) -> None:
    """A dead host's wreckage: valid JSON, heartbeat long expired."""
    queue.leases_dir.mkdir(parents=True, exist_ok=True)
    then = time.time() - age_s
    info = LeaseInfo(owner="worker-deadhost-1-0000", host="deadhost",
                     pid=1, acquired_at=then, heartbeat_at=then,
                     ttl_s=ttl_s)
    queue.lease_path(key).write_text(info.to_json(), encoding="utf-8")


def plant_torn_lease(queue: JobQueue, key: str) -> None:
    """A mid-write death: bytes that will never parse as JSON."""
    queue.leases_dir.mkdir(parents=True, exist_ok=True)
    queue.lease_path(key).write_bytes(b'{"owner": "worker-to')


def plant_skewed_lease(queue: JobQueue, key: str,
                       skew_s: float = 3600.0,
                       ttl_s: float = 5.0) -> None:
    """A broken clock: heartbeat from the far future."""
    queue.leases_dir.mkdir(parents=True, exist_ok=True)
    future = time.time() + skew_s
    info = LeaseInfo(owner="worker-skewhost-1-0000", host="skewhost",
                     pid=1, acquired_at=future, heartbeat_at=future,
                     ttl_s=ttl_s)
    queue.lease_path(key).write_text(info.to_json(), encoding="utf-8")


def tear_job_file(queue: JobQueue, job_id: str) -> None:
    """Truncate a submitted job file mid-content."""
    path = queue.job_path(job_id)
    data = path.read_bytes() if path.exists() else b'{"schema": "repro'
    path.write_bytes(data[:max(3, len(data) // 2)])


def plant_torn_cache_entry(cache_root, key: str) -> None:
    """A torn payload file in the shared cache (never produced by the
    crash-safe writer, but an adversarial disk can): must be
    quarantined and recomputed, never trusted."""
    root = os.fspath(cache_root)
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, f"{key}.json"), "w",
              encoding="utf-8") as fh:
        fh.write('{"kind": "attacks", "attacks": [')


def seed_lease_faults(queue: JobQueue, job: JobSpec,
                      config: HostChaosConfig) -> dict[str, str]:
    """Plant the campaign's drawn lease faults for ``job``'s cells.

    Returns ``{cache key: fault}`` for what was planted, so tests can
    assert the ≥30 %% fault-coverage bar directly.
    """
    planted: dict[str, str] = {}
    for spec in job.cells():
        key = cache_key_for(spec)
        fault = config.draw_lease_fault(key)
        if fault is None:
            continue
        if fault == "stale-lease":
            plant_stale_lease(queue, key)
        elif fault == "torn-lease":
            plant_torn_lease(queue, key)
        else:
            plant_skewed_lease(queue, key)
        planted[key] = fault
    return planted


def kill_process(pid: int) -> bool:
    """SIGKILL — no unwind, no cleanup, exactly a host loss."""
    try:
        os.kill(pid, signal.SIGKILL)
        return True
    except (OSError, ProcessLookupError):
        return False


class MidJobKill:
    """A fleet member SIGKILLed mid-job while it holds a cell's lease.

    A kill triggered by polled progress can miss: a fast fleet may
    finish the job between two polls, or a member seen holding a lease
    may publish and release it before the kill lands.  This holds the
    lease of the job's last cell from construction on, so the job
    cannot complete while it does.  Once every other cell is finished,
    :meth:`strike` frees that cell, waits for a fleet member to claim
    it and SIGKILLs the claimant.  The claimant's lease file survives
    it, so the cell can only finish after that lease expires and a
    survivor (or the replacement) takes it over.

    :attr:`killed` is set only when that is proven: after the victim
    has been reaped, its lease still names it and the cell is still
    unpublished.  Construct it (or enter it) *before* the fleet starts,
    or a member may claim the cell first; call :meth:`strike` from the
    coordinator's ``on_poll`` after ``fleet.poll()``.
    """

    #: The held lease outlives any run; :meth:`release` frees it.
    HOLD_TTL_S = 3600.0
    #: How long one :meth:`strike` waits for a member to claim the cell.
    CLAIM_WAIT_S = 5.0

    def __init__(self, queue: JobQueue, job: JobSpec) -> None:
        self.queue = queue
        self.killed = False
        self._key = cache_key_for(job.cells()[-1])
        path = queue.lease_path(self._key)
        self._held = try_acquire(path, default_owner_id("chaos-gate"),
                                 ttl_s=self.HOLD_TTL_S)
        if self._held is None:
            raise RuntimeError(f"{path.name} is already leased")

    def strike(self, fleet, status) -> None:
        """Once only the held cell is pending, free it and kill the
        member that claims it."""
        if self.killed or status.pending != 1:
            return
        self.release()
        path = self.queue.lease_path(self._key)
        published = ResultCache(fleet.cache_root).path_for(self._key)
        deadline = time.monotonic() + self.CLAIM_WAIT_S
        while time.monotonic() < deadline and not published.exists():
            info = read_lease(path)
            if info is not None and info.pid in fleet.pids:
                slot = fleet.pids.index(info.pid)
                if not fleet.kill_one(slot):
                    return
                # The claimant is reaped, so nothing can rewrite its
                # lease: a takeover must follow if it still names it.
                victim = fleet.members[slot]
                info = read_lease(path)
                self.killed = (victim.returncode == -signal.SIGKILL
                               and info is not None
                               and info.pid == victim.pid
                               and not published.exists())
                return
            time.sleep(0.001)

    def release(self) -> None:
        held, self._held = self._held, None
        if held is not None:
            held.release()

    def __enter__(self) -> "MidJobKill":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


def chaos_report(planted: dict[str, str], kills: int) -> str:
    by_fault: dict[str, int] = {}
    for fault in planted.values():
        by_fault[fault] = by_fault.get(fault, 0) + 1
    parts = [f"{fault} x{count}" for fault, count in sorted(by_fault.items())]
    parts.append(f"kill-worker x{kills}")
    return "host chaos: " + ", ".join(parts)
