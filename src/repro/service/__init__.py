"""Evaluation as a service: a crash-safe, multi-host job layer.

The supervised runner (PR 3) recovers from *worker-process* failure
inside one host.  This package recovers from the loss of the host
itself: jobs are atomic JSON files in a shared queue directory, workers
claim cells through ``O_EXCL`` lease files carrying owner identity,
heartbeat and TTL, and completion *is* the content-addressed cache
entry — so the entire system state lives in two directories any
surviving machine can read, and every failure mode (SIGKILLed worker,
partitioned host, torn file, skewed clock, dead coordinator) resolves
to "a lease expires and someone else finishes the cell", with payloads
byte-identical to a fault-free run.

Layers:

* :mod:`repro.service.jobs` — :class:`JobSpec`, the content-addressed
  campaign description that expands into runner ``CellSpec``\\ s;
* :mod:`repro.service.queue` — :class:`JobQueue`, the directory
  protocol (atomic submission, torn-file quarantine, failure records);
* :mod:`repro.service.lease` — the ``O_EXCL`` + heartbeat + TTL lease
  discipline with race-free reaping of stale/torn/skewed leases;
* :mod:`repro.service.worker` — :class:`ServiceWorker`, the claim →
  execute (via a serial supervised runner) → publish loop with
  graceful SIGTERM/SIGINT drain;
* :mod:`repro.service.coordinator` — :class:`Coordinator`, the purely
  observational progress/status/manifest layer (Prometheus + JSONL via
  the PR-4 exporters; cold-resume manifests);
* :mod:`repro.service.fleet` — :class:`WorkerFleet`, worker processes
  forked from the caller, plus the host-kill chaos controller;
* :mod:`repro.service.chaos` — host-level fault injection (worker
  SIGKILL, stale/torn/skewed leases, torn job files) and
  :class:`MidJobKill`, a kill that always lands on a lease holder
  mid-job.
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "chaos": ("HostChaosConfig", "LEASE_FAULTS", "MidJobKill", "chaos_report",
              "plant_skewed_lease", "plant_stale_lease",
              "plant_torn_cache_entry", "plant_torn_lease",
              "seed_lease_faults", "tear_job_file"),
    "coordinator": ("Coordinator", "JobStatus"),
    "fleet": ("WorkerFleet",),
    "jobs": ("JOB_SCHEMA", "JobSpec"),
    "lease": ("DEFAULT_TTL_S", "Lease", "LeaseInfo", "LeaseLostError",
              "default_owner_id", "lease_state", "read_lease", "reap_lease",
              "try_acquire"),
    "queue": ("JobQueue",),
    "worker": ("ServiceWorker", "WorkerStats", "run_worker_process"),
})
