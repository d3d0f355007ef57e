"""Deterministic, parallel, cached, *fault-tolerant* experiment execution.

The evaluation grid (``repro.core.matrix``) and the comparison tables
(``repro.core.comparison``) are *measured* artefacts: every cell is the
outcome of running real attack code.  That only means something if a cell
is a pure function of its inputs — and if the harness's guarantees hold
under adversarial execution conditions, not just the happy path.  This
package provides the layers that make it so:

* :mod:`repro.runner.seeding` — stable, process-independent seed
  derivation (SHA-256 of the ``(seed, platform, category)`` coordinates;
  never Python's salted ``hash()``);
* :mod:`repro.runner.engine` — :class:`ExperimentRunner`, a *supervised*
  executor: cells are submitted as individual futures with a per-cell
  timeout, hung workers are detected and their pool replaced, worker
  crashes (``BrokenProcessPool``) requeue unfinished specs, failed cells
  retry with capped deterministic-jitter backoff, and payload integrity
  digests catch corrupted returns and torn cache entries;
* :mod:`repro.runner.retry` — the :class:`RetryPolicy` (jitter derived
  from the cell seed, so reruns replay the same schedule);
* :mod:`repro.runner.chaos` — seeded fault injection *into the harness
  itself* (crash / hang / raise / corrupt), proving the recovery
  guarantees end to end (``make chaos``);
* :mod:`repro.runner.cache` — crash-safe content-addressed on-disk
  memoisation (:class:`ResultCache`: temp-file + ``os.replace`` writes,
  corrupt-entry quarantine);
* :mod:`repro.runner.stats` — :class:`RunnerStats` with one structured
  :class:`CellOutcome` per cell (ok / ok-after-retry / timed-out /
  failed / degraded-to-serial) plus wall times, cache hit/miss counts
  and worker utilisation.
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("ResultCache", "default_cache_root"),
    "chaos": ("ChaosConfig", "FAULT_MODES", "chaos_execute_spec"),
    "engine": ("CACHE_DEFENCE_CATEGORY", "CellSpec", "CellTask",
               "DEFAULT_TIMEOUT_S", "ExperimentRunner", "INTEGRITY_KEY",
               "SCAN_CATEGORY", "WORKLOAD_CATEGORY", "cache_key_for",
               "execute_spec", "execute_task", "payload_fingerprint",
               "payload_intact"),
    "retry": ("NO_RETRY", "RetryPolicy"),
    "seeding": ("derive_cell_seed", "derive_seed"),
    "stats": ("CellOutcome", "OUTCOME_STATUSES", "RunnerStats"),
})
