"""``repro.obs``: zero-dependency structured observability.

The paper's artefacts are *comparisons*; their value rests on being able
to explain why a cell scored what it scored.  This package makes every
run emit inspectable, machine-readable evidence:

* :mod:`repro.obs.tracer` — in-process span/event recording with
  deterministic IDs derived from cell seeds;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms in a :class:`MetricsRegistry`;
* :mod:`repro.obs.export` — JSONL, Chrome ``trace_event`` (opens in
  ``chrome://tracing`` / Perfetto) and Prometheus text serialisation;
* :mod:`repro.obs.manifest` — the per-run :class:`RunManifest`, making
  any two runs diffable artifacts;
* :mod:`repro.obs.observer` — the :class:`RunObserver` hook surface the
  runner drives (no-op by default) and :class:`Observability`, the full
  telemetry sink behind ``--trace`` / ``--metrics`` / ``--manifest``.

**Instrumentation API.**  Library code (attacks, the power instrument)
marks phases through the module-level :func:`span` / :func:`event`
helpers below.  They consult a process-global current tracer; when none
is active — the default — they cost one global read and return a shared
null context, so instrumented code paths stay at fast-path speed.  The
runner's workers activate a per-cell tracer only when an observer asked
for cell telemetry.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING

from repro.common import lazy_exports

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "export": ("metrics_to_prometheus", "records_to_chrome",
               "records_to_jsonl", "write_metrics", "write_trace"),
    "manifest": ("RunManifest", "host_platform"),
    "metrics": ("Counter", "DEFAULT_TIME_BUCKETS", "Gauge", "Histogram",
                "MetricsRegistry"),
    "observer": ("CELL_METRICS_KEY", "NULL_OBSERVER", "Observability",
                 "RunObserver", "SPANS_KEY"),
    "tracer": ("Tracer", "derive_span_id"),
})
__all__ = sorted([*__all__, "activate", "current_tracer", "event", "span"])

#: The process-global tracer consulted by :func:`span` / :func:`event`.
_CURRENT: Tracer | None = None

#: Shared reusable no-op context manager (``nullcontext`` is reentrant).
_NULL_SPAN = nullcontext()


def current_tracer() -> Tracer | None:
    """The tracer :func:`span` / :func:`event` currently report to."""
    return _CURRENT


@contextmanager
def activate(tracer: Tracer | None):
    """Make ``tracer`` the process-global tracer for the ``with`` body."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer
    try:
        yield tracer
    finally:
        _CURRENT = previous


def span(name: str, cat: str = "obs", **args: object):
    """Open a span on the active tracer, or a shared no-op context."""
    tracer = _CURRENT
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat=cat, **args)


def event(name: str, cat: str = "obs", **args: object) -> dict | None:
    """Record an instant event on the active tracer, if any."""
    tracer = _CURRENT
    if tracer is None:
        return None
    return tracer.event(name, cat=cat, **args)
