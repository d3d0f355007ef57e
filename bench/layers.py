"""Per-layer metrics: their definitions and the span arithmetic behind them.

A traced invocation (``bench/tracing.py``) leaves a list of
``repro.obs.Tracer`` span records.  Coarse layer boundaries are one span
per call; hot boundaries (cache accesses, AES blocks, modexp) instead add
``[calls, seconds, self seconds, {tally: count}]`` to the ``hot`` argument
of the innermost enclosing span.  This module turns those records into
the ``per_layer`` metrics of ``BENCHMARK.json``.  It imports nothing from
the program, so it can be tested and reasoned about on its own.

Self time is a span's duration minus the part of it its child spans
cover, minus the self time of the hot calls it made directly.  Hot self
time is a hot call's duration minus the hot calls nested in it, so the
self times of all spans and hot calls in one process add up to the root
span's duration.
"""

from __future__ import annotations

from collections import defaultdict

E2E = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")

ALL_WORKLOADS = ("fig1-quick", "fig1-full-j2", "fig1-warm", "scan-full",
                 "tab-s41", "serve-quick")

_ATTACK_WORKLOADS = ("fig1-quick", "fig1-full-j2")
_CACHE_WORKLOADS = ("tab-s41", "fig1-quick")


def _m(unit: str, better: str, moves: dict[str, tuple[str, ...]]) -> dict:
    return {"unit": unit, "better": better, "moves": moves}


#: Every per-layer metric: unit, which direction is better, and which
#: end-to-end metric on which workloads it is expected to move.  Written
#: down before measuring, as the layer -> end-to-end map the README shows.
LAYER_METRICS: dict[str, dict] = {
    **{f"startup.{module}_s": _m(
        "s", "lower", {"setup_s": ("scan-full", "fig1-warm"),
                       "wall_s": ("scan-full", "fig1-warm")})
       for module in ("numpy", "repro_attacks", "repro_core",
                      "repro_runner", "repro_spec", "repro_service")},
    "runner.run.calls": _m("count", "lower", {"wall_s": ("serve-quick",)}),
    "runner.run.self_s": _m("s", "lower",
                            {"wall_s": ("fig1-warm", "fig1-full-j2")}),
    "runner.execute.calls": _m("count", "lower",
                               {"wall_s": ("fig1-quick",)}),
    "runner.execute.s": _m("s", "lower",
                           {"wall_s": ("fig1-quick", "scan-full"),
                            "cpu_s": ("fig1-full-j2",)}),
    "runner.cache_get.calls": _m("count", "lower",
                                 {"wall_s": ("fig1-warm",)}),
    "runner.cache_get.s": _m("s", "lower", {"wall_s": ("fig1-warm",)}),
    "runner.cache_put.calls": _m("count", "lower",
                                 {"wall_s": ("fig1-quick",)}),
    "runner.cache_put.s": _m("s", "lower", {"wall_s": ("fig1-quick",)}),
    "runner.digest.calls": _m("count", "lower", {"wall_s": ("fig1-warm",)}),
    "runner.digest.s": _m("s", "lower", {"wall_s": ("fig1-warm",)}),
    "runner.cache_hit_ratio": _m("ratio", "higher",
                                 {"wall_s": ("fig1-warm",)}),
    "runner.retries": _m("count", "lower",
                         {"wall_s": ("fig1-quick", "fig1-full-j2")}),
    "runner.queue_wait_s": _m("s", "lower", {"wall_s": ("fig1-full-j2",)}),
    "runner.pool_rebuilds": _m("count", "lower",
                               {"wall_s": ("fig1-full-j2",)}),
    "core.evaluate.self_s": _m("s", "lower", {"wall_s": ("fig1-warm",)}),
    "core.sweep.calls": _m("count", "lower",
                           {"wall_s": ("fig1-full-j2",),
                            "cpu_s": ("fig1-full-j2",)}),
    "core.sweep.s": _m("s", "lower", {"wall_s": ("fig1-full-j2",),
                                      "cpu_s": ("fig1-full-j2",)}),
    **{f"attacks.{suite}.s": _m("s", "lower", {"wall_s": _ATTACK_WORKLOADS})
       for suite in ("remote", "local", "microarch", "physical")},
    "attacks.prime_probe.s": _m("s", "lower", {"wall_s": ("tab-s41",)}),
    "attacks.flush_reload.s": _m("s", "lower",
                                 {"wall_s": ("tab-s41", "fig1-quick")}),
    "attacks.evict_time.s": _m("s", "lower", {"wall_s": ("tab-s41",)}),
    **{f"attacks.{attack}.s": _m("s", "lower", {"wall_s": _ATTACK_WORKLOADS})
       for attack in ("spectre_v1", "meltdown", "kocher", "bellcore",
                      "cpa")},
    "attacks.batched.calls": _m("count", "higher",
                                {"wall_s": ("fig1-quick", "tab-s41")}),
    "attacks.batched.accepted": _m("count", "higher",
                                   {"wall_s": ("fig1-quick", "tab-s41")}),
    "cpu.run.calls": _m("count", "lower",
                        {"wall_s": ("fig1-full-j2", "scan-full")}),
    "cpu.run.s": _m("s", "lower", {"wall_s": ("fig1-full-j2", "scan-full")}),
    "cpu.instret": _m("count", "lower",
                      {"wall_s": ("fig1-full-j2", "scan-full")}),
    "cpu.instr_per_s": _m("1/s", "higher",
                          {"wall_s": ("fig1-full-j2", "scan-full")}),
    "cache.access.calls": _m("count", "lower", {"wall_s": _CACHE_WORKLOADS}),
    "cache.access.self_s": _m("s", "lower", {"wall_s": _CACHE_WORKLOADS}),
    "cache.l1_hit_ratio": _m("ratio", "higher", {"wall_s": _CACHE_WORKLOADS}),
    "cache.llc_hit_ratio": _m("ratio", "higher",
                              {"wall_s": _CACHE_WORKLOADS}),
    "cache.flush.calls": _m("count", "lower", {"wall_s": _CACHE_WORKLOADS}),
    "cache.flush.s": _m("s", "lower", {"wall_s": _CACHE_WORKLOADS}),
    "crypto.aes_block.calls": _m("count", "lower", {"wall_s": ("tab-s41",)}),
    "crypto.aes_block.self_s": _m("s", "lower", {"wall_s": ("tab-s41",)}),
    "crypto.modexp.calls": _m("count", "lower", {"wall_s": ("fig1-quick",)}),
    "crypto.modexp.s": _m("s", "lower", {"wall_s": ("fig1-quick",)}),
    "power.capture.calls": _m("count", "lower",
                              {"wall_s": ("fig1-full-j2",)}),
    "power.capture.s": _m("s", "lower", {"wall_s": ("fig1-full-j2",)}),
    "power.traces": _m("count", "lower", {"wall_s": ("fig1-full-j2",)}),
    "spec.scan_cell.calls": _m("count", "lower", {"wall_s": ("scan-full",)}),
    "spec.scan_cell.s": _m("s", "lower", {"wall_s": ("scan-full",)}),
    "spec.explore.calls": _m("count", "lower", {"wall_s": ("scan-full",)}),
    "spec.explore.s": _m("s", "lower", {"wall_s": ("scan-full",)}),
    "spec.record.calls": _m("count", "lower", {"wall_s": ("scan-full",)}),
    "spec.record.s": _m("s", "lower", {"wall_s": ("scan-full",)}),
    "spec.memo_hit_ratio": _m("ratio", "higher", {"wall_s": ("scan-full",)}),
    "service.submit.s": _m("s", "lower", {"wall_s": ("serve-quick",)}),
    "service.lease_acquire.calls": _m("count", "lower",
                                      {"wall_s": ("serve-quick",)}),
    "service.lease_acquire.us": _m("us", "lower",
                                   {"wall_s": ("serve-quick",)}),
    "service.lease_lost": _m("count", "lower", {"wall_s": ("serve-quick",)}),
    "service.lease_release.us": _m("us", "lower",
                                   {"wall_s": ("serve-quick",)}),
    "service.cell_protocol_us": _m("us", "lower",
                                   {"wall_s": ("serve-quick",)}),
    # Tracing is off in every timed run, so the overhead moves nothing;
    # it is listed against wall_s because wall_s is the ratio's base.
    "trace.overhead": _m("ratio", "lower", {"wall_s": ALL_WORKLOADS}),
}

#: ``-X importtime`` module whose cumulative time each startup metric is.
STARTUP_MODULES = {
    "startup.numpy_s": "numpy",
    "startup.repro_attacks_s": "repro.attacks",
    "startup.repro_core_s": "repro.core",
    "startup.repro_runner_s": "repro.runner",
    "startup.repro_spec_s": "repro.spec",
    "startup.repro_service_s": "repro.service",
}


# -- span arithmetic ----------------------------------------------------------


def covered_us(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, end = 0, lo
    for start, stop in clipped:
        start = max(start, end)
        if stop > start:
            total += stop - start
            end = stop
    return total


def _spans(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("kind") == "span"]


def self_times(records: list[dict]) -> dict[tuple[str, str], float]:
    """Self seconds of every span, keyed by ``(scope, id)``."""
    spans = _spans(records)
    children: dict[tuple[str, str], list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[(span["scope"], span["parent"])].append(
                (span["ts_us"], span["ts_us"] + span["dur_us"]))
    result = {}
    for span in spans:
        key = (span["scope"], span["id"])
        start = span["ts_us"]
        covered = covered_us(children.get(key, []), start,
                             start + span["dur_us"])
        hot_self = sum(entry[2] for entry in
                       span.get("args", {}).get("hot", {}).values())
        result[key] = max(0.0, (span["dur_us"] - covered) / 1e6 - hot_self)
    return result


def rollup(records: list[dict]) -> dict:
    """Aggregate records by span name and by hot-boundary name.

    ``spans[name]`` holds ``calls``, ``s`` (total), ``self_s`` and the
    sums of the numeric span arguments; ``hot[name]`` holds ``calls``,
    ``s``, ``self_s`` and ``tally`` summed over every enclosing span.
    """
    selfs = self_times(records)
    spans: dict[str, dict] = {}
    hot: dict[str, dict] = {}
    for span in _spans(records):
        agg = spans.setdefault(span["name"], {"calls": 0, "s": 0.0,
                                              "self_s": 0.0, "args": {}})
        agg["calls"] += 1
        agg["s"] += span["dur_us"] / 1e6
        agg["self_s"] += selfs[(span["scope"], span["id"])]
        for key, value in span.get("args", {}).items():
            if key == "hot":
                for name, (calls, total, own, tally) in value.items():
                    entry = hot.setdefault(name, {"calls": 0, "s": 0.0,
                                                  "self_s": 0.0, "tally": {}})
                    entry["calls"] += calls
                    entry["s"] += total
                    entry["self_s"] += own
                    for label, count in tally.items():
                        entry["tally"][label] = \
                            entry["tally"].get(label, 0) + count
            elif isinstance(value, (int, float)):
                agg["args"][key] = agg["args"].get(key, 0) + value
    return {"spans": spans, "hot": hot,
            "worker_execute_s": _nested_s(records, "service.worker",
                                          "runner.execute")}


def _nested_s(records: list[dict], outer: str, inner: str) -> float:
    """Seconds spent in ``inner`` spans that have an ``outer`` ancestor."""
    spans = {(r["scope"], r["id"]): r for r in _spans(records)}

    def has_ancestor(span: dict) -> bool:
        parent = span.get("parent")
        while parent is not None:
            span = spans.get((span["scope"], parent))
            if span is None:
                return False
            if span["name"] == outer:
                return True
            parent = span.get("parent")
        return False

    return sum(span["dur_us"] / 1e6 for span in spans.values()
               if span["name"] == inner and has_ancestor(span))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(roll: dict) -> dict[str, float]:
    """The traced-run metrics (all but ``startup.*`` and ``trace.*``)."""
    spans, hot = roll["spans"], roll["hot"]

    def span(name: str, field: str = "s") -> float:
        return spans.get(name, {}).get(field, 0)

    def arg(name: str, key: str) -> float:
        return spans.get(name, {}).get("args", {}).get(key, 0)

    def hotv(name: str, field: str) -> float:
        return hot.get(name, {}).get(field, 0)

    levels = hot.get("cache.access", {}).get("tally", {})
    hits = arg("runner.run", "hits")
    instret = arg("runner.run", "instret")
    computed = arg("service.worker", "computed")
    metrics = {
        "runner.run.calls": span("runner.run", "calls"),
        "runner.run.self_s": span("runner.run", "self_s"),
        "runner.execute.calls": span("runner.execute", "calls"),
        "runner.execute.s": span("runner.execute"),
        "runner.cache_get.calls": span("runner.cache_get", "calls"),
        "runner.cache_get.s": span("runner.cache_get"),
        "runner.cache_put.calls": span("runner.cache_put", "calls"),
        "runner.cache_put.s": span("runner.cache_put"),
        "runner.digest.calls": span("runner.digest", "calls"),
        "runner.digest.s": span("runner.digest"),
        "runner.cache_hit_ratio": _ratio(hits,
                                         hits + arg("runner.run", "misses")),
        "runner.retries": arg("runner.run", "retries"),
        "runner.queue_wait_s": arg("runner.run", "queue_wait_s"),
        "runner.pool_rebuilds": arg("runner.run", "pool_rebuilds"),
        "core.evaluate.self_s": span("core.evaluate", "self_s"),
        "core.sweep.calls": span("core.sweep", "calls"),
        "core.sweep.s": span("core.sweep"),
        "attacks.batched.calls": span("attacks.batched", "calls"),
        "attacks.batched.accepted": arg("attacks.batched", "accepted"),
        "cpu.run.calls": span("cpu.run", "calls"),
        "cpu.run.s": span("cpu.run"),
        "cpu.instret": instret,
        "cpu.instr_per_s": _ratio(instret, span("runner.execute")),
        "cache.access.calls": hotv("cache.access", "calls"),
        "cache.access.self_s": hotv("cache.access", "self_s"),
        "cache.l1_hit_ratio": _ratio(levels.get("l1", 0),
                                     hotv("cache.access", "calls")),
        "cache.llc_hit_ratio": _ratio(
            levels.get("l2", 0), levels.get("l2", 0) + levels.get("dram", 0)),
        "cache.flush.calls": hotv("cache.flush", "calls"),
        "cache.flush.s": hotv("cache.flush", "s"),
        "crypto.aes_block.calls": hotv("crypto.aes_block", "calls"),
        "crypto.aes_block.self_s": hotv("crypto.aes_block", "self_s"),
        "crypto.modexp.calls": hotv("crypto.modexp", "calls"),
        "crypto.modexp.s": hotv("crypto.modexp", "s"),
        "power.capture.calls": span("power.capture", "calls"),
        "power.capture.s": span("power.capture"),
        "power.traces": arg("power.capture", "traces"),
        "spec.scan_cell.calls": span("spec.scan_cell", "calls"),
        "spec.scan_cell.s": span("spec.scan_cell"),
        "spec.explore.calls": span("spec.explore", "calls"),
        "spec.explore.s": span("spec.explore"),
        "spec.record.calls": span("spec.record", "calls"),
        "spec.record.s": span("spec.record"),
        "spec.memo_hit_ratio": _ratio(arg("spec.memo_lookup", "hit"),
                                      span("spec.memo_lookup", "calls")),
        "service.submit.s": span("service.submit"),
        "service.lease_acquire.calls": span("service.lease_acquire", "calls"),
        "service.lease_acquire.us": 1e6 * _ratio(
            span("service.lease_acquire"),
            span("service.lease_acquire", "calls")),
        "service.lease_lost": (span("service.lease_acquire", "calls")
                               - arg("service.lease_acquire", "acquired")),
        "service.lease_release.us": 1e6 * _ratio(
            span("service.lease_release"),
            span("service.lease_release", "calls")),
        "service.cell_protocol_us": 1e6 * _ratio(
            span("service.worker") - roll["worker_execute_s"], computed),
    }
    for suite in ("remote", "local", "microarch", "physical"):
        metrics[f"attacks.{suite}.s"] = span(f"attacks.{suite}")
    for attack in ("prime_probe", "flush_reload", "evict_time", "spectre_v1",
                   "meltdown", "kocher", "bellcore", "cpa"):
        metrics[f"attacks.{attack}.s"] = span(f"attacks.{attack}")
    return metrics


def startup_metrics(importtime_logs: list[str]) -> dict[str, float]:
    """Cumulative import seconds per startup module.

    Each log is the stderr of one process run with ``-X importtime``; a
    module imported by several processes of one invocation counts at its
    slowest.  A module the invocation never imports reads 0.
    """
    cumulative: dict[str, float] = {}
    for log in importtime_logs:
        for line in log.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            module = parts[2].strip()
            seconds = int(parts[1]) / 1e6
            cumulative[module] = max(cumulative.get(module, 0.0), seconds)
    return {name: cumulative.get(module, 0.0)
            for name, module in STARTUP_MODULES.items()}
