"""Traced invocation: wrap each layer's public boundary, then run the CLI.

Run by ``bench/run.py`` as a child process (with ``PYTHONPATH=src``)::

    python bench/tracing.py --commands '[["figure1"]]' \\
        --trace-out bench/out/trace-fig1-quick.json --metrics-out m.json \\
        --spill DIR

It installs wrappers around the layer boundaries listed in
:func:`install`, runs every command through ``repro.__main__.main`` in
this process, and writes the spans as a Chrome trace (via
``repro.obs.export``) plus the per-layer metrics of :mod:`layers`.

The spans go into a ``repro.obs.Tracer`` owned by the benchmark.  It is
never activated as the program's global tracer, so the program's own
``obs.span`` sites stay off, as in a user's run.

Cells a process pool runs are executed in forked workers, which inherit
the wrappers.  Each worker records into its own tracer and appends its
spans to a file in ``--spill`` after every cell; the parent merges them
at the end, shifting their timestamps onto its own clock.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from repro.obs import Tracer, write_trace

import layers

CAT = "bench"


class Recorder:
    """Bench-owned span recorder for one process.

    :meth:`coarse` wrappers open one span per call.  :meth:`hot`
    wrappers add ``[calls, seconds, self seconds, tally]`` to the ``hot``
    argument of the innermost open coarse span instead, which keeps
    memory bounded however often they run.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.pid = os.getpid()
        #: Clock reading the parent's span timestamps are relative to.
        self.origin = clock()
        self.started = self.origin
        self.tracer = Tracer(scope="bench", clock=clock)
        self._open: list[dict] = []   # hot dicts of open coarse spans
        self._hot: list[float] = []   # child seconds of open hot calls

    def coarse(self, name: str, fn, note=None):
        """Wrap ``fn`` in one span per call; ``note(args, result)`` may
        return extra numeric span arguments."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hot: dict = {}
            with self.tracer.span(name, cat=CAT, hot=hot) as span:
                self._open.append(hot)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._open.pop()
                if note is not None:
                    span.add_args(**note(args, result))
            return result
        return wrapper

    def hot(self, name: str, fn, tally=None):
        """Wrap ``fn`` as a counted boundary; ``tally(result)`` may name
        a label to count (e.g. the cache level that served an access).

        It must be called inside a coarse span; the traced invocation
        and each pool task are one."""
        clock, stack, open_spans = self.clock, self._hot, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                counts = open_spans[-1]
                entry = counts.get(name)
                if entry is None:
                    entry = counts[name] = [0, 0.0, 0.0, {}]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - nested
            if tally is not None:
                label = tally(result)
                entry[3][label] = entry[3].get(label, 0) + 1
            return result
        return wrapper

    # -- forked pool workers ---------------------------------------------------

    def adopt_fork(self) -> None:
        """In a forked child, start a fresh tracer (once per child): the
        inherited one holds the parent's spans and open stack."""
        if os.getpid() == self.pid:
            return
        self.pid = os.getpid()
        self.started = self.clock()
        self.tracer = Tracer(scope=f"worker-{self.pid}", clock=self.clock)
        self._open.clear()
        self._hot.clear()

    def spill(self, directory: Path) -> None:
        """Append this process's closed spans to its spill file, moved
        onto the parent's clock, and forget them."""
        shift = int((self.started - self.origin) * 1e6)
        with open(directory / f"spans-{self.pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            for record in self.tracer.records:
                fh.write(json.dumps(dict(record,
                                         ts_us=record["ts_us"] + shift)))
                fh.write("\n")
        self.tracer.records.clear()

    def records(self, spill_dir: Path | None = None) -> list[dict]:
        """Every span of the invocation, workers' spills included."""
        records = list(self.tracer.records)
        if spill_dir is not None:
            for path in sorted(spill_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    records.extend(json.loads(line) for line in fh)
        return records


def install(rec: Recorder, spill_dir: Path) -> None:
    """Wrap the public boundary of every layer.

    Module-level functions are patched where they are looked up at call
    time (e.g. ``repro.attacks.suites.capture_aes_traces``), methods on
    the class that defines them.
    """
    import repro.attacks.batch as batch
    import repro.attacks.suites as suites
    import repro.core.matrix as matrix
    import repro.core.sweep as sweep
    import repro.crypto.rsa as rsa
    import repro.runner.engine as engine
    import repro.service.worker as worker
    import repro.spec.scanner as scanner
    from repro.attacks.base import AttackCategory
    from repro.attacks.cache_sca import (
        EvictTimeAttack,
        FlushReloadAttack,
        PrimeProbeAttack,
    )
    from repro.attacks.fault_attacks import BellcoreRSAAttack
    from repro.attacks.meltdown import MeltdownAttack
    from repro.attacks.spectre import SpectreV1Attack
    from repro.attacks.timing import KocherTimingAttack
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cpu.core import Core
    from repro.crypto.aes import AES128, MaskedAES, TTableAES
    from repro.runner.cache import ResultCache
    from repro.service.lease import Lease
    from repro.service.queue import JobQueue
    from repro.spec.explorer import SpeculationExplorer
    from repro.spec.memo import ExplorationMemo

    def coarse(owner, attr: str, name: str, note=None) -> None:
        setattr(owner, attr, rec.coarse(name, getattr(owner, attr), note))

    def hot(owner, attr: str, name: str, tally=None) -> None:
        setattr(owner, attr, rec.hot(name, getattr(owner, attr), tally))

    def run_stats(args, _result) -> dict:
        stats = args[0].stats
        return {"hits": stats.cache_hits, "misses": stats.cache_misses,
                "retries": stats.retries_total,
                "queue_wait_s": (sum(stats.cell_spans.values())
                                 - stats.busy_time_s),
                "pool_rebuilds": stats.pool_rebuilds,
                "instret": stats.instructions_total}

    # runner
    coarse(engine.ExperimentRunner, "run", "runner.run", run_stats)
    coarse(engine, "execute_spec", "runner.execute")
    coarse(engine, "payload_fingerprint", "runner.digest")
    coarse(ResultCache, "get", "runner.cache_get")
    coarse(ResultCache, "put", "runner.cache_put")
    # The pool pickles execute_task by name and its forked workers look
    # it up in their inherited copy of this module, so they run this
    # wrapper; it keeps the same name so that lookup still resolves.
    task = rec.coarse("runner.task", engine.execute_task)

    @functools.wraps(engine.execute_task)
    def pooled_task(cell_task):
        rec.adopt_fork()
        try:
            return task(cell_task)
        finally:
            rec.spill(spill_dir)

    engine.execute_task = pooled_task

    # core
    coarse(matrix.EvaluationMatrix, "evaluate", "core.evaluate")
    coarse(sweep, "run_kernel_sweep", "core.sweep")

    # attacks
    for category, label in ((AttackCategory.REMOTE, "remote"),
                            (AttackCategory.LOCAL, "local"),
                            (AttackCategory.MICROARCHITECTURAL, "microarch"),
                            (AttackCategory.PHYSICAL, "physical")):
        suites.SUITES[category] = rec.coarse(f"attacks.{label}",
                                             suites.SUITES[category])
    for cls, label in ((PrimeProbeAttack, "prime_probe"),
                       (FlushReloadAttack, "flush_reload"),
                       (EvictTimeAttack, "evict_time"),
                       (SpectreV1Attack, "spectre_v1"),
                       (MeltdownAttack, "meltdown"),
                       (KocherTimingAttack, "kocher"),
                       (BellcoreRSAAttack, "bellcore")):
        coarse(cls, "run", f"attacks.{label}")
    coarse(suites, "cpa_recover_key", "attacks.cpa")
    coarse(batch, "try_run_batched", "attacks.batched",
           lambda _args, result: {"accepted": int(result is not None)})

    # cpu, cache hierarchy, crypto victims, power
    coarse(Core, "run", "cpu.run")
    hot(CacheHierarchy, "access", "cache.access",
        lambda access: access.level)
    hot(CacheHierarchy, "flush_line", "cache.flush")
    for cls in (AES128, TTableAES, MaskedAES):
        hot(cls, "encrypt_block", "crypto.aes_block")
    hot(rsa, "modexp_square_multiply", "crypto.modexp")
    coarse(suites, "capture_aes_traces", "power.capture",
           lambda _args, traces: {"traces": len(traces)})

    # speculation scanner
    coarse(scanner, "execute_scan_cell", "spec.scan_cell")
    coarse(scanner, "record_exploration", "spec.record")
    coarse(SpeculationExplorer, "run", "spec.explore")
    coarse(ExplorationMemo, "lookup", "spec.memo_lookup",
           lambda _args, record: {"hit": int(record is not None)})

    # service
    coarse(JobQueue, "submit", "service.submit")
    coarse(worker.ServiceWorker, "run_until_drained", "service.worker",
           lambda _args, stats: {"computed": stats.cells_computed})
    coarse(worker, "try_acquire", "service.lease_acquire",
           lambda _args, lease: {"acquired": int(lease is not None)})
    coarse(Lease, "release", "service.lease_release")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True,
                        help="JSON list of repro argv lists, run in order")
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("--metrics-out", required=True, type=Path)
    parser.add_argument("--spill", required=True, type=Path)
    args = parser.parse_args(argv)

    rec = Recorder()
    args.spill.mkdir(parents=True, exist_ok=True)
    install(rec, args.spill)
    from repro.__main__ import main as repro_main

    def invocation() -> int:
        code = 0
        for command in json.loads(args.commands):
            code = repro_main(command) or code
        return code

    code = rec.coarse("bench.invocation", invocation)()
    sys.stdout.flush()
    records = rec.records(args.spill)
    args.trace_out.parent.mkdir(parents=True, exist_ok=True)
    write_trace(records, args.trace_out, process_name="repro bench")
    metrics = layers.layer_metrics(layers.rollup(records))
    args.metrics_out.write_text(json.dumps(metrics, indent=1, sort_keys=True),
                                encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
