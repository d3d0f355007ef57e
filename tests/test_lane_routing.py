"""Lane routing: the fast lanes are the default, ``reference=True`` the oracle.

The tests count how often cells reach the batched attack kernels
(:func:`repro.attacks.batch.try_run_batched`), the batched power capture
(:meth:`repro.power.batch.BatchPowerInstrument.capture`), the kernel
sweep's lane replay (:func:`repro.core.sweep.replay_lanes`) and the memoized
scan explorer (:func:`repro.spec.scanner._scan_gadget_memo`, once per
corpus gadget).  A default run must reach all four.  ``reference=True``
must reach none of them, on every path a cell can take: the serial runner,
the pool entry point :func:`~repro.runner.engine.execute_task`, and the
chaos wrapper.  TAB-S41 rows are runner cells on the same switch, and
the evaluation service runs the fast lanes too; the service has no lane
switch at all.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json

import pytest

import repro.attacks.batch as batch
import repro.core.sweep as sweep
import repro.obs as obs
import repro.spec.scanner as scanner
from repro.attacks.dpa import traces_to_success
from repro.attacks.suites import SUITES, MatrixKnobs
from repro.core.comparison import cache_defence_table
from repro.core.matrix import EvaluationMatrix
from repro.power.batch import BatchPowerInstrument
from repro.runner import (
    SCAN_CATEGORY,
    WORKLOAD_CATEGORY,
    CellSpec,
    ChaosConfig,
    ExperimentRunner,
    ResultCache,
)
from repro.runner.chaos import chaos_execute_spec
from repro.runner.engine import (
    _TABLE_CELLS,
    CellTask,
    execute_spec,
    execute_task,
)
from repro.service import JobQueue, JobSpec, ServiceWorker
from repro.spec import run_scan
from repro.spec.gadgets import GADGETS
from repro.spec.scanner import CORPUS_REV

KNOBS = MatrixKnobs.quick().as_key()
ATTACK = CellSpec(seed=0x2019, platform="mobile",
                  category="microarchitectural", knobs=KNOBS)
PHYSICAL = CellSpec(seed=0x2019, platform="mobile",
                    category="classical-physical", knobs=KNOBS)
WORKLOAD = CellSpec(seed=0x2019, platform="mobile",
                    category=WORKLOAD_CATEGORY, knobs=KNOBS)
SCAN_KNOBS = (("corpus_rev", CORPUS_REV),)
SCAN = CellSpec(seed=0x2019, platform="in-order", category=SCAN_CATEGORY,
                knobs=SCAN_KNOBS)
SPECS = [ATTACK, PHYSICAL, WORKLOAD, SCAN]

#: Flush+Reload and Kocher reach the attack kernels; the physical cell's
#: CPA traces are the one power capture.
FAST = {"batched": 2, "power": 1, "replay": 1, "memo": len(GADGETS)}
NONE = {"batched": 0, "power": 0, "replay": 0, "memo": 0}
NO_CHAOS = ChaosConfig(rate=0.0)


@pytest.fixture()
def lanes(monkeypatch) -> dict[str, int]:
    """Call counts of the four fast-lane entry points."""
    counts = dict(NONE)
    real_try = batch.try_run_batched
    real_capture = BatchPowerInstrument.capture
    real_replay = sweep.replay_lanes
    real_memo = scanner._scan_gadget_memo

    def counting_try(attack):
        counts["batched"] += 1
        return real_try(attack)

    def counting_capture(self, *args, **kwargs):
        counts["power"] += 1
        return real_capture(self, *args, **kwargs)

    def counting_replay(*args, **kwargs):
        counts["replay"] += 1
        return real_replay(*args, **kwargs)

    def counting_memo(*args, **kwargs):
        counts["memo"] += 1
        return real_memo(*args, **kwargs)

    monkeypatch.setattr(batch, "try_run_batched", counting_try)
    monkeypatch.setattr(BatchPowerInstrument, "capture", counting_capture)
    monkeypatch.setattr(sweep, "replay_lanes", counting_replay)
    monkeypatch.setattr(scanner, "_scan_gadget_memo", counting_memo)
    return counts


class TestStrategyDefaults:
    def test_defaults_agree_on_every_entry_point(self):
        # ``reference`` is the one lane switch, off by default, on the
        # four carriers; nothing else takes a lane parameter.
        for fn in (execute_spec, chaos_execute_spec,
                   ExperimentRunner.__init__, CellTask):
            params = inspect.signature(fn).parameters
            assert params["reference"].default is False
            assert not {"ensemble", "batch", "memo"} & set(params)
        for fn in (EvaluationMatrix.__init__, JobSpec, JobSpec.matrix,
                   ServiceWorker.__init__, run_scan):
            params = inspect.signature(fn).parameters
            assert not {"reference", "ensemble", "batch", "memo"} \
                & set(params), fn
        assert "ensemble" not in inspect.signature(
            traces_to_success).parameters
        assert not {"ensemble", "batch", "memo"} & set(JobSpec().to_dict())

    def test_cell_entry_points_and_suites_take_only_reference(self):
        # Every dispatch-table entry point and every attack suite takes
        # the same switch, with the same default.
        entries = {getattr(importlib.import_module(module), name)
                   for module, name in _TABLE_CELLS.values()}
        for fn in (*entries, *SUITES.values()):
            params = inspect.signature(fn).parameters
            assert params["reference"].default is False, fn
            assert not {"ensemble", "batch", "memo"} & set(params), fn

    def test_table_dispatches_every_figure1_category(self):
        assert {c.value for c in SUITES} | {WORKLOAD_CATEGORY} \
            <= set(_TABLE_CELLS)


class TestDefaultLane:
    """A default run reaches all four fast lanes."""

    def test_default_runner_reaches_both_fast_lanes(self, lanes):
        assert len(ExperimentRunner().run(SPECS)) == len(SPECS)
        assert lanes == FAST

    def test_default_chaos_runner_reaches_both_fast_lanes(self, lanes):
        assert len(ExperimentRunner(chaos=NO_CHAOS).run(SPECS)) == len(SPECS)
        assert lanes == FAST

    def test_default_pool_entry_reaches_both_fast_lanes(self, lanes):
        for spec in SPECS:
            assert execute_task(CellTask(spec=spec))[0] == "ok"
        assert lanes == FAST


class TestReferenceLane:
    """``reference=True`` reaches none of them."""

    def test_serial_runner_stays_scalar(self, lanes):
        assert len(ExperimentRunner(reference=True).run(SPECS)) == len(SPECS)
        assert lanes == NONE

    def test_pool_entry_stays_scalar(self, lanes):
        for spec in SPECS:
            assert execute_task(CellTask(spec=spec,
                                         reference=True))[0] == "ok"
            assert execute_task(CellTask(spec=spec, chaos=NO_CHAOS,
                                         reference=True))[0] == "ok"
        assert lanes == NONE

    def test_chaos_wrapper_stays_scalar(self, lanes):
        for spec in SPECS:
            chaos_execute_spec(spec, 0, NO_CHAOS, in_worker=False,
                               reference=True)
        assert len(ExperimentRunner(chaos=NO_CHAOS,
                                    reference=True).run(SPECS)) == len(SPECS)
        assert lanes == NONE


def test_default_run_scan_is_memoized(lanes):
    assert run_scan(quick=True).rows
    assert lanes["memo"] == len(GADGETS) * len(scanner.quick_config_names())


def test_tab_s41_batches_every_modelled_host(monkeypatch):
    """TAB-S41 rows are identical on the default lane and on
    ``ExperimentRunner(reference=True)``, which never reaches the
    kernels.  Prime+Probe batches on every host but Sanctum;
    Flush+Reload batches only on the baseline host, since every TEE
    refuses its first probe.  Every attacker prime and probe of the four
    batched Prime+Probe rows takes the closed-form set sweep (the
    ``prime+probe:byte`` span's ``sweeps_closed``/``sweeps_walked``),
    none the per-access walk, and every sample but each byte's first
    replays in the steady transition (``samples_closed``)."""
    real_try = batch.try_run_batched
    accepted: dict[str, list[bool]] = {}

    def recording_try(attack):
        result = real_try(attack)
        accepted.setdefault(attack.victim.arch.NAME, []).append(
            result is not None)
        return result

    monkeypatch.setattr(batch, "try_run_batched", recording_try)
    tracer = obs.Tracer(scope="tab-s41", seed=0x41)
    with obs.activate(tracer):
        rows = cache_defence_table()
    calls = sum(map(len, accepted.values()))
    scalar_rows = cache_defence_table(
        runner=ExperimentRunner(reference=True))
    assert sum(map(len, accepted.values())) == calls

    assert [dataclasses.asdict(r) for r in rows] \
        == [dataclasses.asdict(r) for r in scalar_rows]
    assert len(rows) == 5
    assert accepted == {"none": [True, True],
                        "sgx": [True, False],
                        "sanctum": [False, False],
                        "trustzone": [True, False],
                        "sanctuary": [True, False]}
    sweeps = [(r["args"]["sweeps_closed"], r["args"]["sweeps_walked"],
               r["args"]["samples_closed"])
              for r in tracer.records if r["name"] == "prime+probe:byte"
              and "sweeps_closed" in r["args"]]
    # 4 rows x 2 bytes x (8 values x 8 samples x 16 sets x prime+probe);
    # a byte's first sample primes sets the previous byte's lists left.
    assert sweeps == [(2048, 0, 63)] * 8


def _drain(tmp_path, job_doc: dict) -> ServiceWorker:
    """Write ``job_doc`` as a job file and drain it with one worker."""
    queue = JobQueue(tmp_path / "queue")
    queue.jobs_dir.mkdir(parents=True)
    queue.job_path(job_doc["job_id"]).write_text(json.dumps(job_doc),
                                                 encoding="utf-8")
    worker = ServiceWorker(queue, cache=ResultCache(tmp_path / "cells"),
                           ttl_s=5.0, poll_s=0.01)
    worker.run_until_drained()
    return worker


def test_service_job_without_strategy_keys_runs_fast_lane(tmp_path, lanes):
    job = JobSpec.matrix(quick=True).scoped(platforms=("mobile",),
                                           categories=("microarchitectural",
                                                       WORKLOAD_CATEGORY))
    # A job file written while jobs still carried lane flags: the keys
    # are ignored, the job id is unchanged, and the fast lanes run.
    legacy = dict(job.to_dict(), ensemble=False, batch=False)
    assert JobSpec.from_dict(legacy) == job
    assert JobSpec.from_dict(legacy).job_id == legacy["job_id"]
    assert _drain(tmp_path, legacy).stats.cells_computed == 2
    assert lanes == {"batched": 1, "power": 0, "replay": 1, "memo": 0}


def test_service_scan_job_runs_memoized_lane(tmp_path, lanes):
    job = JobSpec(platforms=(SCAN.platform,), categories=(SCAN_CATEGORY,),
                  knobs=SCAN_KNOBS)
    assert job.cells() == [SCAN]
    assert _drain(tmp_path, job.to_dict()).stats.cells_computed == 1
    assert lanes == {"batched": 0, "power": 0, "replay": 0,
                     "memo": len(GADGETS)}
