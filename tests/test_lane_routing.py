"""Lane routing: the fast lanes are the default, ``False`` is the oracle.

The tests count how often cells reach the batched attack kernels
(:func:`repro.attacks.batch.try_run_batched`) and the ensemble engine
(:meth:`repro.cpu.ensemble.CoreEnsemble.run`).  A default runner must
reach both.  ``batch=False, ensemble=False`` must reach neither, on
every path a cell can take: the serial runner, the pool entry point
:func:`~repro.runner.engine.execute_task`, and the chaos wrapper.
TAB-S41 and the evaluation service run the fast lane by default too.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

import repro.attacks.batch as batch
from repro.attacks.suites import MatrixKnobs
from repro.core.comparison import cache_defence_table
from repro.core.matrix import EvaluationMatrix
from repro.cpu.ensemble import CoreEnsemble
from repro.runner import (
    WORKLOAD_CATEGORY,
    CellSpec,
    ChaosConfig,
    ExperimentRunner,
    ResultCache,
)
from repro.runner.chaos import chaos_execute_spec
from repro.runner.engine import (
    STRATEGY_DEFAULTS,
    CellTask,
    execute_spec,
    execute_task,
)
from repro.service import JobQueue, JobSpec, ServiceWorker

KNOBS = MatrixKnobs.quick().as_key()
ATTACK = CellSpec(seed=0x2019, platform="mobile",
                  category="microarchitectural", knobs=KNOBS)
WORKLOAD = CellSpec(seed=0x2019, platform="mobile",
                    category=WORKLOAD_CATEGORY, knobs=KNOBS)
SPECS = [ATTACK, WORKLOAD]

REFERENCE = {"batch": False, "ensemble": False}
NO_CHAOS = ChaosConfig(rate=0.0)


@pytest.fixture()
def lanes(monkeypatch) -> dict[str, int]:
    """Call counts of the two fast-lane entry points."""
    counts = {"batched": 0, "ensemble": 0}
    real_try = batch.try_run_batched
    real_run = CoreEnsemble.run

    def counting_try(attack):
        counts["batched"] += 1
        return real_try(attack)

    def counting_run(self, *args, **kwargs):
        counts["ensemble"] += 1
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(batch, "try_run_batched", counting_try)
    monkeypatch.setattr(CoreEnsemble, "run", counting_run)
    return counts


class TestStrategyDefaults:
    def test_defaults_agree_on_every_entry_point(self):
        # The runner takes ``collect`` from its observer, not a keyword.
        for fn in (execute_spec, chaos_execute_spec,
                   ExperimentRunner.__init__):
            params = inspect.signature(fn).parameters
            assert all(params[name].default == default
                       for name, default in STRATEGY_DEFAULTS.items()
                       if name in params)
        task = CellTask(spec=ATTACK)
        assert {name: getattr(task, name)
                for name in STRATEGY_DEFAULTS} == STRATEGY_DEFAULTS
        matrix = EvaluationMatrix()
        assert matrix.batch and matrix.ensemble
        job = JobSpec()
        assert job.batch and job.ensemble


class TestDefaultLane:
    def test_default_runner_reaches_both_fast_lanes(self, lanes):
        assert len(ExperimentRunner().run(SPECS)) == 2
        assert lanes == {"batched": 1, "ensemble": 1}

    def test_default_chaos_runner_reaches_both_fast_lanes(self, lanes):
        assert len(ExperimentRunner(chaos=NO_CHAOS).run(SPECS)) == 2
        assert lanes == {"batched": 1, "ensemble": 1}

    def test_default_pool_entry_reaches_both_fast_lanes(self, lanes):
        for spec in SPECS:
            assert execute_task(CellTask(spec=spec))[0] == "ok"
        assert lanes == {"batched": 1, "ensemble": 1}


class TestReferenceLane:
    def test_serial_runner_stays_scalar(self, lanes):
        assert len(ExperimentRunner(**REFERENCE).run(SPECS)) == 2
        assert lanes == {"batched": 0, "ensemble": 0}

    def test_pool_entry_stays_scalar(self, lanes):
        for spec in SPECS:
            assert execute_task(CellTask(spec=spec, **REFERENCE))[0] == "ok"
            assert execute_task(CellTask(spec=spec, chaos=NO_CHAOS,
                                         **REFERENCE))[0] == "ok"
        assert lanes == {"batched": 0, "ensemble": 0}

    def test_chaos_wrapper_stays_scalar(self, lanes):
        for spec in SPECS:
            chaos_execute_spec(spec, 0, NO_CHAOS, in_worker=False,
                               **REFERENCE)
        assert len(ExperimentRunner(chaos=NO_CHAOS,
                                    **REFERENCE).run(SPECS)) == 2
        assert lanes == {"batched": 0, "ensemble": 0}


def test_tab_s41_batches_every_modelled_host(monkeypatch):
    """TAB-S41 rows are identical whether or not the kernels may run.
    Prime+Probe batches on every host but Sanctum; Flush+Reload batches
    only on the baseline host, since every TEE refuses its first probe."""
    real_try = batch.try_run_batched
    accepted: dict[str, list[bool]] = {}

    def recording_try(attack):
        result = real_try(attack)
        accepted.setdefault(attack.victim.arch.NAME, []).append(
            result is not None)
        return result

    monkeypatch.setattr(batch, "try_run_batched", recording_try)
    rows = cache_defence_table()
    monkeypatch.setattr(batch, "try_run_batched", lambda attack: None)
    scalar_rows = cache_defence_table()

    assert [dataclasses.asdict(r) for r in rows] \
        == [dataclasses.asdict(r) for r in scalar_rows]
    assert len(rows) == 5
    assert accepted == {"none": [True, True],
                        "sgx": [True, False],
                        "sanctum": [False, False],
                        "trustzone": [True, False],
                        "sanctuary": [True, False]}


def test_service_job_without_strategy_keys_runs_fast_lane(tmp_path, lanes):
    job = JobSpec.matrix(quick=True).scoped(platforms=("mobile",),
                                           categories=("microarchitectural",
                                                       WORKLOAD_CATEGORY))
    legacy = job.to_dict()
    del legacy["batch"], legacy["ensemble"]
    assert JobSpec.from_dict(legacy) == job

    queue = JobQueue(tmp_path / "queue")
    queue.jobs_dir.mkdir(parents=True)
    queue.job_path(job.job_id).write_text(json.dumps(legacy),
                                          encoding="utf-8")
    worker = ServiceWorker(queue, cache=ResultCache(tmp_path / "cells"),
                           ttl_s=5.0, poll_s=0.01)
    stats = worker.run_until_drained()
    assert stats.cells_computed == 2
    assert lanes == {"batched": 1, "ensemble": 1}
