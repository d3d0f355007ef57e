"""Tier-1 suite for the forked worker fleet and the service's event waits.

A :class:`~repro.service.fleet.WorkerFleet` forks its members from the
calling process, so these tests fork from the test process itself, on
jobs of one or two cells.  Killing members mid-job under chaos is the
opt-in ``test_service_chaos.py``'s business; here the contracts are:

* a member's exit wakes the coordinator (the fleet's wait hook), and
  ``--poll`` only bounds a wait, it is not a fixed sleep;
* ``request_drain`` (SIGTERM) ends an idle worker's wait at once;
* a forked member has its own lease identity;
* members that finish normally are not respawned, and none outlives
  the fleet;
* ``serve --metrics`` attributes the fleet's time, and a cell published
  right after the forks is not older than the fleet's start.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.runner import ResultCache, RetryPolicy, cache_key_for
from repro.service import (
    Coordinator,
    JobQueue,
    JobSpec,
    ServiceWorker,
    WorkerFleet,
    default_owner_id,
    try_acquire,
)
from repro.service.fleet import _file_clock, _fork_member

RETRY = RetryPolicy(max_retries=2, base_delay_s=0.01, max_delay_s=0.05)


def one_cell_job(category: str = "remote") -> JobSpec:
    return JobSpec.matrix(quick=True).scoped(
        platforms=("server-desktop",), categories=(category,))


@pytest.fixture()
def queue(tmp_path: Path) -> JobQueue:
    return JobQueue(tmp_path / "queue")


@pytest.fixture()
def cache(tmp_path: Path) -> ResultCache:
    return ResultCache(tmp_path / "cells")


def blocked_job(queue: JobQueue) -> tuple[JobSpec, object]:
    """A submitted one-cell job whose cell a foreign owner holds, so a
    worker on it stays idle until drained or killed."""
    job = one_cell_job()
    queue.submit(job)
    blocker = try_acquire(queue.lease_path(cache_key_for(job.cells()[0])),
                          "worker-elsewhere", ttl_s=600.0)
    assert blocker is not None
    return job, blocker


def gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_sigterm_ends_an_idle_wait_at_once(queue, cache):
    """With ``poll_s=30`` the worker idles on a held cell; SIGTERM
    (``request_drain``) must end its wait within a second, not 30."""
    blocked_job(queue)
    worker = ServiceWorker(queue, cache=cache, poll_s=30.0, retry=RETRY)
    restore = worker.install_signal_handlers()
    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGTERM))
    start = time.monotonic()
    timer.start()
    try:
        stats = worker.run_until_drained()
    finally:
        timer.cancel()
        restore()
    assert stats.drained
    assert time.monotonic() - start < 1.3


def test_request_drain_from_another_thread_ends_an_idle_wait(queue, cache):
    blocked_job(queue)
    worker = ServiceWorker(queue, cache=cache, poll_s=30.0, retry=RETRY)
    timer = threading.Timer(0.3, worker.request_drain)
    start = time.monotonic()
    timer.start()
    try:
        stats = worker.run_until_drained()
    finally:
        timer.cancel()
    assert stats.drained and stats.cells_computed == 0
    assert time.monotonic() - start < 1.3


def test_wait_hook_wakes_the_coordinator_before_poll_s(queue, cache):
    """``Coordinator.wait`` returns once its hook fires, not after
    ``poll_s``, and counts the wake by the cause the hook returns."""
    job = one_cell_job()
    queue.submit(job)
    coordinator = Coordinator(queue, cache)
    finished = threading.Event()

    def drain_then_signal() -> None:
        ServiceWorker(queue, cache=cache, poll_s=0.01,
                      retry=RETRY).run_until_drained()
        finished.set()

    def hook(timeout_s: float) -> str:
        return "worker-exit" if finished.wait(timeout_s) else "timeout"

    thread = threading.Thread(target=drain_then_signal)
    start = time.monotonic()
    thread.start()
    status = coordinator.wait(job, timeout_s=120.0, poll_s=30.0,
                              wait_hook=hook)
    thread.join(timeout=120.0)
    assert not thread.is_alive()
    assert status.complete
    assert time.monotonic() - start < 15.0
    wakes = coordinator.metrics.to_json()["repro_service_wakes_total"]
    assert wakes["values"] == {"cause=worker-exit": 1}


def test_forked_members_have_their_own_owner_ids(tmp_path: Path):
    """The lease identity after fork: each member's ``default_owner_id``
    differs from its parent's and from its sibling's."""
    def record() -> None:
        (tmp_path / f"owner-{os.getpid()}").write_text(default_owner_id())

    members = [_fork_member(record) for _ in range(2)]
    for member in members:
        assert member.exited(timeout_s=30.0)
        assert member.returncode == 0
    owners = {path.read_text() for path in tmp_path.glob("owner-*")}
    assert len(owners) == 2
    assert default_owner_id() not in owners


def test_a_member_that_raises_exits_nonzero(tmp_path: Path):
    def boom() -> None:
        raise RuntimeError("member failed")

    member = _fork_member(boom)
    assert member.exited(timeout_s=30.0)
    assert member.returncode == 1 and member.failed


@pytest.mark.parametrize("raise_inside", [False, True])
def test_no_member_outlives_the_fleet(queue, tmp_path, raise_inside):
    blocked_job(queue)
    with pytest.raises(RuntimeError) if raise_inside else \
            contextlib.nullcontext():
        with WorkerFleet(queue.root, tmp_path / "cells", size=2,
                         poll_s=0.05) as fleet:
            pids = list(fleet.pids)
            assert fleet.alive() == 2
            if raise_inside:
                raise RuntimeError("supervisor failed")
    assert all(gone(pid) for pid in pids)


def test_chaos_free_fleet_neither_kills_nor_respawns(queue, tmp_path):
    """Members that exit 0 because the queue drained stay gone: a
    chaos-free run ends with ``kills == respawns == 0``."""
    job = JobSpec.matrix(quick=True).scoped(
        platforms=("server-desktop",), categories=("remote", "local"))
    queue.submit(job)
    cache_root = tmp_path / "cells"
    coordinator = Coordinator(queue, ResultCache(cache_root))
    with WorkerFleet(queue.root, cache_root, size=2, poll_s=0.05) as fleet:
        status = coordinator.wait(job, timeout_s=120.0, poll_s=0.2,
                                  on_poll=lambda _s: fleet.poll(),
                                  wait_hook=fleet.wait)
        members = [m for m in fleet.members if m is not None]
        for member in members:
            assert member.exited(timeout_s=30.0)
            assert member.returncode == 0
        fleet.poll()
        assert fleet.pids == [None, None]
    assert status.succeeded
    assert fleet.kills == 0 and fleet.respawns == 0


def test_a_file_written_after_the_fleet_clock_is_not_older(tmp_path):
    path = tmp_path / "cell.json"
    for _ in range(200):
        since = _file_clock()
        path.write_text("{}")
        assert path.stat().st_mtime >= since


def test_serve_metrics_attribute_the_fleet_time(queue, tmp_path, capsys):
    queue.submit(one_cell_job())
    metrics = tmp_path / "serve.prom"
    assert main(["serve", "--queue", str(queue.root), "--workers", "2",
                 "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "1/1 done" in out and "chaos:" not in out
    text = metrics.read_text()
    for phase in ("start_to_fork", "fork_to_first_cell",
                  "complete_to_exit"):
        assert f'repro_service_fleet_seconds{{phase="{phase}"}}' in text
    assert "repro_service_wakes_total{cause=" in text
