"""Worker fleets: forked service workers, optionally under chaos.

A :class:`WorkerFleet` forks N members from the calling process against
one queue directory.  Each member runs the same entry point as
``python -m repro worker``
(:func:`~repro.service.worker.run_worker_process`) with stdout and
stderr on ``/dev/null``, and leaves through ``os._exit``.  A member
inherits what its parent has imported, so ``repro serve`` imports the
queued cells' modules once, before it starts the fleet, instead of
once per member.  Members are still separate processes that share
nothing but the directory protocol, so killing one *is* the
host-failure experiment, not a simulation of it.  The fleet's chaos
controller (driven by :class:`~repro.service.chaos.HostChaosConfig`)
SIGKILLs members on deterministic draws; a member that dies from a
signal or a non-zero exit is respawned, and one that exits 0 (the
queue drained) is not.  That is how the serve-smoke gate and the
host-chaos suite exercise lease expiry and takeover with nothing
mocked.

Forking is safe because the fleet's parent runs no thread of its own:
the coordinator waits in the main thread, and lease keepalive threads
run only inside members.  Each member holds the only write end of a
pipe, so the fleet's read end turns readable (end of file) the moment
the member exits, however it dies.  :meth:`WorkerFleet.wait` blocks on
those descriptors: a supervisor wakes on a member's exit, not on its
next poll.

The fleet object itself holds no protocol state — losing the parent
process orphans nothing, because workers drain against the directory,
not against their spawner.
"""

from __future__ import annotations

import os
import select
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from repro.service.chaos import HostChaosConfig, kill_process
from repro.service.lease import DEFAULT_TTL_S
from repro.service.worker import run_worker_process


class _Member:
    """One forked fleet member: its pid and its exit descriptor."""

    def __init__(self, pid: int, exit_fd: int) -> None:
        self.pid = pid
        self.exit_fd = exit_fd
        #: ``None`` while running; then the exit code, or ``-signum``
        #: for a member killed by a signal (``subprocess``'s convention).
        self.returncode: int | None = None

    def exited(self, timeout_s: float = 0.0) -> bool:
        """Whether the member has exited, waiting up to ``timeout_s``."""
        if self.returncode is None:
            ready, _, _ = select.select([self.exit_fd], [], [], timeout_s)
            if ready:
                # End of file comes as the member's descriptors close on
                # its way out; the blocking wait covers the last steps
                # before it turns into a zombie.
                _, status = os.waitpid(self.pid, 0)
                self.returncode = os.waitstatus_to_exitcode(status)
                os.close(self.exit_fd)
        return self.returncode is not None

    @property
    def failed(self) -> bool:
        """Exited from a signal or with a non-zero status."""
        return self.returncode is not None and self.returncode != 0


def _fork_member(target: Callable[[], object]) -> _Member:
    """Fork a child that runs ``target`` with its output on
    ``/dev/null`` and exits 0 if it returns, 1 if it raises."""
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    exit_r, exit_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(exit_r)
            devnull = os.open(os.devnull, os.O_RDWR)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            target()
            code = 0
        finally:
            os._exit(code)
    os.close(exit_w)
    return _Member(pid, exit_r)


def _file_clock() -> float:
    """Now, as a file's modification time would read it.

    File timestamps come from the kernel's coarse clock, which can trail
    :func:`time.time` by a tick, so a cell published right after a
    :func:`time.time` reading could look older than it.
    """
    with tempfile.TemporaryFile() as stamp:
        return os.fstat(stamp.fileno()).st_mtime


class WorkerFleet:
    """Fork, kill, respawn and drain service workers."""

    def __init__(self, queue_root: str | Path,
                 cache_root: str | Path | None = None,
                 size: int = 2,
                 ttl_s: float = DEFAULT_TTL_S,
                 poll_s: float = 0.1,
                 chaos: HostChaosConfig | None = None) -> None:
        self.queue_root = Path(queue_root)
        self.cache_root = Path(cache_root) if cache_root else None
        self.size = max(1, int(size))
        self.ttl_s = float(ttl_s)
        self.poll_s = float(poll_s)
        self.chaos = chaos
        self.members: list[_Member | None] = [None] * self.size
        self.kills = 0
        self.respawns = 0
        #: Time of the first fork on the clock file timestamps come
        #: from (``None`` before start); see :func:`_file_clock`.
        self.started_at: float | None = None
        self._chaos_tick = 0
        self._next_chaos_at = 0.0

    # -- lifecycle ---------------------------------------------------------

    def _run_member(self) -> None:
        run_worker_process(
            str(self.queue_root),
            str(self.cache_root) if self.cache_root is not None else None,
            ttl_s=self.ttl_s, poll_s=self.poll_s)

    def _spawn(self, slot: int) -> _Member:
        member = _fork_member(self._run_member)
        self.members[slot] = member
        return member

    def start(self) -> None:
        self.started_at = _file_clock()
        for slot in range(self.size):
            if self.members[slot] is None:
                self._spawn(slot)
        if self.chaos is not None:
            self._next_chaos_at = (time.monotonic()
                                   + self.chaos.kill_interval_s)

    def _live(self) -> list[_Member]:
        return [member for member in self.members
                if member is not None and not member.exited()]

    def alive(self) -> int:
        return len(self._live())

    @property
    def pids(self) -> list[int | None]:
        """Each slot's member pid (``None`` for an empty slot)."""
        return [member.pid if member is not None else None
                for member in self.members]

    # -- supervision (call from the coordinator's loop) --------------------

    def poll(self) -> None:
        """One supervision tick: run chaos draws, respawn the dead.

        A member that exited 0 found nothing left to do and stays gone;
        one killed by a signal or exiting non-zero is replaced.  The
        replacement is a new process with a new owner identity, so the
        dead member's lease must still expire before a survivor (or the
        replacement) can reclaim its cell.
        """
        self._chaos_poll()
        for slot, member in enumerate(self.members):
            if member is None or not member.exited():
                continue
            if member.failed:
                self._spawn(slot)
                self.respawns += 1
            else:
                self.members[slot] = None

    def wait(self, timeout_s: float) -> str:
        """Block until a member exits or ``timeout_s`` passes.

        Returns the wake's cause, ``"worker-exit"`` or ``"timeout"``:
        this is the wait hook ``repro serve`` hands to
        :meth:`~repro.service.coordinator.Coordinator.wait`.
        """
        running = {member.exit_fd: member for member in self.members
                   if member is not None and member.returncode is None}
        ready, _, _ = select.select(list(running), [], [],
                                    max(0.0, timeout_s))
        for fd in ready:
            running[fd].exited()
        return "worker-exit" if ready else "timeout"

    def _chaos_poll(self) -> None:
        if self.chaos is None or self.chaos.kill_rate <= 0:
            return
        now = time.monotonic()
        if now < self._next_chaos_at:
            return
        self._next_chaos_at = now + self.chaos.kill_interval_s
        victim = self.chaos.draw_kill(self._chaos_tick, self.size)
        self._chaos_tick += 1
        if victim is None:
            return
        member = self.members[victim]
        if member is not None and not member.exited():
            if kill_process(member.pid):
                self.kills += 1

    def kill_one(self, slot: int = 0) -> bool:
        """Deterministic host loss for tests: SIGKILL a named member."""
        member = self.members[slot]
        if member is None or member.exited():
            return False
        ok = kill_process(member.pid)
        if ok:
            self.kills += 1
            member.exited(timeout_s=10.0)
        return ok

    # -- teardown ----------------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> bool:
        """SIGTERM everyone (graceful drain) and wait; True if all left.

        An idle member wakes on the signal, so this returns as soon as
        each member has finished its in-flight cell.
        """
        for member in self._live():
            try:
                os.kill(member.pid, signal.SIGTERM)
            except OSError:
                pass
        deadline = time.monotonic() + timeout_s
        for member in self.members:
            if member is not None and not member.exited(
                    max(0.0, deadline - time.monotonic())):
                return False
        return True

    def stop(self) -> None:
        """Hard stop: kill and reap every member still running."""
        for member in self._live():
            kill_process(member.pid)
        for member in self.members:
            if member is not None:
                member.exited(timeout_s=10.0)

    def __enter__(self) -> "WorkerFleet":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
