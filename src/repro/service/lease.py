"""Crash-safe work leases: ``O_EXCL`` files with heartbeat and TTL.

A lease is one JSON file whose *existence* is the lock: acquisition is
``os.open(O_CREAT | O_EXCL)``, which the filesystem arbitrates — two
contenders racing for the same path get exactly one winner, with no
daemon and no shared state beyond the directory.  The file's contents
identify the owner (host, pid, a per-process nonce) and carry a
heartbeat timestamp plus a TTL, which is what makes the lock safe
against *whole-host* failure: a SIGKILLed or partitioned owner stops
heartbeating, its lease goes stale after ``ttl_s``, and any surviving
worker may reap it and take over.  Nothing an owner can fail to do
leaves the cell locked forever.

Reaping serialises the staleness verdict and the clearing rename
through a short-lived ``O_EXCL`` reap slot: the slot holder re-judges
the lease *inside* the critical section and renames it aside only if
it is still reapable, so a verdict outdated by a rival's reap-and-
re-acquire can never steal the rival's fresh lease (see
:func:`reap_lease` for the two-owner race a bare rename-aside
permits).  Slot losers simply retry later, a slot orphaned by a crash
is broken after a grace period, and the winner still goes through the
same ``O_EXCL`` acquisition as everyone else — the create, not the
reap, is always the arbiter.

Torn lease files (a host died mid-write, or chaos tore one on purpose)
parse as garbage and are treated as *immediately* stale: an
unreadable lease proves its writer never completed an atomic publish,
so there is no live owner to protect.  Heartbeats skewed into the
future beyond the TTL are equally untrustworthy — a clock that far
wrong would make a dead host's lease immortal — and also count as
stale (:func:`lease_state` returns ``"skewed"``).

Timestamps are wall-clock (``time.time()``): leases must be comparable
*across hosts*, which monotonic clocks are not.  The TTL is therefore
also the cross-host clock-skew tolerance; keep it generous relative to
NTP drift (seconds, not milliseconds) in real deployments.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from itertools import count
from pathlib import Path

from repro.common import hostname
from repro.errors import HarnessError

#: Default seconds without a heartbeat before a lease may be reaped.
DEFAULT_TTL_S = 30.0

#: File-name suffix of live leases under a queue's ``leases/`` dir.
LEASE_SUFFIX = ".lease"

#: Per-process nonce: distinguishes two workers that share host + pid
#: (pid reuse after a crash, or a fork inheriting module state — the
#: fork changes the pid, the reuse changes the nonce's process).
_PROCESS_NONCE = os.urandom(3).hex()

#: Per-process counter for unique reap-tomb names.
_REAP_COUNTER = count()


def default_owner_id(role: str = "worker") -> str:
    """A globally distinguishable owner identity for this process."""
    return f"{role}-{hostname()}-{os.getpid()}-{_PROCESS_NONCE}"


class LeaseLostError(HarnessError):
    """This process's lease was reaped (it went stale) and is now owned
    by someone else — the in-flight work must not publish as if still
    exclusive (the content-addressed cache makes double-publish safe,
    but the loser must stop heartbeating over the new owner)."""


@dataclass(frozen=True)
class LeaseInfo:
    """The decoded contents of one lease file."""

    owner: str
    host: str
    pid: int
    acquired_at: float
    heartbeat_at: float
    ttl_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def read_lease(path: str | Path) -> LeaseInfo | None:
    """Decode a lease file; ``None`` when absent, torn, or non-JSON.

    A ``None`` from an *existing* file means the lease is torn — its
    writer never finished an atomic publish — which callers treat as
    stale (see module docstring).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        data = json.loads(text)
        return LeaseInfo(
            owner=str(data["owner"]), host=str(data["host"]),
            pid=int(data["pid"]),
            acquired_at=float(data["acquired_at"]),
            heartbeat_at=float(data["heartbeat_at"]),
            ttl_s=float(data["ttl_s"]))
    except (ValueError, TypeError, KeyError):
        return None


def lease_state(path: str | Path, now: float | None = None) -> str:
    """One of ``"free" | "held" | "stale" | "torn" | "skewed"``.

    ``stale``, ``torn`` and ``skewed`` are all reapable; ``held`` is
    the only state that must be respected.
    """
    path = Path(path)
    if not path.exists():
        return "free"
    info = read_lease(path)
    if info is None:
        return "torn"
    now = time.time() if now is None else now
    if info.heartbeat_at > now + info.ttl_s:
        return "skewed"
    if now - info.heartbeat_at > info.ttl_s:
        return "stale"
    return "held"


def _write_lease_file(path: Path, info: LeaseInfo, exclusive: bool) -> bool:
    """Atomically publish ``info`` at ``path``.

    ``exclusive`` publishes a fully written temp file into place with
    ``os.link``, which fails if ``path`` already exists — the same
    lose-to-an-existing-file arbitration as ``O_EXCL``, but the lease
    appears with its *contents* in one atomic step.  A bare
    ``O_EXCL`` open followed by a write is not enough: between the
    create and the write the lease is an empty file, which a
    concurrent :func:`lease_state` reads as ``torn`` — i.e. reapable —
    and a rival could legitimately clear a lease that was just won.
    The non-exclusive branch is the heartbeat refresh: same temp file,
    published with ``os.replace`` (which must never tear the file a
    concurrent reader is decoding, and *may* overwrite).
    Returns whether the publish happened.
    """
    # No fsync, deliberately: a lease needs *atomicity* (link /
    # rename are the arbiters), never durability — a lease lost to a
    # host crash is exactly the stale/absent lease the protocol
    # already recovers from, and syncing every acquire/heartbeat would
    # tax each cell for a guarantee nothing relies on.
    payload = info.to_json().encode("utf-8")
    if exclusive:
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_REAP_COUNTER)}.new")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            os.link(tmp, path)
            return True
        except OSError:
            return False
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_REAP_COUNTER)}.hb")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        return True
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return False


#: Seconds after which an abandoned reap slot (its holder died between
#: taking it and finishing the rename — a microseconds-long critical
#: section) is broken by the next contender.  Generous relative to the
#: section, tiny relative to lease TTLs.
REAP_SLOT_GRACE_S = 5.0


def _break_abandoned_reap_slot(slot: Path) -> None:
    """Clear a reap slot whose holder evidently died mid-reap.

    Age is judged by file mtime against this host's clock; the grace is
    orders of magnitude above the critical section it guards, so only a
    genuinely dead (or absurdly paused) holder is ever displaced.  The
    rename-aside keeps slot-breaking itself single-winner.
    """
    try:
        age = time.time() - slot.stat().st_mtime
    except OSError:
        return
    if age <= REAP_SLOT_GRACE_S:
        return
    aside = slot.with_name(
        f"{slot.name}.{os.getpid()}.{next(_REAP_COUNTER)}")
    try:
        os.rename(slot, aside)
    except OSError:
        return
    try:
        aside.unlink()
    except OSError:
        pass


def reap_lease(path: str | Path, now: float | None = None) -> bool:
    """Clear a stale/torn/skewed lease from ``path``; one winner only.

    A bare rename-aside is *not* enough: the rename grabs whatever is
    at the path at that instant, and between a contender's staleness
    verdict and its rename a rival may have reaped first and won the
    ``O_EXCL`` re-acquire — the late rename would then steal the
    rival's *fresh* lease, leaving the path momentarily free for a
    third contender's create, and two workers walk away each believing
    they own the cell.  So the verdict and the rename are serialised
    through a reap slot (an ``O_EXCL`` sidecar file): the slot holder
    re-judges the lease state *inside* the critical section and only
    renames a lease that is still reapable.  Losers of the slot report
    ``False`` and simply retry later; a slot orphaned by a crash is
    broken after :data:`REAP_SLOT_GRACE_S`.  The winner still has to
    *acquire* afterwards like anyone else — the ``O_EXCL`` create
    remains the ownership arbiter.
    """
    path = Path(path)
    now = time.time() if now is None else now
    slot = path.with_name(path.name + ".reaplock")
    _break_abandoned_reap_slot(slot)
    token = (f"{hostname()}.{os.getpid()}.{_PROCESS_NONCE}."
             f"{next(_REAP_COUNTER)}").encode("ascii")
    try:
        fd = os.open(slot, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except OSError:
        return False
    try:
        os.write(fd, token)
        os.close(fd)
        if lease_state(path, now=now) not in ("stale", "torn", "skewed"):
            # The lease was re-acquired (or refreshed) since the
            # caller's verdict; it is live and must be respected.
            return False
        tomb = path.with_name(
            f"{path.name}.reaped.{os.getpid()}.{next(_REAP_COUNTER)}")
        try:
            os.rename(path, tomb)
        except OSError:
            return False
        try:
            tomb.unlink()
        except OSError:
            pass
        return True
    finally:
        # Remove only our own slot: if a breaker judged us dead and a
        # rival now holds a fresh slot, leave it strictly alone.
        try:
            if slot.read_bytes() == token:
                slot.unlink()
        except OSError:
            pass


class Lease:
    """A held lease: heartbeat it while working, release it when done."""

    def __init__(self, path: Path, info: LeaseInfo) -> None:
        self.path = Path(path)
        self.info = info
        self.lost = False
        self._keepalive_stop: threading.Event | None = None
        self._keepalive_thread: threading.Thread | None = None

    @property
    def owner(self) -> str:
        return self.info.owner

    def heartbeat(self, now: float | None = None) -> None:
        """Refresh the lease's liveness timestamp, atomically.

        Raises :class:`LeaseLostError` when the on-disk lease is no
        longer ours — it went stale and a surviving worker reaped it.
        A lease this process let expire is *not* rewritten: the reaper
        was entitled to take it, and stomping the new owner's file
        would create two believers.
        """
        if self.lost:
            raise LeaseLostError(f"lease {self.path.name} already lost")
        current = read_lease(self.path)
        if current is None or current.owner != self.info.owner:
            self.lost = True
            raise LeaseLostError(
                f"lease {self.path.name} now owned by "
                f"{current.owner if current else '<torn/absent>'}")
        now = time.time() if now is None else now
        refreshed = LeaseInfo(
            owner=self.info.owner, host=self.info.host, pid=self.info.pid,
            acquired_at=self.info.acquired_at, heartbeat_at=now,
            ttl_s=self.info.ttl_s)
        if _write_lease_file(self.path, refreshed, exclusive=False):
            self.info = refreshed

    def release(self) -> bool:
        """Give the lease up; returns whether we still owned it.

        Only the owner's own file is removed — if the lease was reaped
        and re-acquired while we dawdled, the new owner's file is left
        strictly alone.
        """
        self.stop_keepalive()
        current = read_lease(self.path)
        if current is None or current.owner != self.info.owner:
            self.lost = True
            return False
        try:
            self.path.unlink()
        except OSError:
            return False
        return True

    # -- background heartbeating -------------------------------------------

    def start_keepalive(self, interval_s: float | None = None) -> None:
        """Heartbeat from a daemon thread every ``interval_s`` seconds
        (default: a third of the TTL) until stopped or lost.  A
        SIGKILLed process takes the thread with it — which is exactly
        the point: liveness stops when the host does."""
        if self._keepalive_thread is not None:
            return
        interval = (interval_s if interval_s and interval_s > 0
                    else max(self.info.ttl_s / 3.0, 0.01))
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    self.heartbeat()
                except (LeaseLostError, OSError):
                    return

        thread = threading.Thread(target=beat, name="lease-keepalive",
                                  daemon=True)
        self._keepalive_stop = stop
        self._keepalive_thread = thread
        thread.start()

    def stop_keepalive(self) -> None:
        if self._keepalive_stop is not None:
            self._keepalive_stop.set()
        if self._keepalive_thread is not None:
            self._keepalive_thread.join(timeout=5.0)
        self._keepalive_stop = None
        self._keepalive_thread = None

    def __enter__(self) -> "Lease":
        self.start_keepalive()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


def try_acquire(path: str | Path, owner: str,
                ttl_s: float = DEFAULT_TTL_S,
                now: float | None = None) -> Lease | None:
    """Attempt to take the lease at ``path``; ``None`` if someone holds it.

    A fresh lease is respected; a stale, torn or clock-skewed one is
    reaped first (one reaper wins the rename) and acquisition then
    proceeds through the normal ``O_EXCL`` create — so even a reap
    winner can lose the subsequent create to a third party arriving
    fresh, and exactly one owner ever results.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    now = time.time() if now is None else now
    info = LeaseInfo(owner=owner, host=hostname(), pid=os.getpid(),
                     acquired_at=now, heartbeat_at=now, ttl_s=ttl_s)
    if _write_lease_file(path, info, exclusive=True):
        return Lease(path, info)
    if lease_state(path, now=now) in ("stale", "torn", "skewed"):
        reap_lease(path, now=now)
        # Whether or not *we* won the reap, the path may now be free;
        # the O_EXCL create below stays the single arbiter.
        if _write_lease_file(path, info, exclusive=True):
            return Lease(path, info)
    return None
