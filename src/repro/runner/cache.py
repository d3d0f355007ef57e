"""Content-addressed on-disk cache for cell results.

Entries are keyed by the SHA-256 of the cell's full input description —
package version, knobs, seed, platform, category — so a hit can only ever
return the payload that cell would recompute.  Bumping
``repro.__version__`` therefore invalidates every entry implicitly;
:meth:`ResultCache.clear` invalidates explicitly.

The cache is deliberately forgiving, and crash-safe by construction:

* :meth:`ResultCache.put` writes to a uniquely named ``*.tmp`` file in
  the cache root, fsyncs it, and ``os.replace``\\ s it into place — a
  run SIGKILLed mid-write leaves at worst an ignorable temp file, never
  a torn ``*.json`` entry a later run could trust;
* a truncated or hand-edited entry is discarded (and deleted) rather
  than allowed to poison a run, and an optional ``validator`` lets the
  caller reject entries that parse but whose *contents* are wrong (the
  runner passes its payload-integrity check);
* leftover temp files from killed runs are swept opportunistically.
"""

from __future__ import annotations

import json
import os
import time
from itertools import count
from pathlib import Path
from typing import Callable

from repro.common import hostname

#: Per-process counter making concurrent same-key writers collision-free.
_TMP_COUNTER = count()

#: Per-process random nonce: with the cache root on a *shared*
#: filesystem, hostname+pid alone is not unique — two hosts can run the
#: same pid, and pid reuse after a crash could collide with a dead
#: writer's orphan.  The nonce survives ``fork`` (the child's pid
#: changes, which restores uniqueness) and makes writer tags
#: collision-free across hosts and across time.
_WRITER_NONCE = os.urandom(4).hex()

#: Seconds a *foreign* writer's temp file must sit untouched before
#: :meth:`ResultCache.sweep` treats it as a dead host's orphan.  Live
#: writers replace their temp file within milliseconds, so anything
#: older by minutes is wreckage; anything younger could be a concurrent
#: host's in-flight write and must be left alone.
DEFAULT_TMP_GRACE_S = 120.0


def writer_tag() -> str:
    """This process's globally distinguishable cache-writer identity."""
    return f"{hostname()}-{os.getpid()}-{_WRITER_NONCE}"


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/cells``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "cells"


class ResultCache:
    """One JSON file per cell under ``root``, named by content key.

    ``validator``, when given, is applied to every parsed payload; an
    entry it rejects is quarantined (deleted and counted in
    ``corrupt_discarded``) exactly like unparseable JSON.
    """

    def __init__(self, root: str | Path | None = None,
                 validator: Callable[[dict], bool] | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.validator = validator
        #: Entries discarded because they could not be parsed or trusted.
        self.corrupt_discarded = 0
        #: Orphaned temp files from killed runs removed by :meth:`sweep`.
        self.stale_tmp_removed = 0
        #: Optional telemetry hook ``(event, key)`` with event one of
        #: ``"hit" | "miss" | "quarantine" | "put"``; the runner points
        #: it at its observer.  Must never raise into cache operations.
        self.on_event: Callable[[str, str], None] | None = None

    def _emit(self, event: str, key: str) -> None:
        if self.on_event is not None:
            self.on_event(event, key)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached payload, or ``None`` on miss *or* corruption."""
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("cache payload must be an object")
            if self.validator is not None and not self.validator(payload):
                raise ValueError("cache payload failed validation")
        except (ValueError, TypeError):
            self.quarantine(key)
            return None
        return payload

    def quarantine(self, key: str) -> None:
        """Discard an entry that parsed but cannot be trusted."""
        self.corrupt_discarded += 1
        self._emit("quarantine", key)
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    def put(self, key: str, payload: dict) -> None:
        """Crash-safely persist ``payload``.

        The temp file lives in the cache root (same filesystem, so the
        final ``os.replace`` is atomic) under a unique non-``.json``
        name, and is fsynced before the rename: a SIGKILL at any point
        leaves either the old entry, the new entry, or an orphaned temp
        file — never a torn ``*.json``.  The temp name embeds
        :func:`writer_tag` (hostname + pid + per-process nonce), so on
        a cache directory *shared between hosts* two writers racing on
        one key can never collide on the temp file either — last
        ``os.replace`` wins and both renames install an intact entry.
        An unwritable cache (root shadowed by a file, permissions, disk
        full) degrades to no memoisation — it must never abort the
        measurement run that produced the payload.
        """
        tmp: Path | None = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self.path_for(key)
            tmp = self.root / (f"{key}.{writer_tag()}."
                               f"{next(_TMP_COUNTER)}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                os.write(fd, json.dumps(payload,
                                        sort_keys=True).encode("utf-8"))
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def sweep(self, grace_s: float = DEFAULT_TMP_GRACE_S) -> int:
        """Remove orphaned ``*.tmp`` files left by *dead* writers.

        This process's own temp files (matched by :func:`writer_tag` in
        the name) are always wreckage — the writer either replaced or
        unlinked them inline — and are reaped immediately.  A *foreign*
        temp file could belong to a live writer on another host
        mid-``put``, so it is only reaped once its mtime is older than
        ``grace_s`` (writers replace within milliseconds; a dead host's
        orphan only ever ages).  ``grace_s=0`` restores the take-
        everything behaviour for single-host cleanup like
        :meth:`clear`.  Safe to call any time; returns how many were
        removed.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        own_marker = f".{writer_tag()}."
        now = time.time()
        for path in self.root.glob("*.tmp"):
            if own_marker not in path.name and grace_s > 0:
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age < grace_s:
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.stale_tmp_removed += removed
        return removed

    def clear(self) -> int:
        """Explicit invalidation: delete all entries, return the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        self.sweep(grace_s=0.0)
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
