"""The lockstep core every fast-lane-vs-oracle harness is built on.

Each fast lane — the predecoded CPU dispatch, the kernel sweep's lane
replay, the batched attack kernels, the batched power capture, the
memoized explorer and SGX's page mover — must be bit-identical to a
retained reference.  The four harnesses (:mod:`repro.cpu.diff`,
:mod:`repro.attacks.batch_diff`, :mod:`repro.power.diff` and
:mod:`repro.spec.explore_diff`), the replay's differential tests and the
enclave-load harness (``tests/test_enclave_load.py``: EADD, EINIT, EWB
and ELDU against their per-word loops) share this module: one
:class:`Divergence`, one comparator that names the path of the first
mismatch, and one :func:`run_pair`.  Only tests import the harnesses.

:func:`compare` walks dataclasses (fields with ``compare=False`` are
skipped, so an outcome record may carry the raw object it was taken
from) and dicts key by key.  numpy arrays are compared by dtype, shape
and bytes, so ``-0.0`` differs from ``0.0``.  Lists and tuples are
compared with ``==`` and walked only to name a mismatch; an array
therefore belongs in a dict value or a dataclass field, where it is
always compared bitwise.
"""

from __future__ import annotations

import reprlib
from dataclasses import fields, is_dataclass
from typing import Any, Callable

import numpy as np


class Divergence(AssertionError):
    """A fast lane and its reference disagreed on an observable."""


class _Missing:
    """Stands in for a dict key present on one side only."""

    def __repr__(self) -> str:
        return "<missing>"


_MISSING = _Missing()
_SCALARS = frozenset({int, float, bool, str, bytes, type(None)})

#: Failure messages print leaves, not whole snapshots; cap what they show.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 3
_SHORT.maxstring = _SHORT.maxother = 240
_SHORT.maxlist = _SHORT.maxtuple = _SHORT.maxdict = 16


def _key_path(key) -> str:
    return f".{key}" if isinstance(key, str) else f"[{key!r}]"


def _mismatch(fast, ref) -> tuple[str, Any, Any] | None:
    """``(path, fast leaf, ref leaf)`` of the first mismatch, or None."""
    if type(fast) in _SCALARS and type(ref) in _SCALARS:
        return None if fast == ref else ("", fast, ref)
    if isinstance(fast, dict) and isinstance(ref, dict):
        keys = [*fast, *(key for key in ref if key not in fast)]
        pairs = ((key, fast.get(key, _MISSING), ref.get(key, _MISSING))
                 for key in keys)
        path = _key_path
    elif isinstance(fast, (list, tuple)) and type(fast) is type(ref):
        try:
            if fast == ref:
                return None
        except ValueError:  # an array inside: walk to compare it bitwise
            pass
        if len(fast) != len(ref):
            return "", fast, ref
        pairs = ((i, a, b) for i, (a, b) in enumerate(zip(fast, ref)))
        path = "[{}]".format
    elif isinstance(fast, np.ndarray) or isinstance(ref, np.ndarray):
        if not (isinstance(fast, np.ndarray) and isinstance(ref, np.ndarray)
                and fast.dtype == ref.dtype and fast.shape == ref.shape):
            return "", fast, ref
        fast_bytes, ref_bytes = fast.tobytes(), ref.tobytes()
        if fast_bytes == ref_bytes:
            return None
        rows = [np.frombuffer(raw, np.uint8).reshape(fast.size, -1)
                for raw in (fast_bytes, ref_bytes)]
        first = int(np.flatnonzero((rows[0] != rows[1]).any(axis=1))[0])
        index = np.unravel_index(first, fast.shape)
        return f"{list(map(int, index))}", fast[index], ref[index]
    elif is_dataclass(fast) and not isinstance(fast, type) \
            and type(fast) is type(ref):
        pairs = ((f.name, getattr(fast, f.name), getattr(ref, f.name))
                 for f in fields(fast) if f.compare)
        path = ".{}".format
    else:
        return None if fast == ref else ("", fast, ref)
    for key, a, b in pairs:
        hit = _mismatch(a, b)
        if hit is not None:
            return path(key) + hit[0], hit[1], hit[2]
    return None


def compare(field: str, fast, ref) -> None:
    """Raise :class:`Divergence` naming the first path where ``fast``
    and ``ref`` differ (e.g. ``soc.llc.lru[3]``)."""
    hit = _mismatch(fast, ref)
    if hit is not None:
        path, a, b = hit
        name = f"{field}{path}".lstrip(".") or "outcome"
        raise Divergence(f"{name} diverged\n  fast: {_SHORT.repr(a)}\n"
                         f"  ref:  {_SHORT.repr(b)}")


def run_pair(scenario, fast: Callable[[Any], Any],
             reference: Callable[[Any], Any]) -> tuple[Any, Any]:
    """Run ``scenario`` on both lanes and :func:`compare` the outcomes;
    return ``(fast outcome, reference outcome)``."""
    fast_outcome = fast(scenario)
    ref_outcome = reference(scenario)
    compare("", fast_outcome, ref_outcome)
    return fast_outcome, ref_outcome
