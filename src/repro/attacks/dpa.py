"""Differential and correlation power analysis (paper refs [25, 30]).

Operates on :class:`~repro.power.trace.TraceSet` acquisitions of the
first AES round:

* :func:`dpa_attack` — Kocher/Jaffe/Jun difference of means: partition
  traces by one predicted S-box output bit; the correct key byte produces
  a differential spike.
* :func:`cpa_attack` — Pearson correlation between measured samples and
  the Hamming weight of the predicted S-box output.

Both scan *all* samples and keep the maximum statistic, so they need no
alignment knowledge — which is exactly why the *shuffling* hiding
countermeasure (misaligned samples) degrades them gracefully rather than
being sidestepped, and why masking (statistically independent
intermediates) defeats them outright at first order.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.common import accepts_keyword
from repro.crypto.aes import SBOX
from repro.power.trace import TraceSet

_SBOX = np.array(SBOX, dtype=np.int64)
_HW = np.array([bin(x).count("1") for x in range(256)], dtype=np.float64)
#: Candidates scored per pass of :meth:`_CPA.peaks`.
_CHUNK = 64


@functools.cache
def _hypotheses() -> np.ndarray:
    """``[k, p]`` is the CPA hypothesis ``HW(SBOX[p ^ k])`` for key
    candidate ``k`` and plaintext byte ``p`` (built on first use, so
    importing this module stays cheap)."""
    return _HW[_SBOX[np.arange(256) ^ np.arange(256)[:, None]]]


def dpa_attack(traces: TraceSet, byte_index: int,
               target_bit: int = 0) -> tuple[int, np.ndarray]:
    """Difference-of-means DPA for one key byte.

    Returns (best key byte, per-candidate peak differential).
    """
    samples = traces.samples
    pt = traces.plaintext_bytes(byte_index)
    peaks = np.zeros(256)
    for candidate in range(256):
        predicted = (_SBOX[pt ^ candidate] >> target_bit) & 1
        ones = predicted == 1
        if not ones.any() or ones.all():
            continue  # degenerate partition: no differential defined
        diff = samples[ones].mean(axis=0) - samples[~ones].mean(axis=0)
        peaks[candidate] = np.abs(diff).max()
    return int(peaks.argmax()), peaks


class _CPA:
    """Correlation scoring of one trace set, key byte by key byte.

    The sample centering and norms are the same for every key byte, so
    they are computed once.  Candidates are scored ``_CHUNK`` at a time
    in reused buffers small enough to stay in cache.
    """

    def __init__(self, traces: TraceSet) -> None:
        samples = traces.samples
        self.traces = traces
        self.centered = samples - samples.mean(axis=0)
        self.sample_norms = np.sqrt((self.centered ** 2).sum(axis=0))
        self.sample_norms[self.sample_norms == 0] = 1.0
        self._table = _hypotheses()
        self._hyp = np.empty((_CHUNK, len(samples)))
        self._squares = np.empty_like(self._hyp)

    def peaks(self, byte_index: int) -> np.ndarray:
        """Peak |correlation| of each of the 256 candidates.

        Row ``k`` of the hypothesis matrix is the predicted Hamming
        weight under candidate ``k``; one ``take`` gathers a chunk of
        rows, C-ordered so each row's mean and norm reduce exactly as a
        1-D array would.  The dot products go through a stacked
        ``matmul`` of (rows, 1, n), which runs one gemv per candidate —
        the kernel of a 1-D ``hyp @ centered``, so the same floats; a
        2-D product would take gemm and round differently.  A candidate
        whose hypothesis is constant (zero norm) has no correlation; its
        peak is 0.
        """
        pt = self.traces.plaintext_bytes(byte_index)
        hyp = self._hyp
        peaks = np.empty(256)
        for first in range(0, 256, _CHUNK):
            np.take(self._table[first:first + _CHUNK], pt, axis=1, out=hyp,
                    mode="clip")
            hyp -= hyp.mean(axis=1, keepdims=True)
            norms = np.sqrt(np.square(hyp, out=self._squares).sum(axis=1))
            degenerate = norms == 0
            norms[degenerate] = 1.0
            dots = np.matmul(hyp[:, None, :], self.centered)[:, 0, :]
            chunk = np.abs(dots / (norms[:, None] * self.sample_norms))
            chunk = chunk.max(axis=1)
            chunk[degenerate] = 0.0
            peaks[first:first + _CHUNK] = chunk
        return peaks


def cpa_attack(traces: TraceSet,
               byte_index: int) -> tuple[int, np.ndarray]:
    """Correlation power analysis for one key byte.

    Returns (best key byte, per-candidate peak |correlation|).
    """
    peaks = _CPA(traces).peaks(byte_index)
    return int(peaks.argmax()), peaks


def dpa_recover_key(traces: TraceSet) -> bytes:
    """DPA over all 16 key bytes."""
    return bytes(dpa_attack(traces, b)[0] for b in range(16))


def cpa_recover_key(traces: TraceSet) -> bytes:
    """CPA over all 16 key bytes."""
    cpa = _CPA(traces)
    return bytes(int(cpa.peaks(b).argmax()) for b in range(16))


def key_recovery_rate(recovered: bytes, true_key: bytes) -> float:
    """Fraction of correct key bytes."""
    return sum(1 for a, b in zip(recovered, true_key) if a == b) / 16


def traces_to_success(acquire, analyse, true_key: bytes,
                      trace_counts: list[int],
                      threshold: float = 1.0,
                      batch: bool = True) -> dict[int, float]:
    """Recovery rate as a function of trace count (the classic SCA curve).

    ``acquire(n)`` returns a TraceSet of ``n`` traces; ``analyse`` is one
    of the ``*_recover_key`` functions.  Acquires once at the maximum and
    re-analyses prefixes, as real evaluations do — ``subset`` hands back
    O(1) read-only views, so the sweep never copies the sample matrix.

    When ``acquire`` accepts a ``batch`` keyword it is forwarded
    (defaulting to the vectorized, bit-identical acquisition path); an
    acquire callable without the knob is invoked unchanged.  Acceptance
    is resolved with :func:`repro.common.accepts_keyword`, which sees
    through ``functools.partial`` chains, ``__wrapped__`` decorators and
    ``**kwargs`` forwarders — a bare ``inspect.signature(...).parameters``
    check silently dropped those wrappers back onto the scalar path.
    """
    if accepts_keyword(acquire, "batch"):
        full = acquire(max(trace_counts), batch=batch)
    else:
        full = acquire(max(trace_counts))
    rates: dict[int, float] = {}
    for count in sorted(trace_counts):
        rates[count] = key_recovery_rate(analyse(full.subset(count)),
                                         true_key)
    return rates
