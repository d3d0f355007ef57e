"""Trace acquisition: run a cipher under a leakage model, record traces.

Also implements the *hiding* countermeasure in its two classic forms
(paper Section 5): temporal shuffling of the S-box processing order, and
amplitude noise (a larger ``noise_std`` on the model).  Shuffling
misaligns the sample a given byte leaks into, which is what degrades
DPA — the attacker's samples no longer line up across traces.

:class:`PowerInstrument` is the *scalar reference*: deliberately boring,
never optimised, and the oracle the vectorized
:class:`~repro.power.batch.BatchPowerInstrument` is differentially
verified against (:mod:`repro.power.diff`).
"""

from __future__ import annotations

import struct
from typing import Callable

import repro.obs as obs
from repro.crypto.rng import XorShiftRNG
from repro.power.trace import TraceSet

#: Builds a cipher instance given a leak hook; lets the instrument stay
#: agnostic of which AES variant (or other primitive) is being measured.
CipherFactory = Callable[[Callable[[int, int, int], None]], object]


class PowerInstrument:
    """Simulated oscilloscope over one cipher execution point.

    Records one sample per state byte for each round in
    ``rounds_of_interest`` (default: first and last round — where the
    classic first-round DPA and last-round DFA-support analyses look).
    """

    def __init__(self, leakage_model, rounds_of_interest: tuple[int, ...] = (1,),
                 shuffle: bool = False,
                 rng: XorShiftRNG | None = None) -> None:
        self.model = leakage_model
        self.rounds = tuple(rounds_of_interest)
        self.shuffle = shuffle
        self.rng = rng or XorShiftRNG(0x5CA1E)
        self.samples_per_trace = 16 * len(self.rounds)

    def capture(self, cipher_factory: CipherFactory, plaintexts: list[bytes],
                ) -> TraceSet:
        """Encrypt each plaintext, recording one aligned trace per block."""
        with obs.span("trace-acquisition", cat="power",
                      traces=len(plaintexts),
                      samples_per_trace=self.samples_per_trace,
                      shuffle=self.shuffle):
            return self._capture(cipher_factory, plaintexts)

    def _capture(self, cipher_factory: CipherFactory,
                 plaintexts: list[bytes]) -> TraceSet:
        traces = TraceSet(self.samples_per_trace)
        round_offset = {rnd: 16 * i for i, rnd in enumerate(self.rounds)}
        for plaintext in plaintexts:
            trace = [0.0] * self.samples_per_trace
            permutation = list(range(16))
            if self.shuffle:
                self.rng.shuffle(permutation)

            def leak_hook(rnd: int, byte_index: int, value: int) -> None:
                offset = round_offset.get(rnd)
                if offset is None:
                    return
                slot = permutation[byte_index] if self.shuffle else byte_index
                trace[offset + slot] += self.model.leak(value)

            cipher = cipher_factory(leak_hook)
            ciphertext = cipher.encrypt_block(plaintext)
            traces.add(trace, plaintext, ciphertext)
        return traces


def capture_aes_traces(cipher_factory: CipherFactory, num_traces: int,
                       leakage_model, rng: XorShiftRNG | None = None,
                       rounds_of_interest: tuple[int, ...] = (1,),
                       shuffle: bool = False,
                       batch: bool = True) -> TraceSet:
    """Convenience acquisition with random plaintexts.

    With ``batch=True`` (the default) the capture runs through the
    vectorized :class:`~repro.power.batch.BatchPowerInstrument` whenever
    the cipher/model pair has a batched twin — the output is
    *bit-identical* to the scalar path (same RNG streams, same TraceSet
    matrix and metadata; see :mod:`repro.power.diff`).  Configurations
    without a batched twin (T-table ciphers, armed fault hooks, custom
    models, aliased RNG streams) silently use the scalar reference.
    """
    rng = rng or XorShiftRNG(0xACE)
    # One block of draws: ``rng.bytes(16)`` is two little-endian
    # ``next_u64`` values, so each 16-byte slice is one such call.
    stream = struct.pack(f"<{2 * num_traces}Q",
                         *rng.u64_block(2 * num_traces))
    plaintexts = [stream[i:i + 16] for i in range(0, len(stream), 16)]
    if batch:
        from repro.power.batch import BatchPowerInstrument, batch_cipher_for
        batch_cipher = batch_cipher_for(cipher_factory)
        if batch_cipher is not None:
            instrument = BatchPowerInstrument(
                leakage_model, rounds_of_interest, shuffle=shuffle, rng=rng)
            if instrument.can_capture(batch_cipher):
                return instrument.capture(batch_cipher, plaintexts)
    instrument = PowerInstrument(leakage_model, rounds_of_interest,
                                 shuffle=shuffle, rng=rng)
    return instrument.capture(cipher_factory, plaintexts)
