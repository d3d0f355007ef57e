"""Lockstep differential harness: batched acquisition vs scalar reference.

The contract of :class:`~repro.power.batch.BatchPowerInstrument` is
**bit-identity**, the same bar the CPU fast path is held to in
:mod:`repro.cpu.diff`: for any capture configuration, the batched and
scalar paths must produce

* the same sample matrix, compared *bitwise* (dtype, shape and bytes,
  not ``allclose`` — a single differing mantissa or sign bit fails);
* the same plaintext/ciphertext metadata;
* the same end state on every RNG stream involved (instrument, model
  noise, cipher masks) — the batched path must *consume* randomness
  exactly like the scalar loop, not merely produce matching output;
* the same recovered keys under DPA/CPA (implied by the above, asserted
  anyway as the end-to-end observable).

:func:`batched_capture` and :func:`scalar_capture` build each side
from one immutable :class:`SCAConfig` with independent,
identically-seeded RNGs; ``repro.lockstep.run_pair(config,
batched_capture, scalar_capture)`` raises a
:class:`~repro.lockstep.Divergence` naming the first mismatching field.
``tests/test_power_differential.py`` drives this with hypothesis across
masked/shuffled/noisy configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.aes import AES128, MaskedAES
from repro.crypto.rng import XorShiftRNG
from repro.lockstep import Divergence
from repro.power.batch import BatchPowerInstrument, batch_cipher_for
from repro.power.instrument import PowerInstrument
from repro.power.leakage import HammingWeightModel
from repro.power.trace import TraceSet


@dataclass(frozen=True)
class SCAConfig:
    """One acquisition configuration, replayable on either path."""

    key: bytes
    num_traces: int = 32
    masked: bool = False
    shuffle: bool = False
    noise_std: float = 1.0
    rounds_of_interest: tuple[int, ...] = (1,)
    seed: int = 0xD1FF
    mask_seed: int = 0x11
    noise_seed: int = 0x3

    def _streams(self) -> tuple[XorShiftRNG, XorShiftRNG, XorShiftRNG]:
        return (XorShiftRNG(self.seed), XorShiftRNG(self.noise_seed),
                XorShiftRNG(self.mask_seed))

    def _factory(self, mask_rng: XorShiftRNG):
        if self.masked:
            return lambda leak: MaskedAES(self.key, mask_rng,
                                          leak_hook=leak)
        return lambda leak: AES128(self.key, leak_hook=leak)


def trace_observables(traces: TraceSet) -> dict:
    """What a capture exposes: geometry, the sample matrix (compared
    bitwise by :func:`~repro.lockstep.compare`), and the metadata."""
    return {
        "len": len(traces), "num_samples": traces.num_samples,
        "samples": traces.samples,
        "plaintexts": tuple(traces.plaintexts),
        "ciphertexts": tuple(traces.ciphertexts),
        "plaintext_bytes": [traces.plaintext_bytes(i).tolist()
                            for i in range(16)],
        "ciphertext_bytes": [traces.ciphertext_bytes(i).tolist()
                             for i in range(16)]}


@dataclass(frozen=True)
class CaptureOutcome:
    """One path's capture plus the end states of its RNG streams."""

    traces: TraceSet = field(compare=False, repr=False)
    capture: dict  # trace_observables(traces)
    rng_state: int
    noise_rng_state: int
    mask_rng_state: int


def _run(config: SCAConfig, batched: bool) -> CaptureOutcome:
    rng, noise_rng, mask_rng = config._streams()
    model = HammingWeightModel(noise_std=config.noise_std, rng=noise_rng)
    factory = config._factory(mask_rng)
    plaintexts = [rng.bytes(16) for _ in range(config.num_traces)]
    if batched:
        batch_cipher = batch_cipher_for(factory)
        if batch_cipher is None:
            raise Divergence("configuration has no batched twin")
        instrument = BatchPowerInstrument(
            model, config.rounds_of_interest, shuffle=config.shuffle,
            rng=rng)
        if not instrument.can_capture(batch_cipher):
            raise Divergence("batched capture rejected the config")
        traces = instrument.capture(batch_cipher, plaintexts)
    else:
        instrument = PowerInstrument(
            model, config.rounds_of_interest, shuffle=config.shuffle,
            rng=rng)
        traces = instrument.capture(factory, plaintexts)
    return CaptureOutcome(traces, trace_observables(traces), rng._state,
                          noise_rng._state, mask_rng._state)


def scalar_capture(config: SCAConfig) -> CaptureOutcome:
    """Run the configuration on the retained scalar reference."""
    return _run(config, batched=False)


def batched_capture(config: SCAConfig) -> CaptureOutcome:
    """Run the configuration on the vectorized instrument."""
    return _run(config, batched=True)
