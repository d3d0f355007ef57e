"""Modular exponentiation with a data-dependent timing model.

Kocher's timing attack (paper ref [23]) needs an implementation whose
per-operation time depends on operand values — on real hardware the extra
reduction step of Montgomery multiplication.  :func:`mult_time` models
that: a modular multiply costs a base unit plus one *extra-reduction* unit
whenever the reduced product lands in the upper half of the modulus range.
The function is pure and public, because the attack's whole premise is
that the adversary can *simulate* the victim's per-step timing for a key
hypothesis and correlate it with measurements.

Two exponentiation strategies:

* :func:`modexp_square_multiply` — MSB-first square-and-multiply; the
  multiply only happens for 1-bits and its duration is data-dependent.
  Timing-leaky.
* :func:`modexp_ladder` — Montgomery ladder; every bit performs the same
  two operations regardless of its value.  The timing countermeasure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import XorShiftRNG

BASE_MULT_COST = 2.0
EXTRA_REDUCTION_COST = 1.0


def mult_time(x: int, y: int, mod: int) -> float:
    """Simulated duration of one modular multiplication.

    Deterministic in the operands (attacker-simulatable), data-dependent
    (leaky): the "extra reduction" fires when the reduced product exceeds
    half the modulus.
    """
    product = (x * y) % mod
    extra = EXTRA_REDUCTION_COST if product >= (mod >> 1) else 0.0
    return BASE_MULT_COST + extra


@dataclass
class ModExpResult:
    """Value plus the timing trace the physical adversary measures."""

    value: int
    time: float
    op_times: list[float] = field(default_factory=list)


def modexp_square_multiply(base: int, exponent: int, mod: int,
                           noise_rng: XorShiftRNG | None = None,
                           noise_std: float = 0.0) -> ModExpResult:
    """MSB-first square-and-multiply (timing-leaky).

    ``noise_rng``/``noise_std`` add Gaussian measurement noise to the total
    time, modelling jitter between the victim and the adversary's clock.
    """
    if mod <= 1:
        raise ValueError("modulus must be > 1")
    result = 1 % mod
    total = 0.0
    op_times: list[float] = []
    for i in range(exponent.bit_length() - 1, -1, -1):
        square_t = mult_time(result, result, mod)
        result = (result * result) % mod
        total += square_t
        op_times.append(square_t)
        if (exponent >> i) & 1:
            mult_t = mult_time(result, base, mod)
            result = (result * base) % mod
            total += mult_t
            op_times.append(mult_t)
    if noise_rng is not None and noise_std > 0:
        total += abs(noise_rng.gauss(0.0, noise_std))
    return ModExpResult(result, total, op_times)


def modexp_ladder(base: int, exponent: int, mod: int,
                  noise_rng: XorShiftRNG | None = None,
                  noise_std: float = 0.0) -> ModExpResult:
    """Montgomery ladder: one square and one multiply per bit, always.

    Total operation *count* is bit-independent; residual leakage through
    operand-dependent :func:`mult_time` is charged at a constant, making
    the per-bit signal Kocher's attack needs vanish.  The ladder runs
    over at least the modulus width, so an exponent's length does not
    show in the time either: leading zero bits keep ``r0 = 1`` and
    ``r1 = base``.
    """
    if mod <= 1:
        raise ValueError("modulus must be > 1")
    r0, r1 = 1 % mod, base % mod
    total = 0.0
    op_times: list[float] = []
    width = max(exponent.bit_length(), mod.bit_length())
    for i in range(width - 1, -1, -1):
        bit = (exponent >> i) & 1
        if bit:
            r0 = (r0 * r1) % mod
            r1 = (r1 * r1) % mod
        else:
            r1 = (r0 * r1) % mod
            r0 = (r0 * r0) % mod
        # Constant-time hardware: both ops charged at worst-case cost.
        step = 2 * (BASE_MULT_COST + EXTRA_REDUCTION_COST)
        total += step
        op_times.append(step)
    if noise_rng is not None and noise_std > 0:
        total += abs(noise_rng.gauss(0.0, noise_std))
    return ModExpResult(r0, total, op_times)
