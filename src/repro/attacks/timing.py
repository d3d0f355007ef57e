"""Kocher-style timing attack on RSA (paper ref [23], refined per Dhem et al.).

The adversary measures total private-key operation times for chosen
ciphertexts and recovers the exponent MSB-first.  At each step the square
is unconditional, so the *multiply* is the tell: the attacker simulates
the multiply that a 1-bit would perform (it can — the per-operation
timing model :func:`repro.crypto.modexp.mult_time` is public, and it
knows the prefix recovered so far) and partitions the measured times by
whether that simulated multiply suffers an extra reduction.  If the bit
really is 1 the partition splits the measurements by a real time
component and the difference of means approaches the extra-reduction
cost; if the bit is 0 the multiply never happened and the difference
stays near zero.

Against the Montgomery ladder every operation is charged worst-case
constant time, the partition difference carries no signal, and recovered
bits collapse to chance.

``run()`` goes through the bit-identical batched kernel of
:mod:`repro.attacks.batch` by default (constant-time victims fall back
to the scalar loop); ``batch=False`` forces the scalar reference oracle.
"""

from __future__ import annotations

from repro.attacks.base import AttackCategory, AttackResult
from repro.crypto.modexp import (
    BASE_MULT_COST,
    EXTRA_REDUCTION_COST,
    mult_time,
)
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA


class KocherTimingAttack:
    """Recover private-exponent bits from decryption timings."""

    NAME = "kocher-rsa-timing"

    def __init__(self, victim: RSA, samples: int = 1000,
                 max_bits: int = 16, noise_std: float = 0.0,
                 rng: XorShiftRNG | None = None,
                 batch: bool = True) -> None:
        self.victim = victim
        self.samples = samples
        self.max_bits = max_bits
        self.noise_std = noise_std
        self.rng = rng or XorShiftRNG(0x70C4)
        self.batch = bool(batch)

    def run(self) -> AttackResult:
        if self.batch:
            from repro.attacks.batch import try_run_batched
            result = try_run_batched(self)
            if result is not None:
                return result
        return self._run_scalar()

    def _run_scalar(self) -> AttackResult:
        n = self.victim.key.n
        d = self.victim.key.d  # ground truth, used ONLY for grading
        bits_total = d.bit_length()

        ciphertexts = [self.rng.next_below(n - 2) + 1
                       for _ in range(self.samples)]
        measured = [self.victim.decrypt_timed(
            c, noise_rng=self.rng, noise_std=self.noise_std).time
            for c in ciphertexts]

        # Per-sample simulated state after the exponent's leading 1-bit:
        # (accumulator, simulated prefix time).
        states: list[tuple[int, float]] = []
        for c in ciphertexts:
            acc = 1 % n
            t = mult_time(acc, acc, n)
            acc = (acc * acc) % n
            t += mult_time(acc, c, n)
            acc = (acc * c) % n
            states.append((acc, t))

        attack_bits = min(self.max_bits, bits_total - 1)
        recovered_bits, _margins = self._recover_path(
            states, ciphertexts, measured, n, attack_bits)
        # Single-error backtracking: after a wrong commitment the
        # simulated trajectory decorrelates and every later decision's
        # margin collapses toward zero.  Detect the collapse point, flip
        # that bit, and keep the path whose downstream margins are wider —
        # exactly the error-correction step Kocher describes.
        recovered_bits = self._backtrack(recovered_bits, _margins, states,
                                         ciphertexts, measured, n,
                                         attack_bits)

        truth = [(d >> (bits_total - 2 - i)) & 1
                 for i in range(attack_bits)]
        correct = sum(1 for a, b in zip(recovered_bits, truth) if a == b)
        score = correct / attack_bits if attack_bits else 0.0
        return AttackResult(
            name=self.NAME, category=AttackCategory.PHYSICAL,
            success=score >= 0.9, score=score,
            leaked=recovered_bits if score >= 0.9 else None,
            details={"bits_attacked": attack_bits, "correct": correct,
                     "constant_time_victim": self.victim.constant_time,
                     "samples": self.samples})

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _partition_diff(residuals: list[float],
                        flags: list[bool]) -> float:
        ones = [r for r, f in zip(residuals, flags) if f]
        zeros = [r for r, f in zip(residuals, flags) if not f]
        if not ones or not zeros:
            return 0.0
        return sum(ones) / len(ones) - sum(zeros) / len(zeros)

    def _recover_path(self, states, ciphertexts, measured, n, attack_bits,
                      forced: dict[int, int] | None = None
                      ) -> tuple[list[int], list[float]]:
        """One MSB-first pass; ``forced`` pins decisions at given steps.

        The per-bit statistic is symmetric lookahead: simulate *both*
        hypotheses one step further and partition the measured residuals
        by the extra-reduction flag of each hypothesis's **next square**.
        Only the correct hypothesis's flag is a real component of the
        victim's time, so its partition difference approaches the
        extra-reduction cost while the wrong one's hovers near zero.
        The margin ``|diff1 - diff0|`` therefore collapses only when the
        *prefix* is wrong — which is what backtracking detects.
        """
        states = list(states)
        bits: list[int] = []
        margins: list[float] = []
        for step in range(attack_bits):
            next0: list[tuple[int, float]] = []
            next1: list[tuple[int, float]] = []
            res0: list[float] = []
            res1: list[float] = []
            flag0: list[bool] = []
            flag1: list[bool] = []
            flag_mult: list[bool] = []
            for (acc, t), c, total in zip(states, ciphertexts, measured):
                sq_t = mult_time(acc, acc, n)
                a0 = (acc * acc) % n
                t0 = t + sq_t
                mul_t = mult_time(a0, c, n)
                a1 = (a0 * c) % n
                t1 = t0 + mul_t
                next0.append((a0, t0))
                next1.append((a1, t1))
                res0.append(total - t0)
                res1.append(total - t1)
                flag0.append(mult_time(a0, a0, n) > BASE_MULT_COST)
                flag1.append(mult_time(a1, a1, n) > BASE_MULT_COST)
                flag_mult.append(mul_t > BASE_MULT_COST)
            diff0 = self._partition_diff(res0, flag0)
            diff1 = self._partition_diff(res1, flag1)
            # The hypothetical multiply itself is a second, independent
            # witness for bit=1; averaging the two one-bit statistics
            # improves the per-decision SNR by ~sqrt(2).
            diff_mult = self._partition_diff(res0, flag_mult)
            score1 = (diff1 + diff_mult) / 2
            if forced is not None and step in forced:
                bit = forced[step]
            else:
                bit = 1 if score1 > diff0 else 0
            bits.append(bit)
            margins.append(abs(score1 - diff0))
            states = next1 if bit else next0
        return bits, margins

    def _backtrack(self, bits, margins, states, ciphertexts, measured, n,
                   attack_bits, rounds: int = 3) -> list[int]:
        """Flip weak decisions while the tail signal looks decorrelated.

        After a wrong commitment the lookahead statistic loses its anchor
        and downstream margins collapse; flipping the weakest decision and
        re-running restores them if the flip was the error.  Up to
        ``rounds`` corrections (Kocher's error-correction property: wrong
        guesses are detectable because the signal disappears).
        """
        tried: set[int] = set()
        for _ in range(rounds):
            if len(margins) < 3:
                return bits
            tail_mean = sum(margins[-3:]) / 3
            if tail_mean > EXTRA_REDUCTION_COST / 6:
                return bits  # healthy signal all the way: keep the path
            candidates = [i for i in range(len(margins)) if i not in tried]
            if not candidates:
                return bits
            weakest = min(candidates, key=lambda i: margins[i])
            tried.add(weakest)
            forced = {i: bits[i] for i in range(weakest)}
            forced[weakest] = 1 - bits[weakest]
            alt_bits, alt_margins = self._recover_path(
                states, ciphertexts, measured, n, attack_bits,
                forced=forced)
            after = slice(weakest + 1, None)
            if sum(alt_margins[after]) > sum(margins[after]):
                bits, margins = alt_bits, alt_margins
        return bits
