"""Matrix sizing and row layout: a leaf module.

What the evaluation matrix, the runner and the service need to *name*
a cell — its knob sizing, the adversary categories in evaluation order
and the profile attribute holding each category's exposure prior —
without importing the suites that *run* one.  :mod:`repro.attacks.suites`
re-exports all three.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.attacks.result import AttackCategory


@dataclass(frozen=True)
class MatrixKnobs:
    """Attack sizing; quick mode keeps the matrix fast for tests.

    ``fr_samples`` is 12 even in quick mode: at 8, Flush+Reload's byte
    vote is marginal and roughly 2% of ``(seed, platform)`` pairs
    measured 0.5 instead of 1.0 — the grid must be seed-invariant.

    ``sweep_instances``/``sweep_iters`` size the workload cell's kernel
    calibration sweep (:mod:`repro.core.sweep`): N seed-varied instances
    running an ``iters``-iteration kernel.  Quick keeps them small so
    tier-1 tests that execute real cells stay fast; the default lane
    replays the instances' data in numpy lanes, and its summary is
    bit-identical on the scalar reference lane — the knobs size the
    measurement, the lane never changes it.
    """

    secret_len: int = 4
    traces: int = 300
    fr_samples: int = 12
    fr_values: int = 8
    rsa_bits: int = 64
    timing_samples: int = 600
    timing_bits: int = 8
    sweep_instances: int = 12
    sweep_iters: int = 48

    @classmethod
    def quick(cls) -> "MatrixKnobs":
        return cls()

    @classmethod
    def full(cls) -> "MatrixKnobs":
        return cls(secret_len=8, traces=1000, fr_samples=12, fr_values=8,
                   rsa_bits=96, timing_samples=1200, timing_bits=16,
                   sweep_instances=64, sweep_iters=160)

    def as_key(self) -> tuple[tuple[str, int], ...]:
        """Canonical, hashable, picklable form (cache-key material)."""
        return tuple(sorted((f.name, getattr(self, f.name))
                            for f in fields(self)))

    @classmethod
    def from_key(cls, key: tuple[tuple[str, int], ...]) -> "MatrixKnobs":
        return cls(**dict(key))


#: Adversary categories in Figure 1 row order: the order the matrix
#: evaluates its cells in and :data:`~repro.attacks.suites.SUITES` keys.
FIGURE1_CATEGORIES = (
    AttackCategory.REMOTE,
    AttackCategory.LOCAL,
    AttackCategory.MICROARCHITECTURAL,
    AttackCategory.PHYSICAL,
)

#: PlatformProfile attribute holding the category's exposure prior.
PRIOR_ATTRS = {
    AttackCategory.MICROARCHITECTURAL: "co_residency_prior",
    AttackCategory.PHYSICAL: "physical_access_prior",
}
