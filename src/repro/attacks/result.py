"""Attack taxonomy and result types: a leaf module.

:class:`AttackCategory` and :class:`AttackResult` are all that the
matrix, the figure, the serialiser and the service need from the attack
layer, so they live here with no ``repro`` imports.  Importing them
loads no attack code and no numpy; :mod:`repro.attacks.base` re-exports
both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class AttackCategory(enum.Enum):
    """The paper's adversary taxonomy (Section 2, after ref [1])."""

    REMOTE = "remote"
    LOCAL = "local"
    MICROARCHITECTURAL = "microarchitectural"
    PHYSICAL = "classical-physical"


@dataclass
class AttackResult:
    """Outcome of one attack run.

    ``score`` is attack-specific but normalised to [0, 1]: fraction of key
    material recovered, probability of detection, etc.  ``success`` is the
    binary verdict at the attack's own threshold.
    """

    name: str
    category: AttackCategory
    success: bool
    score: float
    leaked: object = None
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")

    def __str__(self) -> str:
        verdict = "SUCCESS" if self.success else "defended"
        return f"{self.name}: {verdict} (score={self.score:.2f})"
