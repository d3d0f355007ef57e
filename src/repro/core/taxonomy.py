"""Adversary taxonomy and importance grading (Section 2).

The paper adopts the classification of C-FLAT [1]: remote, local and
physical adversaries, with the physical class split into
microarchitectural side-channel analysis and classical physical attacks.
:class:`Importance` is the three-level shading of Figure 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.attacks.result import AttackCategory


class Importance(enum.IntEnum):
    """Figure 1's colour depth: the darker, the higher."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def shade(self) -> str:
        """ASCII rendering used by the table printers."""
        return {Importance.LOW: "░░░",
                Importance.MEDIUM: "▒▒▒",
                Importance.HIGH: "███"}[self]

    def __str__(self) -> str:
        return self.name.lower()


#: Thresholds mapping a [0, 1] aggregated score onto shading levels.
HIGH_THRESHOLD = 0.85
MEDIUM_THRESHOLD = 0.40


def importance_from_score(score: float) -> Importance:
    """Grade an aggregated attack/requirement score."""
    if score >= HIGH_THRESHOLD:
        return Importance.HIGH
    if score >= MEDIUM_THRESHOLD:
        return Importance.MEDIUM
    return Importance.LOW


@dataclass(frozen=True)
class AdversaryModel:
    """One row of Figure 1's adversary block."""

    category: AttackCategory
    description: str
    capabilities: tuple[str, ...]


ADVERSARY_MODELS = (
    AdversaryModel(
        AttackCategory.REMOTE,
        "remote adversary, capable of inserting malicious software",
        ("exploit memory-safety bugs", "deploy malicious apps",
         "drive victim services with chosen inputs")),
    AdversaryModel(
        AttackCategory.LOCAL,
        "local adversary, additionally controlling and eavesdropping on "
        "the communication",
        ("compromise the OS kernel", "attach malicious DMA peripherals",
         "man-in-the-middle device communication")),
    AdversaryModel(
        AttackCategory.MICROARCHITECTURAL,
        "software-only physical adversary exploiting microarchitectural "
        "side channels",
        ("co-reside on shared caches/TLBs/BTBs", "mistrain predictors",
         "exploit transient execution")),
    AdversaryModel(
        AttackCategory.PHYSICAL,
        "physical adversary with (non-)intrusive device access",
        ("measure power/EM side channels", "inject clock/voltage faults",
         "probe buses")),
)


def adversary_for(category: AttackCategory) -> AdversaryModel:
    """The taxonomy entry for one attack category."""
    for model in ADVERSARY_MODELS:
        if model.category is category:
            return model
    raise KeyError(category)
