"""Architecture selection (the paper's closing advice, Section 6).

"In general, it is important to select the optimal security architecture
given the energy and performance budget of the application."  The advisor
scores every architecture's feature row against a requirements profile
and explains each recommendation — including the honest caveat the paper
makes: no surveyed architecture stops power/EM analysis or fault
injection by itself; those need algorithmic countermeasures on top
(masking, hiding, redundant computation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.base import ArchFeatures
from repro.attacks.result import AttackCategory
from repro.common import PlatformClass
from repro.core.comparison import ARCH_HOSTS


@dataclass(frozen=True)
class Requirements:
    """What the application needs from its trust anchor."""

    platform: PlatformClass
    threats: frozenset[AttackCategory] = frozenset(
        {AttackCategory.REMOTE, AttackCategory.LOCAL})
    need_multiple_enclaves: bool = False
    need_attestation: bool = False
    need_peripheral_channel: bool = False
    need_realtime: bool = False
    allow_new_hardware: bool = True


@dataclass
class Advice:
    """One ranked recommendation."""

    architecture: str
    score: float
    satisfied: list[str] = field(default_factory=list)
    gaps: list[str] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        parts = [f"{self.architecture} (score {self.score:.2f})"]
        if self.gaps:
            parts.append("gaps: " + "; ".join(self.gaps))
        return " — ".join(parts)


_TCB_PREFERENCE = {
    # Smaller software TCB scores higher (the paper's recurring theme).
    "none": 1.0,
    "monitor": 0.7,
    "loader": 0.6,
    "world": 0.2,
    "os": 0.0,
}


def _tcb_score(software_tcb: str) -> float:
    text = software_tcb.lower()
    if "none" in text:
        return _TCB_PREFERENCE["none"]
    if "entire" in text or "os" in text.split():
        return _TCB_PREFERENCE["os"]
    if "world" in text:
        return _TCB_PREFERENCE["world"]
    if "monitor" in text:
        return _TCB_PREFERENCE["monitor"]
    if "loader" in text:
        return _TCB_PREFERENCE["loader"]
    return 0.4


def _score(features: ArchFeatures, reqs: Requirements) -> Advice | None:
    if features.target_platform is not reqs.platform:
        return None
    if not reqs.allow_new_hardware and features.requires_new_hardware:
        return None

    advice = Advice(architecture=features.name, score=0.0)
    total = 0.0
    weight = 0.0

    def criterion(name: str, satisfied: bool, w: float = 1.0) -> None:
        nonlocal total, weight
        weight += w
        if satisfied:
            total += w
            advice.satisfied.append(name)
        else:
            advice.gaps.append(name)

    if AttackCategory.REMOTE in reqs.threats:
        criterion("isolates code from remote compromise",
                  features.code_isolation, 2.0)
    if AttackCategory.LOCAL in reqs.threats:
        criterion("withstands a compromised kernel",
                  features.code_isolation, 2.0)
        criterion("blocks DMA attacks",
                  features.dma_protection != "none", 1.5)
    if AttackCategory.MICROARCHITECTURAL in reqs.threats:
        criterion("defends the shared cache side channel",
                  features.llc_partitioning or features.cache_exclusion,
                  2.0)
        criterion("flushes core-private state on switches",
                  features.flush_on_switch, 1.0)
    if AttackCategory.PHYSICAL in reqs.threats:
        criterion("hides bus contents from physical probes",
                  features.memory_encryption, 1.0)
        advice.caveats.append(
            "no surveyed architecture stops power/EM SCA or fault "
            "injection alone; pair with masking/hiding and redundant "
            "computation (Section 5)")

    if reqs.need_multiple_enclaves:
        criterion("supports multiple enclaves",
                  features.enclave_count.startswith("N"), 1.5)
    if reqs.need_attestation:
        criterion("provides attestation",
                  features.attestation not in ("none",), 1.5)
    if reqs.need_peripheral_channel:
        criterion("secure channels to peripherals",
                  features.peripheral_secure_channel, 1.0)
    if reqs.need_realtime:
        criterion("real-time capable", features.realtime_capable, 1.5)

    # Smaller software TCB as a tiebreaker.
    tcb = _tcb_score(features.software_tcb)
    total += tcb
    weight += 1.0

    advice.score = total / weight if weight else 0.0
    return advice


_FEATURE_CACHE: list[ArchFeatures] | None = None


def _all_features() -> list[ArchFeatures]:
    """Feature rows for every architecture (built once, on real SoCs)."""
    global _FEATURE_CACHE
    if _FEATURE_CACHE is None:
        _FEATURE_CACHE = [arch_cls(make_soc()).features()
                          for arch_cls, make_soc in ARCH_HOSTS]
    return _FEATURE_CACHE


def recommend_architecture(reqs: Requirements,
                           features: list[ArchFeatures] | None = None
                           ) -> list[Advice]:
    """Ranked recommendations for a requirements profile."""
    candidates = features if features is not None else _all_features()
    advice = [a for f in candidates if (a := _score(f, reqs)) is not None]
    advice.sort(key=lambda a: a.score, reverse=True)
    return advice
