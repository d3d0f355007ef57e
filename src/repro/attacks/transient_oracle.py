"""Scripted transient-attack oracle: the TAB-S42 design-point sweep.

The six microarchitectural design points the paper's transient table
sweeps — and the scripted Spectre/Meltdown/Foreshadow attacks run on
each — live here so two consumers can share them verbatim:

* :func:`repro.core.comparison.transient_applicability_table` renders
  the scores into TAB-S42 (byte-identical to its historical output);
* the Spectre scanner (:mod:`repro.spec.scanner`) builds its knob-grid
  columns from the same design points, and the differential suite
  asserts the scanner's derived verdicts never contradict these
  scripted oracles on overlapping configs.
"""

from __future__ import annotations

from repro.common import PlatformClass
from repro.cpu.predictor import PredictorConfig
from repro.cpu.soc import SoC, SoCConfig
from repro.cpu.speculative import SpeculativeConfig
from repro.crypto.rng import XorShiftRNG
from repro.runner import derive_seed

#: (label, SpeculativeConfig kwargs) per design point, in TAB-S42 row
#: order.  Labels are load-bearing: they seed the per-cell RNG streams,
#: so renaming one changes measured scores.
TRANSIENT_DESIGN_POINTS: tuple[tuple[str, dict], ...] = (
    ("speculative (commodity)", {}),
    ("in-order (embedded-class)", {"speculative": False}),
    ("fault at issue (Meltdown fix)", {"fault_at_retirement": False}),
    ("no L1TF forwarding (Foreshadow fix)", {"l1tf_forwarding": False}),
    ("BTB tagged per context (v2 fix)",
     {"predictor": PredictorConfig(btb_tag_with_asid=True)}),
    ("no transient window", {"transient_window": 0}),
)

_DESIGN_POINTS_BY_LABEL: dict[str, dict] = dict(TRANSIENT_DESIGN_POINTS)

#: The scripted attacks the oracle runs, in TAB-S42 column order.
ORACLE_ATTACKS = ("spectre-v1", "spectre-v2", "meltdown", "foreshadow")


def design_point(label: str) -> dict:
    """The SpeculativeConfig kwargs of one design point (copy)."""
    try:
        return dict(_DESIGN_POINTS_BY_LABEL[label])
    except KeyError:
        raise KeyError(f"unknown design point {label!r}") from None


def design_soc_config(name: str, **spec_kwargs) -> SoCConfig:
    """A 2-core server-class config with explicit speculation knobs."""
    return SoCConfig(
        name=name, platform=PlatformClass.SERVER_DESKTOP, num_cores=2,
        speculative=spec_kwargs.pop("speculative", True),
        spec=SpeculativeConfig(**spec_kwargs))


def design_soc_variant(name: str, **spec_kwargs) -> SoC:
    """A fresh SoC of :func:`design_soc_config`."""
    return SoC(design_soc_config(name, **spec_kwargs))


def design_soc(label: str) -> SoC:
    """A fresh SoC for one TAB-S42 design point."""
    return design_soc_variant(label, **design_point(label))


def scripted_transient_scores(label: str, secret: bytes = b"TRNS",
                              seed: int = 0x42) -> dict[str, float]:
    """Run the four scripted attacks on one design point; return scores.

    Seeds derive per (design point, attack) exactly as the historical
    table code did, so the rendered TAB-S42 is unchanged and the
    differential suite compares against the same measurements.
    """
    from repro.arch import SGX
    from repro.attacks.foreshadow import ForeshadowAttack
    from repro.attacks.meltdown import MeltdownAttack
    from repro.attacks.spectre import SpectreBTBAttack, SpectreV1Attack

    scores: dict[str, float] = {}

    soc = design_soc(label)
    rng = XorShiftRNG(derive_seed(seed, label, "spectre-v1"))
    scores["spectre-v1"] = SpectreV1Attack(soc, secret, rng=rng).run().score

    soc = design_soc(label)
    rng = XorShiftRNG(derive_seed(seed, label, "spectre-v2"))
    scores["spectre-v2"] = SpectreBTBAttack(soc, secret, rng=rng).run().score

    soc = design_soc(label)
    scores["meltdown"] = MeltdownAttack(soc, secret).run().score

    soc = design_soc(label)
    if soc.config.speculative:
        sgx = SGX(soc)
        victim = sgx.deploy_aes_victim(
            bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        scores["foreshadow"] = ForeshadowAttack(sgx, victim.handle).run().score
    else:
        # Foreshadow needs the terminal-fault window; an in-order host
        # has none, matching the table's hardcoded 0.00 cell.
        scores["foreshadow"] = 0.0
    return scores


def scripted_transient_verdicts(label: str, secret: bytes = b"TRNS",
                                seed: int = 0x42,
                                threshold: float = 0.9
                                ) -> dict[str, bool]:
    """Boolean success per attack (score >= threshold) on a design point."""
    return {attack: score >= threshold
            for attack, score in
            scripted_transient_scores(label, secret, seed).items()}
