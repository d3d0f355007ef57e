"""Executable attacks: the paper's Sections 4 and 5 as experiments.

Every attack is a class with a ``run()`` method returning an
:class:`~repro.attacks.result.AttackResult`; the evaluation matrix
(:mod:`repro.core.matrix`) and the benches drive them uniformly.  Attacks
never receive secrets — success is graded afterwards against ground truth
the harness kept to itself.

The package namespace is lazy (PEP 562): ``from repro.attacks import
FlushReloadAttack`` imports :mod:`repro.attacks.cache_sca` (and numpy)
on that first access, so code that needs only the result types pays for
no attack module.
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "result": ("AttackCategory", "AttackResult"),
    "base": ("AttackerProcess",),
    "software": ("CodeInjectionAttack", "DMAAttack",
                 "KernelMemoryProbeAttack"),
    "cache_sca": ("EvictTimeAttack", "FlushReloadAttack",
                  "PrimeProbeAttack"),
    "spectre": ("SpectreBTBAttack", "SpectreV1Attack"),
    "meltdown": ("MeltdownAttack",),
    "foreshadow": ("ForeshadowAttack",),
    "timing": ("KocherTimingAttack",),
    "dpa": ("cpa_attack", "cpa_recover_key", "dpa_attack",
            "dpa_recover_key"),
    "fault_attacks": ("AESLastRoundDFA", "BellcoreRSAAttack"),
    "clkscrew_attack": ("ClkscrewAttack",),
    "controlled_channel": ("ControlledChannelAttack", "PagedModExpVictim"),
    "rowhammer": ("RowhammerAttack",),
})
