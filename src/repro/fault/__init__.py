"""Fault injection: glitch models, campaign runner, CLKSCREW coupling.

Section 5: "intrusive attacks induce faults in the system ... by
'glitching' the device, i.e., forcing changes in the values of relevant
physical parameters outside the specified intervals."  The engine turns a
glitch specification into the corrupted intermediates that fault analysis
(Bellcore RSA-CRT, AES DFA) consumes, and couples to the DVFS model so
CLKSCREW-style software-induced glitches use the same machinery as
bench-top clock/voltage/EM/laser glitches.
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "models": ("FaultKind", "FaultSpec", "GlitchChannel", "apply_fault"),
    "injector": ("CampaignResult", "FaultCampaign", "GlitchInjector"),
    "clkscrew": ("ClkscrewGlitcher",),
})
