"""Physical side-channel signal simulation (power / EM traces).

The standard SCA-research leakage abstraction: each key-dependent
intermediate byte produces one trace sample, ``L(v) = scale * HW(v) +
N(0, sigma)``.  DPA/CPA mathematics are identical on simulated and
oscilloscope-measured traces; what the simulation removes is only the
lab equipment, which is exactly the substitution DESIGN.md documents.
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "leakage": ("HammingDistanceModel", "HammingWeightModel", "IdentityModel",
                "hamming_weight"),
    "trace": ("TraceSet",),
    "instrument": ("PowerInstrument", "capture_aes_traces"),
    "batch": ("BatchPowerInstrument", "batch_cipher_for"),
})
