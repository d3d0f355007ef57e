"""From-scratch cryptographic implementations — the attack *targets*.

Every physical and cache attack in the paper needs a real cipher producing
real key-dependent intermediates.  This package provides them, each in the
variants the countermeasure discussion (Section 5) requires:

* :class:`TTableAES` — table-based AES-128 whose lookups are observable
  (cache side channels) and whose intermediates leak (power analysis).
* :class:`ConstantTimeAES` — touches every table entry per lookup, the
  software countermeasure of refs [3, 34].
* :class:`MaskedAES` — first-order boolean masking (Section 5's "masking").
* :class:`RSA` — square-and-multiply (timing-leaky, Kocher [23]),
  Montgomery-ladder (constant-time), and CRT signing with/without result
  verification (the Bellcore fault-attack countermeasure [5]).
* :func:`sha256` / :func:`hmac_sha256` — the attestation MAC substrate.
"""

from repro.common import lazy_exports

# ``sha256`` names both a submodule and the function it defines.  Once
# that submodule is imported, the import system binds the *module* on
# this package, so a lazy name would resolve to the module; binding the
# function here, after the submodule has loaded, keeps it the function.
from repro.crypto.sha256 import sha256

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "hmacmod": ("hmac_sha256", "hmac_verify"),
    "rng": ("XorShiftRNG",),
    "aes": ("AES128", "ConstantTimeAES", "MaskedAES", "TTableAES"),
    "modexp": ("ModExpResult", "modexp_ladder", "modexp_square_multiply"),
    "rsa": ("RSA", "RSAKey", "generate_rsa_key"),
})
__all__ = sorted([*__all__, "sha256"])
