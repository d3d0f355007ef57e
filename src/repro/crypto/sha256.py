"""SHA-256 (FIPS 180-4), computed by the standard library.

The simulator only needs the digest's value, never its cost, so the
enclave measurements and HMAC tags use :mod:`hashlib`'s C compression
function.  ``tests/test_crypto_hash.py`` pins it to the FIPS 180-4
known-answer vectors.
"""

from __future__ import annotations

import hashlib


def sha256(message: bytes) -> bytes:
    """Digest ``message``; returns 32 bytes."""
    return hashlib.sha256(message).digest()
