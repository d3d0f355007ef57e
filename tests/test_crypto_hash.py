"""SHA-256 against FIPS 180-4 vectors, HMAC against RFC 4231 and the
stdlib."""

import hashlib
import hmac as stdlib_hmac

import pytest

from repro.crypto.hmacmod import hmac_sha256, hmac_verify
from repro.crypto.sha256 import sha256


class TestSHA256Vectors:
    """FIPS 180-4 known-answer vectors (the one-, two- and multi-block
    examples of its appendix, plus one million ``a``)."""

    VECTORS = {
        b"": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
             "7852b855",
        b"abc": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
                "f20015ad",
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq":
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
            "19db06c1",
        b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
        b"hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu":
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac4503"
            "7afee9d1",
    }

    @pytest.mark.parametrize("message,digest", sorted(VECTORS.items()))
    def test_fips_vectors(self, message, digest):
        assert sha256(message).hex() == digest

    def test_one_million_a(self):
        assert sha256(b"a" * 1_000_000).hex() == (
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39cc"
            "c7112cd0")

    def test_avalanche(self):
        a = sha256(b"hello world")
        b = sha256(b"hello worle")
        differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
        assert differing > 80  # ~128 expected


class TestHMAC:
    def test_rfc4231_case_1(self):
        key = b"\x0b" * 20
        assert hmac_sha256(key, b"Hi There").hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c"
            "2e32cff7")

    def test_rfc4231_case_2(self):
        assert hmac_sha256(b"Jefe",
                           b"what do ya want for nothing?").hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b9"
            "64ec3843")

    def test_long_key_hashed(self):
        key = b"K" * 131  # > block size
        message = b"Test Using Larger Than Block-Size Key"
        expected = stdlib_hmac.new(key, message, hashlib.sha256).digest()
        assert hmac_sha256(key, message) == expected

    def test_verify_accepts_valid(self):
        tag = hmac_sha256(b"k", b"m")
        assert hmac_verify(b"k", b"m", tag)

    def test_verify_rejects_wrong_tag(self):
        tag = bytearray(hmac_sha256(b"k", b"m"))
        tag[0] ^= 1
        assert not hmac_verify(b"k", b"m", bytes(tag))

    def test_verify_rejects_wrong_length(self):
        assert not hmac_verify(b"k", b"m", b"short")

    def test_verify_rejects_wrong_key(self):
        tag = hmac_sha256(b"k1", b"m")
        assert not hmac_verify(b"k2", b"m", tag)
