"""Memory Encryption Engine (MEE) — the SGX-style bus transform.

SGX "encrypts all enclave code and data leaving the CPU".  The MEE models
that boundary: writes from CPU masters into the protected physical range
are stored as ciphertext, reads by CPU masters are transparently decrypted
and integrity-checked, and *every other master* (DMA, debug probes) is
denied — so a DMA attack or a cold-boot style raw dump of
:class:`~repro.memory.phys.PhysicalMemory` observes only ciphertext.

The per-line keystream uses a splitmix64-based PRF.  A real MEE uses an
AES-CTR derivative; cryptographic strength is irrelevant to the simulated
threat model — what matters is that ciphertext is key- and line-dependent
and useless without the CPU-internal key, and that tampering with stored
ciphertext is detected on the next read (drop-and-lock integrity).
"""

from __future__ import annotations

import struct

from repro.errors import AccessFault, SecurityViolation
from repro.memory.bus import BusTransaction
from repro.memory.regions import MemoryRegion

_LINE = 64
_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _keystream(key: int, addr: int) -> int:
    """The keystream word at word-aligned ``addr``: word ``i`` of the
    stream of its 64-byte line ``line`` is
    ``splitmix64(key ^ splitmix64(line ^ i))``."""
    return _splitmix64(key ^ _splitmix64(
        addr & ~(_LINE - 1) | (addr & (_LINE - 1)) >> 3))


def _tag(key: int, addr: int, word: int) -> int:
    """The integrity tag of ciphertext ``word`` at ``addr``:
    ``splitmix64(splitmix64(key ^ ~addr) ^ word)``."""
    return _splitmix64(_splitmix64(key ^ addr ^ _MASK64) ^ word)


class MemoryEncryptionEngine:
    """Transparent encryption + integrity for one protected physical range.

    Install on the bus **both** as a transform (``add_transform``) and as an
    access controller (``add_controller``): the transform handles the
    CPU-side encrypt/decrypt, the controller aborts non-CPU masters the way
    SGX aborts DMA into the EPC.

    The cipher is word-granular: each word is XORed with its address's
    :func:`_keystream` word and tagged with :func:`_tag`.  The bus hooks
    and the page mover (:meth:`seal_words`, :meth:`open_words`) share
    the helpers below.
    """

    def __init__(self, base: int, size: int, key: int) -> None:
        self.base = base
        self.size = size
        self._key = key & _MASK64
        self._tags: dict[int, int] = {}
        self.encrypted_writes = 0
        self.decrypted_reads = 0
        self.integrity_failures = 0

    @property
    def end(self) -> int:
        return self.base + self.size

    def _protected(self, txn: BusTransaction) -> bool:
        return self.base <= txn.addr and txn.end <= self.end

    def _crosses(self, txn: BusTransaction) -> bool:
        return txn.addr < self.end and self.base < txn.end \
            and not self._protected(txn)

    # -- the word cipher -----------------------------------------------------------

    def _xor_keystream(self, addrs, words) -> list[int]:
        """Each of ``words`` XORed with the keystream word of its
        word-aligned address in ``addrs``."""
        key = self._key
        return [word ^ _keystream(key, addr)
                for addr, word in zip(addrs, words)]

    def _first_forgery(self, addrs, ciphertext) -> int | None:
        """Index of the first word whose stored tag its ciphertext does
        not match; words never written through the engine carry no tag."""
        key, tags = self._key, self._tags
        for index, (addr, word) in enumerate(zip(addrs, ciphertext)):
            expected = tags.get(addr)
            if expected is not None and _tag(key, addr, word) != expected:
                return index
        return None

    def seal_words(self, addrs, plaintext: list[int]) -> list[int]:
        """Encrypt one word at each of the word-aligned ``addrs`` and store
        the words' tags in ``addrs`` order; returns the ciphertext.
        Counts nothing: the caller counts its bus writes."""
        key = self._key
        ciphertext = self._xor_keystream(addrs, plaintext)
        self._tags.update((addr, _tag(key, addr, word))
                          for addr, word in zip(addrs, ciphertext))
        return ciphertext

    def open_words(self, addrs, ciphertext: list[int]) -> list[int] | None:
        """Verify and decrypt one word at each of the word-aligned
        ``addrs``: the plaintext, or ``None`` when a stored tag does not
        match (nothing changes).  Counts nothing."""
        if self._first_forgery(addrs, ciphertext) is not None:
            return None
        return self._xor_keystream(addrs, ciphertext)

    # -- access controller hook ------------------------------------------------

    def check(self, txn: BusTransaction, region: MemoryRegion | None) -> None:
        """Abort any non-CPU master touching the protected range."""
        if txn.master.kind == "cpu":
            return
        if self._protected(txn) or self._crosses(txn):
            raise AccessFault(txn.addr, txn.access,
                              "MEE: non-CPU access to protected memory aborted")

    # -- transform hooks ---------------------------------------------------------

    def _check_alignment(self, txn: BusTransaction) -> None:
        if txn.addr % 8 or txn.size % 8:
            raise SecurityViolation(
                "MEE requires word-aligned access to protected memory")

    def on_write(self, txn: BusTransaction, data: bytes) -> bytes:
        """Encrypt CPU writes into the protected range; tag each word.

        Tags are word-granular: the bus interface is word-based, so every
        protected write covers whole words and partial-coverage hazards
        (a line tag computed from a fragment) cannot arise.
        """
        if not self._protected(txn):
            return data
        self._check_alignment(txn)
        ciphertext = self.seal_words(range(txn.addr, txn.end, 8),
                                     _words(data))
        self.encrypted_writes += 1
        return _bytes(ciphertext)

    def on_read(self, txn: BusTransaction, data: bytes) -> bytes:
        """Decrypt CPU reads from the protected range; verify word tags."""
        if not self._protected(txn):
            return data
        self._check_alignment(txn)
        addrs = range(txn.addr, txn.end, 8)
        ciphertext = _words(data)
        bad = self._first_forgery(addrs, ciphertext)
        if bad is not None:
            self.integrity_failures += 1
            raise SecurityViolation(
                f"MEE integrity failure on word {addrs[bad]:#x}")
        self.decrypted_reads += 1
        return _bytes(self._xor_keystream(addrs, ciphertext))


def _words(data: bytes) -> list[int]:
    """``data`` as little-endian 64-bit words."""
    return list(struct.unpack(f"<{len(data) // 8}Q", data))


def _bytes(words: list[int]) -> bytes:
    """Little-endian 64-bit ``words`` as bytes."""
    return struct.pack(f"<{len(words)}Q", *words)
