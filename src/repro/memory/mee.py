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

from repro.errors import AccessFault, SecurityViolation
from repro.memory.bus import BusTransaction
from repro.memory.regions import MemoryRegion

_LINE = 64
_MASK64 = (1 << 64) - 1
#: Bound on the per-engine line-keystream memo (64 bytes a line).
_STREAM_MEMO_LINES = 4096


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _keystream(key: int, line_addr: int, length: int) -> bytes:
    """Deterministic per-(key, line) keystream of ``length`` bytes."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        word = _splitmix64(key ^ _splitmix64(line_addr ^ counter))
        out.extend(word.to_bytes(8, "little"))
        counter += 1
    return bytes(out[:length])


def _splitmix64_words(x):
    """:func:`_splitmix64` of every element of a uint64 array (numpy's
    uint64 arithmetic wraps modulo 2**64, as the scalar masks)."""
    import numpy as np
    u64 = np.uint64
    z = x + u64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    return z ^ (z >> u64(31))


def _tag(key: int, line_addr: int, data: bytes) -> int:
    """64-bit integrity tag over one line's ciphertext."""
    acc = _splitmix64(key ^ ~line_addr & _MASK64)
    for i in range(0, len(data), 8):
        chunk = int.from_bytes(data[i:i + 8], "little")
        acc = _splitmix64(acc ^ chunk)
    return acc


class MemoryEncryptionEngine:
    """Transparent encryption + integrity for one protected physical range.

    Install on the bus **both** as a transform (``add_transform``) and as an
    access controller (``add_controller``): the transform handles the
    CPU-side encrypt/decrypt, the controller aborts non-CPU masters the way
    SGX aborts DMA into the EPC.
    """

    def __init__(self, base: int, size: int, key: int) -> None:
        self.base = base
        self.size = size
        self._key = key & _MASK64
        self._tags: dict[int, int] = {}
        #: line address -> that line's keystream; the key never changes,
        #: so a line's keystream is computed once, not per word access.
        self._streams: dict[int, bytes] = {}
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

    def _line_stream(self, line_addr: int) -> bytes:
        stream = self._streams.get(line_addr)
        if stream is None:
            if len(self._streams) >= _STREAM_MEMO_LINES:
                self._streams.clear()
            stream = _keystream(self._key, line_addr, _LINE)
            self._streams[line_addr] = stream
        return stream

    def _apply_keystream(self, addr: int, data: bytes) -> bytes:
        """XOR ``data`` with the line-relative keystream at ``addr``."""
        out = bytearray()
        offset = 0
        while offset < len(data):
            line_addr = (addr + offset) & ~(_LINE - 1)
            in_line = (addr + offset) - line_addr
            take = min(_LINE - in_line, len(data) - offset)
            stream = self._line_stream(line_addr)[in_line:in_line + take]
            mixed = (int.from_bytes(data[offset:offset + take], "little")
                     ^ int.from_bytes(stream, "little"))
            out += mixed.to_bytes(take, "little")
            offset += take
        return bytes(out)

    # -- word-vector path ----------------------------------------------------------
    #
    # What ``on_write``/``on_read`` do to many word-aligned words inside
    # the protected range at once, over uint64 arrays of addresses and
    # words: the same keystream word and tag per word as the scalar path.

    def _keystream_words(self, addrs):
        """Each word's keystream: word ``(addr % 64) // 8`` of its line's
        :func:`_keystream`."""
        import numpy as np
        lines = addrs & np.uint64(_MASK64 & ~(_LINE - 1))
        counters = (addrs - lines) >> np.uint64(3)
        return _splitmix64_words(np.uint64(self._key)
                                 ^ _splitmix64_words(lines ^ counters))

    def _tags_words(self, addrs, ciphertext):
        """Each word's :func:`_tag` over its ciphertext."""
        import numpy as np
        first = _splitmix64_words(np.uint64(self._key) ^ ~addrs)
        return _splitmix64_words(first ^ ciphertext)

    def seal_words(self, addrs, plaintext):
        """``on_write`` of one word at each of ``addrs``: returns the
        ciphertext, stores the words' tags in ``addrs`` order and counts
        one encrypted write per word."""
        ciphertext = plaintext ^ self._keystream_words(addrs)
        self._tags.update(zip(addrs.tolist(),
                              self._tags_words(addrs, ciphertext).tolist()))
        self.encrypted_writes += len(addrs)
        return ciphertext

    def open_words(self, addrs, ciphertext):
        """``on_read`` of one word at each of ``addrs``, uncounted: the
        plaintext, or ``None`` when a stored tag does not match (nothing
        changes; the scalar path then fails on the first such word)."""
        tags = self._tags
        expected = [tags.get(addr) for addr in addrs.tolist()]
        if any(tag is not None for tag in expected):
            actual = self._tags_words(addrs, ciphertext).tolist()
            if any(want is not None and want != got
                   for want, got in zip(expected, actual)):
                return None
        return ciphertext ^ self._keystream_words(addrs)

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
        ciphertext = self._apply_keystream(txn.addr, data)
        for offset in range(0, len(ciphertext), 8):
            word_addr = txn.addr + offset
            span = ciphertext[offset:offset + 8]
            self._tags[word_addr] = _tag(self._key, word_addr, span)
        self.encrypted_writes += 1
        return ciphertext

    def on_read(self, txn: BusTransaction, data: bytes) -> bytes:
        """Decrypt CPU reads from the protected range; verify word tags."""
        if not self._protected(txn):
            return data
        self._check_alignment(txn)
        for offset in range(0, len(data), 8):
            word_addr = txn.addr + offset
            expected = self._tags.get(word_addr)
            if expected is None:
                continue  # never written through the MEE; nothing to verify
            span = data[offset:offset + 8]
            if _tag(self._key, word_addr, span) != expected:
                self.integrity_failures += 1
                raise SecurityViolation(
                    f"MEE integrity failure on word {word_addr:#x}")
        self.decrypted_reads += 1
        return self._apply_keystream(txn.addr, data)
