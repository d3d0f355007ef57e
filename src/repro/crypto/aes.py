"""AES-128 from scratch, in the three variants Section 5 contrasts.

* :class:`AES128` — reference S-box implementation (also the decryptor).
* :class:`TTableAES` — the classic 32-bit T-table implementation.  Every
  table lookup is reported through ``on_lookup`` (table id, index), which
  the victim harness binds to simulated memory — producing the secret-
  dependent cache footprint Evict+Time / Prime+Probe / Flush+Reload read.
* :class:`ConstantTimeAES` — uniform access pattern: each round preloads
  every table cache line regardless of data (refs [3, 34]'s software
  countermeasure).  Timing and cache footprint become key-independent.
* :class:`MaskedAES` — genuine two-share first-order boolean masking with
  a per-encryption remasked S-box table; leaked intermediates are
  uniformly masked, defeating first-order DPA/CPA.

All variants support ``leak_hook(round, byte_index, value)`` for the power
model and ``fault_hook(round, state)`` for fault injection (the state may
be mutated in place — that *is* the glitch).

The S-box is derived, not transcribed: multiplicative inverse in GF(2^8)
(read off log/antilog tables of the generator 3) followed by the affine
transform, per FIPS-197.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.rng import XorShiftRNG

LeakHook = Callable[[int, int, int], None]  # (round, byte_index, value)
FaultHook = Callable[[int, bytearray], None]  # (round, state) mutate in place
LookupHook = Callable[[int, int], None]  # (table_id, index)

BLOCK_SIZE = 16
NUM_ROUNDS = 10


# -- GF(2^8) arithmetic and table generation -------------------------------------

def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _rotl8(b: int, n: int) -> int:
    return ((b << n) | (b >> (8 - n))) & 0xFF


def _build_sbox() -> tuple[list[int], list[int]]:
    # 3 generates GF(2^8)*: walking its powers gives antilog and log
    # tables, and the inverse of 3^i is 3^(255 - i).  Multiplying by 3
    # is ``x ^ xtime(x)``, so the whole build is O(256).
    antilog = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        antilog[i] = x
        log[x] = i
        x ^= _xtime(x)
    sbox = [0] * 256
    inv = [0] * 256
    for x in range(256):
        b = antilog[-log[x] % 255] if x else 0
        y = (b ^ _rotl8(b, 1) ^ _rotl8(b, 2) ^ _rotl8(b, 3) ^ _rotl8(b, 4)
             ^ 0x63)
        sbox[x] = y
        inv[y] = x
    return sbox, inv


SBOX, INV_SBOX = _build_sbox()


def _build_ttables() -> list[list[int]]:
    """Te0..Te3: 256-entry tables of 32-bit words (round lookups)."""
    te = [[0] * 256 for _ in range(4)]
    for x in range(256):
        s = SBOX[x]
        s2 = _xtime(s)
        word = (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s)
        for t in range(4):
            te[t][x] = ((word >> (8 * t)) | (word << (32 - 8 * t))) & 0xFFFFFFFF
    return te


TE = _build_ttables()

RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

#: State-byte index read by each of the 16 round-1 T-table lookups, in
#: lookup order: lookup ``j`` uses table ``j % 4`` and state byte
#: ``TTABLE_LOOKUP_BYTE[j]`` (the ShiftRows source index) — the mapping
#: cache attacks invert to attribute an observed set to a key byte.
TTABLE_LOOKUP_BYTE = [(row + 4 * ((col + row) % 4))
                      for col in range(4) for row in range(4)]


def expand_key(key: bytes) -> list[bytes]:
    """AES-128 key schedule: 11 round keys of 16 bytes."""
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [SBOX[b] for b in temp]
            temp[0] ^= RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [bytes(sum(words[4 * r:4 * r + 4], []))
            for r in range(NUM_ROUNDS + 1)]


def invert_key_schedule(last_round_key: bytes) -> bytes:
    """Recover the AES-128 master key from round key 10.

    The key schedule is invertible: ``w[i-4] = w[i] ^ g(w[i-1])``.  This
    is the final step of every last-round attack (cache, DFA, CLKSCREW):
    once ``k10`` is known, so is the cipher key.
    """
    if len(last_round_key) != 16:
        raise ValueError("round key must be 16 bytes")
    words: list[list[int] | None] = [None] * 44
    for j in range(4):
        words[40 + j] = list(last_round_key[4 * j:4 * j + 4])
    for i in range(43, 3, -1):
        prev = words[i - 1]
        temp = list(prev)
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [SBOX[b] for b in temp]
            temp[0] ^= RCON[i // 4 - 1]
        words[i - 4] = [a ^ b for a, b in zip(words[i], temp)]
    return bytes(sum((words[j] for j in range(4)), []))


def _shift_rows(state: bytearray) -> bytearray:
    out = bytearray(16)
    for col in range(4):
        for row in range(4):
            out[4 * col + row] = state[(4 * (col + row) + row) % 16]
    return out


def _inv_shift_rows(state: bytearray) -> bytearray:
    out = bytearray(16)
    for col in range(4):
        for row in range(4):
            out[(4 * (col + row) + row) % 16] = state[4 * col + row]
    return out


def _mix_single_column(col: bytearray) -> bytearray:
    a = list(col)
    return bytearray([
        gf_mul(a[0], 2) ^ gf_mul(a[1], 3) ^ a[2] ^ a[3],
        a[0] ^ gf_mul(a[1], 2) ^ gf_mul(a[2], 3) ^ a[3],
        a[0] ^ a[1] ^ gf_mul(a[2], 2) ^ gf_mul(a[3], 3),
        gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ gf_mul(a[3], 2),
    ])


def _mix_columns(state: bytearray) -> bytearray:
    out = bytearray()
    for col in range(4):
        out.extend(_mix_single_column(state[4 * col:4 * col + 4]))
    return out


def _inv_mix_columns(state: bytearray) -> bytearray:
    out = bytearray()
    for col in range(4):
        a = state[4 * col:4 * col + 4]
        out.extend([
            gf_mul(a[0], 14) ^ gf_mul(a[1], 11) ^ gf_mul(a[2], 13) ^ gf_mul(a[3], 9),
            gf_mul(a[0], 9) ^ gf_mul(a[1], 14) ^ gf_mul(a[2], 11) ^ gf_mul(a[3], 13),
            gf_mul(a[0], 13) ^ gf_mul(a[1], 9) ^ gf_mul(a[2], 14) ^ gf_mul(a[3], 11),
            gf_mul(a[0], 11) ^ gf_mul(a[1], 13) ^ gf_mul(a[2], 9) ^ gf_mul(a[3], 14),
        ])
    return out


class AES128:
    """Reference AES-128 with leakage and fault hooks."""

    def __init__(self, key: bytes,
                 leak_hook: LeakHook | None = None,
                 fault_hook: FaultHook | None = None) -> None:
        self.round_keys = expand_key(key)
        self.leak_hook = leak_hook
        self.fault_hook = fault_hook

    def _leak(self, rnd: int, state: bytearray) -> None:
        if self.leak_hook is not None:
            for i, value in enumerate(state):
                self.leak_hook(rnd, i, value)

    def _fault(self, rnd: int, state: bytearray) -> None:
        if self.fault_hook is not None:
            self.fault_hook(rnd, state)

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError("plaintext block must be 16 bytes")
        state = bytearray(a ^ b for a, b in zip(plaintext, self.round_keys[0]))
        for rnd in range(1, NUM_ROUNDS):
            self._fault(rnd, state)
            state = bytearray(SBOX[b] for b in state)
            self._leak(rnd, state)
            state = _shift_rows(state)
            state = _mix_columns(state)
            state = bytearray(a ^ b for a, b in
                              zip(state, self.round_keys[rnd]))
        self._fault(NUM_ROUNDS, state)
        state = bytearray(SBOX[b] for b in state)
        self._leak(NUM_ROUNDS, state)
        state = _shift_rows(state)
        state = bytearray(a ^ b for a, b in
                          zip(state, self.round_keys[NUM_ROUNDS]))
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) != BLOCK_SIZE:
            raise ValueError("ciphertext block must be 16 bytes")
        state = bytearray(a ^ b for a, b in
                          zip(ciphertext, self.round_keys[NUM_ROUNDS]))
        state = _inv_shift_rows(state)
        state = bytearray(INV_SBOX[b] for b in state)
        for rnd in range(NUM_ROUNDS - 1, 0, -1):
            state = bytearray(a ^ b for a, b in
                              zip(state, self.round_keys[rnd]))
            state = _inv_mix_columns(state)
            state = _inv_shift_rows(state)
            state = bytearray(INV_SBOX[b] for b in state)
        return bytes(a ^ b for a, b in zip(state, self.round_keys[0]))


class TTableAES(AES128):
    """T-table AES: the classic fast-but-leaky software implementation.

    Table ids reported to ``on_lookup``: 0-3 for Te0-Te3 (rounds 1-9),
    4 for the final-round S-box table.
    """

    def __init__(self, key: bytes,
                 on_lookup: LookupHook | None = None,
                 leak_hook: LeakHook | None = None,
                 fault_hook: FaultHook | None = None) -> None:
        super().__init__(key, leak_hook=leak_hook, fault_hook=fault_hook)
        self.on_lookup = on_lookup

    def _lookup(self, table: int, index: int) -> int:
        if self.on_lookup is not None:
            self.on_lookup(table, index)
        if table == 4:
            return SBOX[index]
        return TE[table][index]

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError("plaintext block must be 16 bytes")
        state = bytearray(a ^ b for a, b in zip(plaintext, self.round_keys[0]))
        for rnd in range(1, NUM_ROUNDS):
            self._fault(rnd, state)
            new = bytearray(16)
            for col in range(4):
                acc = 0
                for row in range(4):
                    byte = state[(4 * (col + row) + row) % 16]
                    # Te_row already embeds the row's rotation.
                    acc ^= self._lookup(row, byte)
                for row in range(4):
                    new[4 * col + row] = (acc >> (24 - 8 * row)) & 0xFF
            state = bytearray(a ^ b for a, b in zip(new, self.round_keys[rnd]))
            if self.leak_hook is not None:
                self._leak(rnd, state)
        self._fault(NUM_ROUNDS, state)
        final = bytearray(16)
        for col in range(4):
            for row in range(4):
                byte = state[(4 * (col + row) + row) % 16]
                final[4 * col + row] = self._lookup(4, byte)
        self._leak(NUM_ROUNDS, final)
        return bytes(a ^ b for a, b in zip(final, self.round_keys[NUM_ROUNDS]))


class ConstantTimeAES(AES128):
    """Uniform-access AES: preloads every table line each round.

    The computation itself is the reference path (no data-dependent
    lookups reach memory); ``on_lookup`` is called for *every line of every
    table* once per round, modelling the scanning preload of cache-attack-
    hardened libraries.  ``entries_per_line`` matches 64-byte lines over
    4-byte entries.
    """

    def __init__(self, key: bytes,
                 on_lookup: LookupHook | None = None,
                 leak_hook: LeakHook | None = None,
                 fault_hook: FaultHook | None = None,
                 entries_per_line: int = 16) -> None:
        super().__init__(key, leak_hook=leak_hook, fault_hook=fault_hook)
        self.on_lookup = on_lookup
        self.entries_per_line = entries_per_line

    def _preload(self) -> None:
        if self.on_lookup is None:
            return
        for table in range(5):
            for index in range(0, 256, self.entries_per_line):
                self.on_lookup(table, index)

    def encrypt_block(self, plaintext: bytes) -> bytes:
        # The memory access pattern is a constant: one full-table scan per
        # round, independent of data, then the arithmetic S-box path.
        for _ in range(NUM_ROUNDS):
            self._preload()
        return super().encrypt_block(plaintext)


class MaskedAES(AES128):
    """First-order boolean-masked AES (two shares, remasked S-box table).

    Per encryption two fresh mask bytes are drawn: ``m_in`` (the uniform
    input mask) and ``m_out`` (the S-box output mask).  The masked table
    ``S'[x] = S[x ^ m_in] ^ m_out`` is rebuilt per block.  Leaked
    intermediates are always one share — uniformly distributed and
    independent of the secret, which is what defeats first-order DPA.
    """

    def __init__(self, key: bytes, rng: XorShiftRNG,
                 leak_hook: LeakHook | None = None,
                 fault_hook: FaultHook | None = None) -> None:
        super().__init__(key, leak_hook=leak_hook, fault_hook=fault_hook)
        self.rng = rng

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError("plaintext block must be 16 bytes")
        m_in = self.rng.next_byte()
        m_out = self.rng.next_byte()
        masked_sbox = [SBOX[x ^ m_in] ^ m_out for x in range(256)]

        # share0 ^ share1 == true state; share1 starts as a random mask.
        share1 = bytearray(self.rng.next_byte() for _ in range(16))
        share0 = bytearray(p ^ k ^ m for p, k, m in
                           zip(plaintext, self.round_keys[0], share1))

        for rnd in range(1, NUM_ROUNDS):
            share0, share1 = self._masked_round(
                rnd, share0, share1, masked_sbox, m_in, m_out, final=False)
        share0, share1 = self._masked_round(
            NUM_ROUNDS, share0, share1, masked_sbox, m_in, m_out, final=True)
        return bytes(a ^ b for a, b in zip(share0, share1))

    def _masked_round(self, rnd: int, share0: bytearray, share1: bytearray,
                      masked_sbox: list[int], m_in: int, m_out: int,
                      final: bool) -> tuple[bytearray, bytearray]:
        # Remask so every share1 byte equals m_in (table precondition).
        share0 = bytearray(s0 ^ s1 ^ m_in for s0, s1 in zip(share0, share1))
        share1 = bytearray([m_in] * 16)
        if self.fault_hook is not None:
            self.fault_hook(rnd, share0)  # glitch lands on one share
        # Masked SubBytes: share0 = S(state) ^ m_out.
        share0 = bytearray(masked_sbox[b] for b in share0)
        share1 = bytearray([m_out] * 16)
        if self.leak_hook is not None:
            for i, value in enumerate(share0):
                self.leak_hook(rnd, i, value)  # masked value leaks
        share0 = _shift_rows(share0)
        share1 = _shift_rows(share1)
        if not final:
            share0 = _mix_columns(share0)
            share1 = _mix_columns(share1)
        share0 = bytearray(a ^ b for a, b in
                           zip(share0, self.round_keys[rnd]))
        return share0, share1
