"""Deterministic seeded RNG used throughout the simulation.

Experiments must be reproducible, so everything that needs randomness
(masks, nonces, key generation, noise, glitch timing) draws from an
explicitly seeded :class:`XorShiftRNG` rather than global state.

Large blocks (:meth:`XorShiftRNG.u64_block`, :meth:`XorShiftRNG.gauss_block`)
are drawn by a lane-parallel numpy kernel.  The xorshift state update is
linear over GF(2), so one 64×64 jump matrix ``T**_LANE`` carries a
state ``_LANE`` steps ahead: the block is cut into ``_LANE``-step lanes,
their start states come from repeated jumps, and the lanes then advance
in lockstep as uint64 shift/xor vectors.  Every value, float and end
state is bit-identical to the scalar :meth:`XorShiftRNG.next_u64` /
:meth:`XorShiftRNG.gauss` stream.  numpy is imported only when a block
is large enough to take that path, so importing this module stays free.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_MUL = 0x2545F4914F6CDD1D

#: Steps per lane of the block kernel (the jump distance): 21 whole
#: Gaussian samples of 12 draws, so no sample straddles two lanes.
_LANE = 252
#: Gaussian samples per lane.
_SAMPLES_PER_LANE = _LANE // 12
#: Samples per lane drawn, converted and summed per pass of
#: :meth:`XorShiftRNG.gauss_block` (bounds its scratch memory; divides
#: ``_SAMPLES_PER_LANE``).
_SAMPLE_ROWS = 3
#: Smallest block, in raw 64-bit steps, the numpy kernel draws (256
#: Gaussian samples); below it the inlined scalar loop beats the
#: kernel's fixed cost of ``_LANE`` lockstep rounds (about 2 ms on a
#: 2-vCPU x86-64 VM, where the two break even near 3000 steps).
_KERNEL_MIN_STEPS = 12 * 256


_jump_tables: list[list[int]] | None = None


def _jump_table() -> list[list[int]]:
    """``T**_LANE`` as eight byte-indexed xor tables.

    Column ``b`` of the matrix is the state ``_LANE`` steps after the
    single-bit state ``1 << b`` (all 64 stepped together); table ``j``
    maps byte ``j`` of a state to the xor of the columns of its set
    bits.
    """
    global _jump_tables
    if _jump_tables is None:
        import numpy as np
        basis = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
        columns = _lockstep(basis, np.empty((_LANE, 64), dtype=np.uint64))
        columns = columns.tolist()
        tables = []
        for j in range(8):
            table = [0]
            for col in columns[8 * j:8 * j + 8]:
                table += [v ^ col for v in table]
            tables.append(table)
        _jump_tables = tables
    return _jump_tables


def _jump(x: int) -> int:
    """The state ``_LANE`` steps after ``x``."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _jump_table()
    return (t0[x & 0xFF] ^ t1[(x >> 8) & 0xFF] ^ t2[(x >> 16) & 0xFF]
            ^ t3[(x >> 24) & 0xFF] ^ t4[(x >> 32) & 0xFF]
            ^ t5[(x >> 40) & 0xFF] ^ t6[(x >> 48) & 0xFF] ^ t7[x >> 56])


def _lane_starts(x: int, count: int):
    """Start states of the ``_LANE``-step lanes covering the ``count``
    steps after ``x`` (the last lane may run past ``count``)."""
    import numpy as np
    starts = [x]
    for _ in range(-(-count // _LANE) - 1):
        starts.append(_jump(starts[-1]))
    return np.array(starts, dtype=np.uint64)


def _lockstep(prev, out):
    """Advance every lane of ``prev`` one xorshift step per row of
    ``out``: row ``s`` receives each lane's state after ``s + 1`` steps.
    Returns the last row (a view into ``out``)."""
    import numpy as np
    rshift, lshift, xor = np.right_shift, np.left_shift, np.bitwise_xor
    tmp = np.empty_like(prev)
    for cur in out:
        rshift(prev, 12, tmp)
        xor(prev, tmp, cur)
        lshift(cur, 25, tmp)
        xor(cur, tmp, cur)
        rshift(cur, 27, tmp)
        xor(cur, tmp, cur)
        prev = cur
    return prev


def _unit_floats(u):
    """``u / (2**64 - 1)`` as correctly rounded floats, elementwise.

    The exact quotient is ``(u + d) * 2**-64`` with ``0 <= d <= 1`` and
    ``d > 0`` for every ``u > 0``.  Below 2**53 the float of ``u`` is
    exact and ``d`` never reaches half an ulp, so it rounds to ``u``.
    From 2**53 up, ``d`` only decides exact ties, which it breaks
    upwards; adding 0.5 breaks them the same way and moves no other
    value across a rounding boundary.  ``u`` is split into its top 53
    bits and low 11 bits so ``hi + (lo + 0.5)`` rounds exactly once.
    (The plain ``float(u) * 2**-64`` rounds ties to even instead.)
    """
    import numpy as np
    hi = (u & np.uint64(_M64 ^ 0x7FF)).astype(np.float64)
    lo = (u & np.uint64(0x7FF)).astype(np.float64)
    np.add(lo, 0.5, out=lo, where=u >= np.uint64(1 << 53))
    hi += lo
    hi *= 2.0 ** -64
    return hi


class XorShiftRNG:
    """xorshift64* generator — fast, seedable, and stdlib-independent."""

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        # Zero is xorshift's fixed point: a seed whose low 64 bits are
        # all clear would give an all-zero stream forever.
        self._state = (seed & _M64) or 1

    def next_u64(self) -> int:
        """Next 64-bit value."""
        x = self._state
        x ^= (x >> 12) & _M64
        x = (x ^ (x << 25)) & _M64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _M64

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def next_byte(self) -> int:
        return self.next_u64() & 0xFF

    def bytes(self, n: int) -> bytes:
        """``n`` pseudo-random bytes."""
        out = bytearray()
        while len(out) < n:
            out.extend(self.next_u64().to_bytes(8, "little"))
        return bytes(out[:n])

    def gauss(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian sample via the sum of 12 uniforms (Irwin–Hall)."""
        total = 0.0
        for _ in range(12):
            total += self.next_u64() / _M64
        return mean + std * (total - 6.0)

    def u64_block(self, count: int) -> list[int]:
        """``count`` consecutive :meth:`next_u64` values as one block.

        Bit-identical to calling :meth:`next_u64` ``count`` times, end
        state included, so batched consumers can pre-draw a whole
        stream without per-call overhead.
        """
        if count >= _KERNEL_MIN_STEPS:
            import numpy as np
            starts = _lane_starts(self._state, count)
            states = np.empty((_LANE, starts.size), dtype=np.uint64)
            _lockstep(starts, states)
            states = states.T.reshape(-1)[:count]
            self._state = int(states[-1])
            states *= np.uint64(_MUL)
            return states.tolist()
        x = self._state
        mul = _MUL
        out = [0] * count
        for i in range(count):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _M64
            x ^= x >> 27
            out[i] = (x * mul) & _M64
        self._state = x
        return out

    def gauss_block(self, count: int, mean: float = 0.0,
                    std: float = 1.0) -> list[float]:
        """``count`` consecutive :meth:`gauss` samples as one block.

        The 12 uniforms of each sample are summed in the scalar order,
        with the exact quotient of :meth:`gauss`, so the floats (and the
        final RNG state) are bit-identical to ``count`` scalar calls.
        """
        steps = 12 * count
        if steps >= _KERNEL_MIN_STEPS:
            import numpy as np
            prev = _lane_starts(self._state, steps)
            end_lane, end_step = divmod(steps - 1, _LANE)
            # The lanes advance a block of rows at a time, so only one
            # block of states is held.  Row j of ``totals`` is sample j
            # of every lane; its 12 draws are states rows 12j..12j+11.
            block = np.empty((12 * _SAMPLE_ROWS, prev.size), dtype=np.uint64)
            totals = np.empty((_SAMPLES_PER_LANE, prev.size))
            for first in range(0, _LANE, len(block)):
                prev = _lockstep(prev, block).copy()
                if 0 <= end_step - first < len(block):
                    self._state = int(block[end_step - first, end_lane])
                block *= np.uint64(_MUL)
                uniforms = _unit_floats(block).reshape(_SAMPLE_ROWS, 12, -1)
                for j, draws in enumerate(uniforms, first // 12):
                    total = totals[j]
                    total[:] = draws[0]
                    for draw in draws[1:]:
                        total += draw
            totals = totals.T.reshape(-1)[:count]
            totals -= 6.0
            totals *= std
            totals += mean
            return totals.tolist()
        x = self._state
        mul = _MUL
        out = [0.0] * count
        for i in range(count):
            total = 0.0
            for _ in range(12):
                x ^= x >> 12
                x = (x ^ (x << 25)) & _M64
                x ^= x >> 27
                total += ((x * mul) & _M64) / _M64
            out[i] = mean + std * (total - 6.0)
        self._state = x
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def odd_integer(self, bits: int) -> int:
        """Random odd integer with the top bit set (prime candidates)."""
        if bits < 2:
            raise ValueError("need at least 2 bits")
        value = int.from_bytes(self.bytes((bits + 7) // 8), "little")
        value &= (1 << bits) - 1
        value |= (1 << (bits - 1)) | 1
        return value
