"""Sparse byte-addressable physical memory."""

from __future__ import annotations

from itertools import repeat

from repro.errors import MemoryFault

#: Bytes per machine word (register width).
WORD_SIZE = 8
WORD_MASK = (1 << (WORD_SIZE * 8)) - 1


class PhysicalMemory:
    """Sparse physical memory of ``size`` bytes.

    Storage is a dict of only the bytes ever written, so multi-gigabyte
    address spaces cost nothing.  Word accesses are little-endian and need
    not be aligned (alignment penalties are modelled in the cache layer,
    not here).
    """

    def __init__(self, size: int = 1 << 32) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self._bytes: dict[int, int] = {}

    def _check(self, addr: int, length: int, access: str) -> None:
        if addr < 0 or addr + length > self.size:
            raise MemoryFault(addr, access, "out-of-range")

    def read_byte(self, addr: int) -> int:
        """Read one byte; unwritten memory reads as zero."""
        self._check(addr, 1, "read")
        return self._bytes.get(addr, 0)

    def write_byte(self, addr: int, value: int) -> None:
        """Write one byte (value truncated to 8 bits)."""
        self._check(addr, 1, "write")
        self._bytes[addr] = value & 0xFF

    def read_word(self, addr: int) -> int:
        """Read a little-endian :data:`WORD_SIZE`-byte word."""
        self._check(addr, WORD_SIZE, "read")
        get = self._bytes.get
        value = 0
        for i in range(WORD_SIZE):
            value |= get(addr + i, 0) << (8 * i)
        return value

    def write_word(self, addr: int, value: int) -> None:
        """Write a little-endian :data:`WORD_SIZE`-byte word."""
        self._check(addr, WORD_SIZE, "write")
        value &= WORD_MASK
        for i in range(WORD_SIZE):
            self._bytes[addr + i] = (value >> (8 * i)) & 0xFF

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Read ``length`` raw bytes."""
        self._check(addr, length, "read")
        return bytes(map(self._bytes.get, range(addr, addr + length),
                         repeat(0)))

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write raw bytes starting at ``addr``."""
        self._check(addr, len(data), "write")
        self._bytes.update(zip(range(addr, addr + len(data)), data))

    def clear_range(self, addr: int, length: int) -> None:
        """Zero a range (used by SMART's attestation-trace cleanup)."""
        self._check(addr, length, "write")
        stored = self._bytes
        end = addr + length
        if length <= len(stored):
            for a in range(addr, end):
                stored.pop(a, None)
        else:
            # Fewer stored bytes than addresses: delete the stored ones in
            # range.  Either way the other keys keep their order.
            for a in [a for a in stored if addr <= a < end]:
                del stored[a]

    def footprint(self) -> int:
        """Number of bytes ever written (for tests/diagnostics)."""
        return len(self._bytes)
