"""Physical memory model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryFault
from repro.memory.phys import PhysicalMemory


class TestBytes:
    def test_unwritten_reads_zero(self, memory):
        assert memory.read_byte(0x1234) == 0
        assert memory.read_bytes(0x5000, 8) == bytes(8)

    def test_byte_roundtrip(self, memory):
        memory.write_byte(100, 0xAB)
        assert memory.read_byte(100) == 0xAB

    def test_byte_truncated_to_8_bits(self, memory):
        memory.write_byte(0, 0x1FF)
        assert memory.read_byte(0) == 0xFF

    def test_bytes_roundtrip(self, memory):
        memory.write_bytes(0x2000, b"hello world")
        assert memory.read_bytes(0x2000, 11) == b"hello world"


class TestWords:
    def test_word_little_endian(self, memory):
        memory.write_word(0x100, 0x0102030405060708)
        assert memory.read_bytes(0x100, 8) == bytes(
            [8, 7, 6, 5, 4, 3, 2, 1])

    def test_word_roundtrip_unaligned(self, memory):
        memory.write_word(0x103, 0xDEADBEEFCAFEF00D)
        assert memory.read_word(0x103) == 0xDEADBEEFCAFEF00D

    def test_word_truncated_to_64_bits(self, memory):
        memory.write_word(0, 1 << 70 | 0x42)
        assert memory.read_word(0) == 0x42


class TestBounds:
    def test_out_of_range_read(self):
        mem = PhysicalMemory(size=0x1000)
        with pytest.raises(MemoryFault, match="out-of-range"):
            mem.read_byte(0x1000)

    def test_word_straddling_end(self):
        mem = PhysicalMemory(size=0x1000)
        with pytest.raises(MemoryFault):
            mem.read_word(0xFFC + 1)

    def test_negative_address(self):
        mem = PhysicalMemory(size=0x1000)
        with pytest.raises(MemoryFault):
            mem.write_byte(-1, 0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(size=0)


class TestMaintenance:
    def test_clear_range(self, memory):
        memory.write_bytes(0x100, b"\xff" * 32)
        memory.clear_range(0x108, 16)
        data = memory.read_bytes(0x100, 32)
        assert data[:8] == b"\xff" * 8
        assert data[8:24] == bytes(16)
        assert data[24:] == b"\xff" * 8

    @staticmethod
    def _clear_against_reference(stored: dict[int, int], addr: int,
                                 length: int) -> None:
        """``clear_range`` leaves the bytes, in their order, that popping
        each address of the range leaves."""
        mem = PhysicalMemory(size=4096)
        for a, value in stored.items():
            mem.write_byte(a, value)
        expected = dict(stored)
        for a in range(addr, addr + length):
            expected.pop(a, None)
        mem.clear_range(addr, length)
        assert list(mem._bytes.items()) == list(expected.items())
        assert mem.footprint() == len(expected)

    @pytest.mark.parametrize("length", [4, 3000],
                             ids=["walks-range", "walks-stored"])
    def test_clear_range_branches_keep_key_order(self, length):
        stored = {a: a & 0xFF for a in (900, 10, 7, 11, 3000, 8, 2)}
        self._clear_against_reference(stored, 8, length)

    @settings(max_examples=60, deadline=None)
    @given(stored=st.dictionaries(st.integers(0, 255), st.integers(0, 255),
                                  max_size=40),
           addr=st.integers(0, 255), length=st.integers(0, 128))
    def test_clear_range_matches_per_address_pop(self, stored, addr, length):
        self._clear_against_reference(stored, addr, length)

    @pytest.mark.parametrize("addr, length", [(4090, 8), (-1, 2)])
    def test_clear_range_out_of_range_faults(self, addr, length):
        mem = PhysicalMemory(size=4096)
        mem.write_byte(4095, 1)
        with pytest.raises(MemoryFault):
            mem.clear_range(addr, length)
        assert mem.footprint() == 1

    def test_footprint_counts_written_bytes(self, memory):
        assert memory.footprint() == 0
        memory.write_bytes(0, b"abcd")
        assert memory.footprint() == 4
        memory.clear_range(0, 2)
        assert memory.footprint() == 2

    def test_sparse_storage_supports_huge_space(self):
        mem = PhysicalMemory(size=1 << 40)
        mem.write_word((1 << 40) - 8, 99)
        assert mem.read_word((1 << 40) - 8) == 99
        assert mem.footprint() == 8
