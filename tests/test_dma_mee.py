"""DMA engine, Sanctum's DMA filter, and the memory encryption engine."""

import pytest

from repro.crypto.rng import XorShiftRNG
from repro.errors import AccessFault, SecurityViolation
from repro.memory.bus import BusMaster, BusTransaction, SystemBus
from repro.memory.dma import DMAEngine, DMAFilter
from repro.memory.mee import MemoryEncryptionEngine, _splitmix64
from repro.memory.phys import PhysicalMemory
from repro.memory.regions import standard_layout

CPU = BusMaster("core0", kind="cpu", secure_capable=True)


class TestDMAEngine:
    def test_read_write(self, bus):
        engine = DMAEngine(bus, "nic")
        engine.write(0x8000_0000, b"payload!")
        assert engine.read(0x8000_0000, 8) == b"payload!"

    def test_transfer_copies(self, bus):
        engine = DMAEngine(bus, "nic")
        bus.memory.write_bytes(0x8000_0000, bytes(range(200)))
        record = engine.transfer(0x8000_0000, 0x8100_0000, 200)
        assert record.ok
        assert bus.memory.read_bytes(0x8100_0000, 200) == bytes(range(200))

    def test_transfer_denial_recorded_not_raised(self, bus):
        bus.add_controller("nodma", DMAFilter(0x8000_0000, 0x1000))
        engine = DMAEngine(bus, "nic")
        record = engine.transfer(0x8000_0000, 0x8200_0000, 64)
        assert not record.ok
        assert "whitelist" in record.reason
        assert engine.history[-1] is record

    def test_master_kind_is_dma(self, bus):
        assert DMAEngine(bus).master.kind == "dma"


class TestDMAFilter:
    def test_confines_dma_to_window(self, bus):
        bus.add_controller("filter", DMAFilter(0x8000_0000, 0x1000))
        engine = DMAEngine(bus, "nic")
        engine.read(0x8000_0000, 64)  # inside window
        with pytest.raises(AccessFault):
            engine.read(0x8000_1000, 64)  # outside

    def test_cpu_not_filtered(self, bus):
        bus.add_controller("filter", DMAFilter(0x8000_0000, 0x1000))
        bus.read_word(CPU, 0x8800_0000)  # CPUs pass freely

    def test_straddling_burst_denied(self, bus):
        bus.add_controller("filter", DMAFilter(0x8000_0000, 0x1000))
        engine = DMAEngine(bus, "nic")
        with pytest.raises(AccessFault):
            engine.read(0x8000_0FFC, 8)


@pytest.fixture
def mee_bus():
    memory = PhysicalMemory(size=1 << 34)
    bus = SystemBus(memory, standard_layout())
    mee = MemoryEncryptionEngine(0x8000_0000, 0x10_0000, key=0xFEED)
    bus.add_transform("mee", mee)
    bus.add_controller("mee", mee)
    return bus, memory, mee


class TestMEE:
    def test_cpu_roundtrip_transparent(self, mee_bus):
        bus, _, _ = mee_bus
        bus.write_word(CPU, 0x8000_0000, 0x1122334455667788)
        assert bus.read_word(CPU, 0x8000_0000) == 0x1122334455667788

    def test_dram_holds_ciphertext(self, mee_bus):
        bus, memory, _ = mee_bus
        bus.write_word(CPU, 0x8000_0000, 0x1122334455667788)
        assert memory.read_word(0x8000_0000) != 0x1122334455667788

    def test_outside_range_plaintext(self, mee_bus):
        bus, memory, _ = mee_bus
        bus.write_word(CPU, 0x8100_0000, 0xABCD)
        assert memory.read_word(0x8100_0000) == 0xABCD

    def test_dma_aborted(self, mee_bus):
        bus, _, _ = mee_bus
        engine = DMAEngine(bus, "nic")
        with pytest.raises(AccessFault, match="aborted"):
            engine.read(0x8000_0000, 64)

    def test_dma_straddling_boundary_aborted(self, mee_bus):
        bus, _, mee = mee_bus
        engine = DMAEngine(bus, "nic")
        with pytest.raises(AccessFault):
            engine.read(mee.end - 8, 16)

    def test_tamper_detected(self, mee_bus):
        bus, memory, mee = mee_bus
        bus.write_word(CPU, 0x8000_0000, 42)
        # Physical attacker flips a stored ciphertext bit.
        raw = memory.read_word(0x8000_0000)
        memory.write_word(0x8000_0000, raw ^ 1)
        with pytest.raises(SecurityViolation, match="integrity"):
            bus.read_word(CPU, 0x8000_0000)
        assert mee.integrity_failures == 1

    def test_never_written_reads_decrypt_garbage_without_fault(self, mee_bus):
        bus, _, _ = mee_bus
        # No tag exists yet: reads pass (and yield keystream garbage).
        bus.read_word(CPU, 0x8000_0040)

    def test_different_lines_different_ciphertext(self, mee_bus):
        bus, memory, _ = mee_bus
        bus.write_word(CPU, 0x8000_0000, 0x42)
        bus.write_word(CPU, 0x8000_0040, 0x42)
        assert memory.read_word(0x8000_0000) != memory.read_word(0x8000_0040)

    def test_unaligned_protected_access_rejected(self, mee_bus):
        bus, _, _ = mee_bus
        txn = BusTransaction(CPU, 0x8000_0003, "read", 8)
        with pytest.raises(SecurityViolation, match="word-aligned"):
            bus.read(txn)

    def test_counters(self, mee_bus):
        bus, _, mee = mee_bus
        bus.write_word(CPU, 0x8000_0000, 1)
        bus.read_word(CPU, 0x8000_0000)
        assert mee.encrypted_writes == 1
        assert mee.decrypted_reads == 1

    def test_word_cipher_matches_per_line_keystream_formula(self, mee_bus):
        # One cipher serves the bus hooks and the page mover; it must XOR
        # exactly like the per-line byte keystream it models: counter
        # word i of line L is splitmix64(key ^ splitmix64(L ^ i)).
        bus, memory, mee = mee_bus

        def keystream(line_addr):
            return b"".join(
                _splitmix64(mee._key ^ _splitmix64(line_addr ^ counter))
                .to_bytes(8, "little") for counter in range(8))

        def reference(addr, data):
            out = bytearray()
            offset = 0
            while offset < len(data):
                line_addr = (addr + offset) & ~63
                in_line = (addr + offset) - line_addr
                take = min(64 - in_line, len(data) - offset)
                stream = keystream(line_addr)
                out.extend(b ^ s for b, s in zip(
                    data[offset:offset + take],
                    stream[in_line:in_line + take]))
                offset += take
            return bytes(out)

        rng = XorShiftRNG(0x3E3)
        for _ in range(300):
            addr = mee.base + 8 * rng.next_below(mee.size // 8 - 32)
            count = 1 + rng.next_below(25)  # spans 1-5 lines
            data = rng.bytes(8 * count)
            addrs = range(addr, addr + 8 * count, 8)
            words = [int.from_bytes(data[i:i + 8], "little")
                     for i in range(0, len(data), 8)]
            sealed = mee.seal_words(addrs, words)
            assert b"".join(word.to_bytes(8, "little")
                            for word in sealed) == reference(addr, data)
            assert mee.open_words(addrs, sealed) == words
            # The bus hooks use the same cipher.
            bus.write(BusTransaction(CPU, addr, "write", len(data)), data)
            assert memory.read_bytes(addr, len(data)) == reference(addr, data)
            assert bus.read(BusTransaction(CPU, addr, "read",
                                           len(data))) == data
