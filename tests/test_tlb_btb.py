"""TLB and BTB cache structures."""

import pytest

from repro.cache.btb import BranchTargetBuffer
from repro.cache.tlb import TLB
from repro.memory.paging import PAGE_SIZE, PageFlags

P = PageFlags.PRESENT


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(num_sets=4, ways=2)
        assert tlb.lookup(1, 0x4000) is None
        tlb.insert(1, 0x4000, 0x9000, P)
        assert tlb.lookup(1, 0x4000) == (0x9000, P)
        assert tlb.hits == 1 and tlb.misses == 1

    def test_asid_isolation(self):
        tlb = TLB()
        tlb.insert(1, 0x4000, 0x9000, P)
        assert tlb.lookup(2, 0x4000) is None

    def test_global_entries_cross_asid(self):
        tlb = TLB()
        tlb.insert(1, 0x4000, 0x9000, P | PageFlags.GLOBAL)
        assert tlb.lookup(2, 0x4000) is not None

    def test_set_contention_evicts(self):
        tlb = TLB(num_sets=4, ways=2)
        base = 0x4000  # set index = (va>>12) % 4
        stride = 4 * PAGE_SIZE  # same set
        tlb.insert(1, base, 0x9000, P)
        evicted = tlb.insert(1, base + stride, 0xA000, P)
        assert evicted is None
        evicted = tlb.insert(1, base + 2 * stride, 0xB000, P)
        assert evicted == base  # LRU displaced
        assert tlb.peek(1, base) is None

    def test_refill_same_page_updates_in_place(self):
        tlb = TLB(num_sets=4, ways=2)
        tlb.insert(1, 0x4000, 0x9000, P)
        assert tlb.insert(1, 0x4000, 0xC000, P) is None
        assert tlb.lookup(1, 0x4000)[0] == 0xC000

    def test_flush_all(self):
        tlb = TLB()
        tlb.insert(1, 0x4000, 0x9000, P)
        tlb.insert(2, 0x5000, 0xA000, P)
        assert tlb.flush() == 2
        assert tlb.lookup(1, 0x4000) is None

    def test_flush_asid_spares_globals(self):
        tlb = TLB()
        tlb.insert(1, 0x4000, 0x9000, P)
        tlb.insert(1, 0x5000, 0xA000, P | PageFlags.GLOBAL)
        tlb.insert(2, 0x6000, 0xB000, P)
        assert tlb.flush(asid=1) == 1
        assert tlb.peek(1, 0x5000) is not None
        assert tlb.peek(2, 0x6000) is not None

    def test_latency_model(self):
        tlb = TLB(hit_latency=1, miss_penalty=20)
        assert tlb.access_latency(True) == 1
        assert tlb.access_latency(False) == 20

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            TLB(num_sets=0)


class TestBTB:
    def test_miss_then_predict(self):
        btb = BranchTargetBuffer()
        assert btb.predict(0x1000) is None
        btb.update(0x1000, 0x2000)
        assert btb.predict(0x1000) == 0x2000

    def test_update_overwrites(self):
        btb = BranchTargetBuffer()
        btb.update(0x1000, 0x2000)
        btb.update(0x1000, 0x3000)
        assert btb.predict(0x1000) == 0x3000

    def test_untagged_btb_aliases_across_asids(self):
        btb = BranchTargetBuffer(tag_with_asid=False)
        btb.update(0x1000, 0x2000, asid=7)
        # Victim in another address space sees the attacker's entry.
        assert btb.predict(0x1000, asid=1) == 0x2000

    def test_tagged_btb_isolates_asids(self):
        btb = BranchTargetBuffer(tag_with_asid=True)
        btb.update(0x1000, 0x2000, asid=7)
        assert btb.predict(0x1000, asid=1) is None
        assert btb.predict(0x1000, asid=7) == 0x2000

    def test_aliasing_pc_collides(self):
        btb = BranchTargetBuffer(num_sets=64, tag_bits=8)
        victim_pc = 0x8000_2008
        shadow = btb.aliasing_pc(victim_pc, 0x4000_0000)
        assert shadow != victim_pc
        assert shadow >= 0x4000_0000
        btb.update(shadow, 0xCAFE)
        assert btb.predict(victim_pc) == 0xCAFE

    def test_flush(self):
        btb = BranchTargetBuffer()
        btb.update(0x1000, 0x2000)
        btb.update(0x2000, 0x3000)
        assert btb.flush() == 2
        assert not btb.contains(0x1000)

    def test_set_capacity_lru(self):
        btb = BranchTargetBuffer(num_sets=4, ways=2, tag_bits=8)
        period = 1 << (2 + 2 + 8)  # same index+tag period
        # Three distinct-tag branches in one set of two ways.
        base = 0x1000
        stride = 4 * 4  # next set... keep same set: stride = sets*4
        same_set = [base, base + 4 * 4 * 4, base + 2 * 4 * 4 * 4]
        for i, pc in enumerate(same_set):
            btb.update(pc, 0x100 + i)
        assert not btb.contains(same_set[0])
        assert btb.contains(same_set[1])
        assert btb.contains(same_set[2])

    def test_power_of_two_sets_required(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(num_sets=48)
