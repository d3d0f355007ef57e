"""SoC-level SMT TLB side channel: the full-path version of ref [15].

This file drives the TLB contention channel through the *complete*
machine: two hardware threads sharing one TLB (the server SoC's SMT
pair), victim and attacker each running with real page tables, the
attacker measuring its own translation latency via core cycle counts.
"""

import pytest

from repro.common import PrivilegeLevel
from repro.cpu import make_server_soc
from repro.memory.paging import PAGE_SIZE, PageFlags

USER = PageFlags.PRESENT | PageFlags.USER | PageFlags.WRITABLE


@pytest.fixture
def smt_setup():
    soc = make_server_soc()
    assert soc.tlbs[0] is soc.tlbs[1]  # the SMT pair shares its TLB
    victim_core, attacker_core = soc.cores[0], soc.cores[1]

    victim_table = soc.make_page_table(asid=1)
    attacker_table = soc.make_page_table(asid=2)
    dram = soc.regions.get("dram")

    # Victim: two secret-selected pages, colliding with different TLB sets.
    tlb_sets = soc.config.tlb_sets
    victim_pages = [dram.base + 0x100_0000,
                    dram.base + 0x100_0000 + PAGE_SIZE]
    for va in victim_pages:
        victim_table.map(va & 0x3FFF_FFFF, va, USER)

    # Attacker: `ways` pages per victim page, same TLB set each.
    attacker_sets = []
    for page in victim_pages:
        vset = (page >> 12) % tlb_sets
        pages = []
        base = dram.base + 0x200_0000 + vset * PAGE_SIZE
        stride = tlb_sets * PAGE_SIZE
        for i in range(soc.config.tlb_ways):
            va = base + i * stride
            attacker_table.map(va & 0x3FFF_FFFF, va, USER)
            pages.append(va & 0x3FFF_FFFF)
        attacker_sets.append(pages)

    def victim_step(bit: int) -> None:
        victim_core.mmu.set_context(victim_table.root, asid=1)
        victim_core.privilege = PrivilegeLevel.USER
        victim_core.read_mem(victim_pages[bit] & 0x3FFF_FFFF)

    return (soc, victim_step, attacker_sets, attacker_core,
            attacker_table)


def _probe_walks(soc, attacker_core, attacker_table, pages) -> int:
    """Re-touch attacker pages; count page-table walks (TLB misses)."""
    attacker_core.mmu.set_context(attacker_table.root, asid=2)
    attacker_core.privilege = PrivilegeLevel.USER
    before = attacker_core.mmu.walk_count
    for va in pages:
        attacker_core.read_mem(va)
    return attacker_core.mmu.walk_count - before


class TestSMTTLBChannel:
    def test_victim_translation_evicts_attacker_entry(self, smt_setup):
        soc, victim_step, attacker_sets, core, table = smt_setup
        # Prime both monitored sets.
        core.mmu.set_context(table.root, asid=2)
        core.privilege = PrivilegeLevel.USER
        for pages in attacker_sets:
            for va in pages:
                core.read_mem(va)
        # Victim touches page 0: its translation lands in set 0,
        # displacing one attacker entry there.
        victim_step(0)
        walks0 = _probe_walks(soc, core, table, attacker_sets[0])
        walks1 = _probe_walks(soc, core, table, attacker_sets[1])
        assert walks0 > walks1

    def test_secret_bits_recovered_end_to_end(self, smt_setup):
        soc, victim_step, attacker_sets, core, table = smt_setup
        secret = [1, 0, 1, 1, 0, 1, 0, 0]
        guessed = []
        for bit in secret:
            core.mmu.set_context(table.root, asid=2)
            core.privilege = PrivilegeLevel.USER
            for pages in attacker_sets:
                for va in pages:
                    core.read_mem(va)
            victim_step(bit)
            walks = [
                _probe_walks(soc, core, table, attacker_sets[0]),
                _probe_walks(soc, core, table, attacker_sets[1]),
            ]
            guessed.append(0 if walks[0] > walks[1] else 1)
        assert guessed == secret

    def test_separate_tlbs_close_the_channel(self):
        """Cores 2 and 3 of the server SoC have private TLBs."""
        soc = make_server_soc()
        assert soc.tlbs[2] is not soc.tlbs[3]
        dram = soc.regions.get("dram")
        victim_table = soc.make_page_table(asid=1)
        attacker_table = soc.make_page_table(asid=2)
        victim_va = 0x100_0000
        victim_table.map(victim_va, dram.base + 0x100_0000, USER)
        attacker_vas = []
        tlb_sets = soc.config.tlb_sets
        vset = (victim_va >> 12) % tlb_sets
        for i in range(soc.config.tlb_ways):
            va = 0x200_0000 + vset * PAGE_SIZE \
                + i * tlb_sets * PAGE_SIZE
            attacker_table.map(va, dram.base + 0x200_0000
                               + i * PAGE_SIZE, USER)
            attacker_vas.append(va)

        attacker = soc.cores[3]
        attacker.mmu.set_context(attacker_table.root, asid=2)
        attacker.privilege = PrivilegeLevel.USER
        for va in attacker_vas:
            attacker.read_mem(va)

        victim = soc.cores[2]
        victim.mmu.set_context(victim_table.root, asid=1)
        victim.privilege = PrivilegeLevel.USER
        victim.read_mem(victim_va)

        attacker.mmu.set_context(attacker_table.root, asid=2)
        attacker.privilege = PrivilegeLevel.USER
        before = attacker.mmu.walk_count
        for va in attacker_vas:
            attacker.read_mem(va)
        assert attacker.mmu.walk_count == before  # nothing displaced
