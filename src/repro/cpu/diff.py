"""Lockstep differential harness for the CPU engine.

The predecoded-dispatch core is held to *observation equivalence* with
the retained reference interpreter (:mod:`repro.cpu.reference`): both
sides must agree on every architecturally visible quantity **and**
every side-channel-visible one, as named by :func:`soc_observables`.

* :func:`reference_twin` — build the reference-interpreter twin of a SoC;
* :func:`lockstep` — step two SoCs' first cores instruction by
  instruction, comparing the whole SoC after every step and raising
  :class:`~repro.lockstep.Divergence` at the first mismatch (the
  message names the step and the observable);
* :func:`compare_socs` — whole-system comparison after both sides ran.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from typing import Any

from repro.cpu.exceptions import Trap, TrapInfo
from repro.cpu.soc import SoC
from repro.lockstep import compare


def _trap_key(info: TrapInfo | None) -> tuple | None:
    if info is None:
        return None
    return (info.cause, info.pc, info.value, info.detail)


def soc_observables(soc: SoC) -> dict[str, Any]:
    """Every observable a fast lane must leave bit-identical, by name.

    Per core: architectural state, accounting, privilege/world/domain,
    traps and the speculative L1 view.  Per cache level: tags, line
    tuples, LRU stamps and stats.  Then TLBs, MMU contexts, bus and MEE
    counters, world/DVFS state and the sparse memory image.
    """
    obs: dict[str, Any] = {}
    for core in soc.cores:
        obs[core.config.name] = {
            "pc": core.pc, "regs": tuple(core.regs), "halted": core.halted,
            "csrs": dict(core.csr), "cycles": core.cycles,
            "instret": core.instret, "energy_pj": core.energy_pj,
            "privilege": core.privilege, "world": core.world,
            "domain": core.domain, "trap_count": len(core.trap_log),
            "last_trap": _trap_key(core.last_trap),
            "l1_view": dict(getattr(core, "_l1_view", None) or {})}
    for cache in (*soc.hierarchy.l1s, soc.hierarchy.l2):
        stats = cache.stats
        # Every set, untouched ones as the pristine state they read as,
        # so allocating a set without changing it changes nothing here.
        states = cache.set_states()
        obs[cache.name] = {
            "tags": [tuple(st.tags) for st in states],
            # Flat, row-major over (set, way): one pass instead of one
            # comprehension per set, since lockstep snapshots every step.
            "lines": [None if ln is None
                      else (ln.tag, ln.addr, ln.domain, ln.dirty)
                      for ln in chain.from_iterable(
                          st.lines for st in states)],
            "lru": [(st.policy._stamp, tuple(st.policy._last_use))
                    for st in states],
            "stats": (stats.hits, stats.misses, stats.evictions,
                      stats.flushes)}
    for core, mmu, tlb in zip(soc.cores, soc.mmus, soc.tlbs):
        obs[f"mmu-{core.config.name}"] = {
            "root": mmu.root, "asid": mmu.asid, "walks": mmu.walk_count}
        if tlb is not None:
            obs[f"tlb-{core.config.name}"] = {
                "entries": [[None if e is None
                             else (e.asid, e.vpn, e.paddr, e.flags, e.stamp)
                             for e in entries] for entries in tlb._sets],
                "stamp": tlb._stamp, "hits": tlb.hits, "misses": tlb.misses}
    bus = soc.bus
    obs["bus"] = {"transactions": bus.transaction_count,
                  "denied": bus.denied_count}
    obs["mee"] = {name: (t.encrypted_writes, t.decrypted_reads,
                         t.integrity_failures)
                  for name, t in bus._transforms}
    obs["worlds"] = dict(soc.world_state._worlds)
    obs["dvfs_secure"] = sorted(soc.dvfs.secure_active_cores)
    obs["memory"] = dict(soc.memory._bytes)
    return obs


def reference_twin(soc: SoC) -> SoC:
    """A freshly built SoC identical to ``soc`` but running the oracle."""
    return SoC(replace(soc.config, interpreter="reference"))


def compare_socs(fast: SoC, ref: SoC, field: str = "soc") -> None:
    """Whole-system comparison through :func:`soc_observables`."""
    compare(field, soc_observables(fast), soc_observables(ref))


def lockstep(fast: SoC, ref: SoC, max_steps: int = 4096) -> int:
    """Step both SoCs' first cores together, comparing after every
    instruction.

    A trap escaping to Python must escape on *both* sides, at the same
    step, with the same trap frame.  Returns the number of steps run.
    """
    for step in range(max_steps):
        outcomes = []
        for core in (fast.cores[0], ref.cores[0]):
            try:
                outcomes.append((core.step(), None))
            except Trap as trap:
                outcomes.append((False, _trap_key(trap.info)))
        (fast_more, fast_trap), (ref_more, ref_trap) = outcomes
        compare(f"step {step}: escaped trap", fast_trap, ref_trap)
        compare_socs(fast, ref, f"step {step}: soc")
        compare(f"step {step}: step() continue flag", fast_more, ref_more)
        if fast_trap is not None or not fast_more:
            return step + 1
    return max_steps
