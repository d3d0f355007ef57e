"""Kernel calibration sweeps: the workload cell's seed-varied kernel runs.

Every workload cell of the evaluation matrix runs a *calibration sweep*:
N single-core instances of the platform's in-order calibration
configuration execute the same cache-walking kernel over seed-varied
memory images, and the cell records their per-instance cycle, energy and
cache profiles.  The summary's checksum covers registers, PC, cycles,
instret, exact energy bits, cache counters, bus counters and memory
footprints per instance.

The kernel's addresses and branch outcomes depend only on public
operands (window base, cursor mask, trip count), never on the seeded
data, so every instance has the same timing.  The default lane rests on
that leakage contract: instance 0 runs on the scalar ``Core`` and
supplies every field the data cannot change, and :func:`replay_lanes`
replays the program over all N instances' data at once, one numpy lane
per instance.  The replay checks the contract as it goes and raises
:class:`ReplayDeclined` when a check fails, upon which the sweep runs
the scalar loop; lane 0 must equal instance 0 or the sweep raises.
``reference=True`` always runs the scalar loop, the oracle, and the two
lanes produce identical summaries.

The calibration configuration preserves the platform's *timing and
energy identity* — its cache latency staircase, associativities, clock
and per-instruction/per-access energy costs — while scaling capacities
to the kernel's footprint and dropping speculation/MMU (which the sweep
does not exercise; the attack suites cover those).
"""

from __future__ import annotations

import hashlib

import numpy as np

import repro.obs as obs
from repro.cache.hierarchy import HierarchyConfig
from repro.common import PlatformClass
from repro.cpu.soc import SoC, SoCConfig
from repro.isa import assemble
from repro.isa.instructions import (
    INSTR_SIZE,
    NUM_REGS,
    WORD_MASK,
    Instruction,
    InstrKind,
)
from repro.isa.program import Program
from repro.memory.phys import WORD_SIZE

#: Window geometry shared by every sweep instance: the kernel walks a
#: stride-24 cursor over a 4 KiB ring (the power-of-two mask) inside the
#: DRAM window; the window extends past the ring far enough to cover the
#: +8 store offset (max touched byte: mask-aligned cursor + 8 + 7).
WINDOW_OFFSET = 0x10000
WINDOW_SIZE = 4608
_CURSOR_MASK = 4095
#: Seed-varied bytes written at the window base per instance.
_SEED_BYTES = 256

#: Instructions per kernel loop iteration (2 of them memory ops).
_LOOP_INSTRS = 13
_PROLOGUE_INSTRS = 8


def sweep_soc_config(platform: PlatformClass) -> SoCConfig:
    """The platform's in-order, single-core calibration configuration.

    Latencies, associativity, clock and energy costs are the platform's
    own (see the factories in :mod:`repro.cpu.soc`); set counts are
    scaled to the sweep kernel's 4 KiB working set so the cache contention
    profile is meaningful rather than all-hit.
    """
    if platform is PlatformClass.EMBEDDED:
        return SoCConfig(
            name="embedded-sweep", platform=platform, num_cores=1,
            speculative=False,
            hierarchy=HierarchyConfig(num_cores=1, l1_sets=4, l1_ways=1,
                                      l2_sets=8, l2_ways=1,
                                      l1_latency=1, l2_latency=2,
                                      dram_latency=10),
            has_mmu=False, dram_size=1 << 24, freq_mhz=50.0,
            energy_per_instr_pj=1.0, energy_per_mem_pj=2.0,
            dvfs_software_controllable=False)
    if platform is PlatformClass.MOBILE:
        return SoCConfig(
            name="mobile-sweep", platform=platform, num_cores=1,
            speculative=False,
            hierarchy=HierarchyConfig(num_cores=1, l1_sets=16, l1_ways=4,
                                      l2_sets=32, l2_ways=8),
            has_mmu=False, freq_mhz=2000.0,
            energy_per_instr_pj=8.0, energy_per_mem_pj=20.0)
    if platform is PlatformClass.SERVER_DESKTOP:
        return SoCConfig(
            name="server-sweep", platform=platform, num_cores=1,
            speculative=False,
            hierarchy=HierarchyConfig(num_cores=1, l1_sets=16, l1_ways=8,
                                      l2_sets=32, l2_ways=16),
            has_mmu=False, freq_mhz=3000.0,
            energy_per_instr_pj=40.0, energy_per_mem_pj=100.0)
    raise ValueError(f"no sweep configuration for {platform!r}")


_kernel_cache: dict[tuple[int, int], Program] = {}


def sweep_kernel(window_base: int, iters: int) -> Program:
    """The calibration kernel: a convergent load/compute/store loop.

    Every instance follows the identical control-flow path (the loop
    trip count is baked in) and touches the identical addresses; the
    *data* — and therefore registers and stored bytes — varies per
    instance through the seeded window image.
    """
    key = (window_base, iters)
    program = _kernel_cache.get(key)
    if program is None:
        program = assemble(f"""
        entry:
            li r11, {window_base}
            li r12, {_CURSOR_MASK}
            li r3, {iters}
            li r7, 7
            li r2, 0
            load r6, 0(r11)
            addi r1, r11, 0
            jmp loop
        loop:
            load r4, 0(r1)
            add r6, r6, r4
            mul r5, r6, r4
            xor r6, r6, r5
            shr r9, r6, r7
            add r6, r6, r9
            store r6, 8(r1)
            addi r2, r2, 1
            addi r1, r1, 24
            sub r10, r1, r11
            and r10, r10, r12
            add r1, r11, r10
            blt r2, r3, loop
            rdcycle r13
            flush 0(r11)
            halt
        """, base=window_base - 0x1000, name=f"sweep-kernel-{iters}")
        _kernel_cache[key] = program
    return program


def _seed_image(seed: int) -> bytes:
    """Deterministic per-instance window image (simple 64-bit LCG)."""
    state = (seed * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) & ((1 << 64) - 1)
    out = bytearray()
    for _ in range(_SEED_BYTES):
        state = (state * 6364136223846793005 + 1442695040888963407) \
            & ((1 << 64) - 1)
        out.append((state >> 33) & 0xFF)
    return bytes(out)


def _instance_seed(base_seed: int, index: int) -> int:
    return base_seed + 0x1000 * index


def build_sweep_instances(platform: PlatformClass, base_seed: int,
                          instances: int, iters: int) -> list[SoC]:
    """``instances`` identically configured, seed-varied sweep SoCs."""
    config = sweep_soc_config(platform)
    socs = []
    for i in range(instances):
        soc = SoC(config)
        window_base = soc.dram_base + WINDOW_OFFSET
        soc.memory.write_bytes(window_base,
                               _seed_image(_instance_seed(base_seed, i)))
        soc.cores[0].load_program(sweep_kernel(window_base, iters),
                                  entry="entry")
        socs.append(soc)
    return socs


def sweep_window(soc: SoC) -> tuple[int, int]:
    """The ``(base, size)`` memory window the kernel confines itself to."""
    return (soc.dram_base + WINDOW_OFFSET, WINDOW_SIZE)


def sweep_max_steps(iters: int) -> int:
    return iters * (_LOOP_INSTRS + 3) + _PROLOGUE_INSTRS + 64


class ReplayDeclined(Exception):
    """The program left the subset :func:`replay_lanes` replays exactly;
    the message names the check that failed and the PC."""


_SHIFT_MASK = np.uint64(63)

_ALU = {
    InstrKind.ADD: np.add,
    InstrKind.SUB: np.subtract,
    InstrKind.AND: np.bitwise_and,
    InstrKind.OR: np.bitwise_or,
    InstrKind.XOR: np.bitwise_xor,
    InstrKind.MUL: np.multiply,
    InstrKind.SHL: lambda a, b: a << (b & _SHIFT_MASK),
    InstrKind.SHR: lambda a, b: a >> (b & _SHIFT_MASK),
}

_BRANCHES = {
    InstrKind.BEQ: np.equal,
    InstrKind.BNE: np.not_equal,
    InstrKind.BLT: np.less,
    InstrKind.BGE: np.greater_equal,
}

#: The source registers each replayed kind reads.
_READS = {
    **{kind: ("rs1", "rs2") for kind in (*_ALU, *_BRANCHES)},
    InstrKind.ADDI: ("rs1",),
    InstrKind.LOAD: ("rs1",),
    InstrKind.STORE: ("rs1", "rs2"),
    InstrKind.FLUSH: ("rs1",),
    InstrKind.LI: (),
    InstrKind.JMP: (),
    InstrKind.RDCYCLE: (),
    InstrKind.HALT: (),
}


def _uniform_address(regs: np.ndarray, instr: Instruction, pc: int) -> int:
    """The effective address, which must be the same in every lane."""
    addrs = regs[instr.rs1] + np.uint64(instr.imm & WORD_MASK)
    if (addrs != addrs[0]).any():
        raise ReplayDeclined(f"data-dependent address at {pc:#x}")
    return int(addrs[0])


def replay_lanes(program: Program, pc: int, windows: np.ndarray, base: int,
                 max_steps: int) -> tuple[np.ndarray, int, frozenset[int]]:
    """Run ``program`` from ``pc`` once per row of ``windows``, at once.

    ``windows`` is an ``(N, size)`` uint8 array holding each lane's
    bytes at ``[base, base + size)``; stores update it in place.  Lanes
    start with zeroed registers, like a fresh ``Core``, and stop at
    ``halt`` or after ``max_steps`` instructions, like ``Core.run``.
    Returns the ``(NUM_REGS, N)`` uint64 registers, the final PC and
    the registers that hold an ``rdcycle`` result: lanes model no
    time, so the caller takes those from a scalar run.

    Raises :class:`ReplayDeclined` unless every load, store and flush
    address and every branch outcome is the same in all lanes, every
    load and store falls inside the window, every opcode is one listed
    in ``_READS``, and no instruction reads an ``rdcycle`` result.
    """
    lanes, size = windows.shape
    regs = np.zeros((NUM_REGS, lanes), dtype=np.uint64)
    timed: set[int] = set()
    decoded = program._decoded
    for _ in range(max_steps):
        entry = decoded.get(pc)
        if entry is None:
            raise ReplayDeclined(f"no instruction at {pc:#x}")
        _, instr, target = entry
        kind = instr.kind
        reads = _READS.get(kind)
        if reads is None:
            raise ReplayDeclined(f"unsupported opcode {kind.value} at {pc:#x}")
        if timed and any(getattr(instr, field) in timed for field in reads):
            raise ReplayDeclined(f"reads an rdcycle result at {pc:#x}")
        rd = instr.rd
        value = None
        next_pc = pc + INSTR_SIZE
        alu = _ALU.get(kind)
        if alu is not None:
            value = alu(regs[instr.rs1], regs[instr.rs2])
        elif kind is InstrKind.ADDI:
            value = regs[instr.rs1] + np.uint64(instr.imm & WORD_MASK)
        elif kind is InstrKind.LI:
            value = np.uint64(instr.imm & WORD_MASK)
        elif kind is InstrKind.LOAD or kind is InstrKind.STORE:
            offset = _uniform_address(regs, instr, pc) - base
            if not 0 <= offset <= size - WORD_SIZE:
                raise ReplayDeclined(f"access outside the window at {pc:#x}")
            span = slice(offset, offset + WORD_SIZE)
            if kind is InstrKind.LOAD:
                value = np.ascontiguousarray(windows[:, span]).view("<u8")[:, 0]
            else:
                windows[:, span] = regs[instr.rs2].astype("<u8").view(
                    np.uint8).reshape(lanes, WORD_SIZE)
        elif kind is InstrKind.FLUSH:
            _uniform_address(regs, instr, pc)
        elif kind in _BRANCHES:
            taken = _BRANCHES[kind](regs[instr.rs1], regs[instr.rs2])
            if taken.any() != taken.all():
                raise ReplayDeclined(f"data-dependent branch at {pc:#x}")
            if taken[0]:
                next_pc = target if target is not None \
                    else program.target_of(instr)
        elif kind is InstrKind.JMP:
            next_pc = target if target is not None \
                else program.target_of(instr)
        elif kind is InstrKind.RDCYCLE:
            value = np.uint64(0)
        else:  # HALT
            break
        if value is not None and rd:
            regs[rd] = value
            if kind is InstrKind.RDCYCLE:
                timed.add(rd)
            else:
                timed.discard(rd)
        pc = next_pc
    return regs, pc, frozenset(timed)


def _replay_sweep(platform: PlatformClass, base_seed: int, instances: int,
                  iters: int, max_steps: int
                  ) -> tuple[SoC, list[list[int]]] | None:
    """Instance 0 run on the scalar core, plus every instance's final
    registers from :func:`replay_lanes`; ``None`` when the replay
    declines."""
    (soc0,) = build_sweep_instances(platform, base_seed, 1, iters)
    core = soc0.cores[0]
    entry = core.pc
    core.run(max_steps=max_steps)
    base, size = sweep_window(soc0)
    windows = np.zeros((instances, size), dtype=np.uint8)
    for i in range(instances):
        windows[i, :_SEED_BYTES] = np.frombuffer(
            _seed_image(_instance_seed(base_seed, i)), dtype=np.uint8)
    try:
        regs, pc, cycle_regs = replay_lanes(core.program, entry, windows,
                                            base, max_steps)
    except ReplayDeclined as declined:
        obs.event("sweep.replay_declined", cat="core", reason=str(declined))
        return None
    lane_regs = regs.T.tolist()
    for lane in lane_regs:
        for r in cycle_regs:
            lane[r] = core.regs[r]
    for field, lane0, scalar in (
            ("registers", lane_regs[0], core.regs), ("pc", pc, core.pc),
            ("window", windows[0].tobytes(),
             soc0.memory.read_bytes(base, size))):
        if lane0 != scalar:
            raise RuntimeError(
                f"sweep replay: lane 0's {field} differs from instance 0's")
    return soc0, lane_regs


def _timing(soc: SoC) -> tuple:
    """Every summarised field but the registers: none depends on data
    when the kernel's addresses and branches do not."""
    core = soc.cores[0]
    l1 = soc.hierarchy.l1s[0].stats
    l2 = soc.hierarchy.l2.stats
    return (core.pc, core.cycles, core.instret, core.energy_pj.hex(),
            core.halted,
            l1.hits, l1.misses, l1.evictions, l1.flushes,
            l2.hits, l2.misses, l2.evictions, l2.flushes,
            soc.bus.transaction_count, soc.bus.denied_count,
            soc.memory.footprint())


def summarise_sweep(rows: list[tuple[list[int], SoC]]) -> dict:
    """Deterministic, JSON-safe digest of per-instance final state.

    Each row is one instance's registers and the SoC whose timing it
    reports: its own on the scalar loop, instance 0's on the replay.
    The checksum hashes everything the bit-identity contract covers —
    registers, PC, cycles, instret, the exact energy bits
    (``float.hex``), per-level cache counters, bus transaction counts
    and the memory footprint — so the two lanes produce equal
    summaries iff they are observation-equivalent.
    """
    digest = hashlib.sha256()
    for regs, soc in rows:
        digest.update(repr((tuple(regs), *_timing(soc))).encode())
    cores = [soc.cores[0] for _, soc in rows]
    return {
        "instances": len(rows),
        "cycles": [core.cycles for core in cores],
        "energy_pj": [core.energy_pj for core in cores],
        "l1_misses": [soc.hierarchy.l1s[0].stats.misses for _, soc in rows],
        "checksum": digest.hexdigest(),
    }


def run_kernel_sweep(platform: PlatformClass, base_seed: int,
                     instances: int, iters: int,
                     reference: bool = False) -> dict:
    """Build, run and summarise one platform's calibration sweep.

    The default lane is instance 0 on the scalar core plus
    :func:`replay_lanes` for every instance's data; a declined replay
    falls back to the scalar loop.  ``reference=True`` is the scalar
    loop, the oracle.  Summaries are identical between the two.
    """
    max_steps = sweep_max_steps(iters)
    replayed = None
    if not reference and instances:
        replayed = _replay_sweep(platform, base_seed, instances, iters,
                                 max_steps)
    if replayed is None:
        socs = build_sweep_instances(platform, base_seed, instances, iters)
        for soc in socs:
            soc.cores[0].run(max_steps=max_steps)
        rows = [(soc.cores[0].regs, soc) for soc in socs]
    else:
        soc0, lane_regs = replayed
        rows = [(regs, soc0) for regs in lane_regs]
    summary = summarise_sweep(rows)
    summary["platform"] = platform.value
    summary["iters"] = iters
    return summary
