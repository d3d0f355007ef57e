"""Kernel calibration sweeps: the matrix's ensemble-execution workload.

Every workload cell of the evaluation matrix runs a *calibration sweep*:
N single-core instances of the platform's in-order calibration
configuration execute the same cache-walking kernel over seed-varied
memory images, and the cell records their per-instance cycle, energy and
cache profiles.  This is the paper's "how does the platform behave under
load" measurement scaled to many seeds — and it is embarrassingly
data-parallel, which makes it the natural consumer of the ensemble
execution engine (:mod:`repro.cpu.ensemble`): ``ensemble=True`` advances
all N instances in lockstep numpy arrays, ``ensemble=False`` runs the
retained scalar loop, and the two must produce **identical** summaries
(the checksum covers registers, cycles, instret, exact energy bits,
cache counters, bus counters and memory footprints per instance).

The calibration configuration preserves the platform's *timing and
energy identity* — its cache latency staircase, associativities, clock
and per-instruction/per-access energy costs — while scaling capacities
to the kernel's footprint and dropping speculation/MMU (which the sweep
does not exercise; the attack suites cover those).  The scalar and
ensemble paths both build the same SoCs, so the knob is observation-
equivalent by construction and proven so by the differential suite.
"""

from __future__ import annotations

import hashlib

from repro.cache.hierarchy import HierarchyConfig
from repro.common import PlatformClass
from repro.cpu.ensemble import CoreEnsemble
from repro.cpu.soc import SoC, SoCConfig
from repro.isa import assemble
from repro.isa.program import Program

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
    trip count is baked in), so an ensemble executes each step as a
    single opcode group; the *data* — and therefore registers, stored
    bytes, and (via platform geometry) hit/miss behaviour — varies per
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


def build_sweep_instances(platform: PlatformClass, base_seed: int,
                          instances: int, iters: int) -> list[SoC]:
    """``instances`` identically configured, seed-varied sweep SoCs."""
    config = sweep_soc_config(platform)
    socs = []
    for i in range(instances):
        soc = SoC(config)
        window_base = soc.dram_base + WINDOW_OFFSET
        soc.memory.write_bytes(window_base,
                               _seed_image(base_seed + 0x1000 * i))
        soc.cores[0].load_program(sweep_kernel(window_base, iters),
                                  entry="entry")
        socs.append(soc)
    return socs


def sweep_window(soc: SoC) -> tuple[int, int]:
    """The ``(base, size)`` memory window the kernel confines itself to."""
    return (soc.dram_base + WINDOW_OFFSET, WINDOW_SIZE)


def sweep_max_steps(iters: int) -> int:
    return iters * (_LOOP_INSTRS + 3) + _PROLOGUE_INSTRS + 64


def summarise_sweep(socs: list[SoC]) -> dict:
    """Deterministic, JSON-safe digest of per-instance final state.

    The checksum hashes everything the bit-identity contract covers —
    registers, PC, cycles, instret, the exact energy bits
    (``float.hex``), per-level cache counters, bus transaction counts
    and the memory footprint — so scalar and ensemble runs produce
    equal summaries iff they are observation-equivalent.
    """
    cycles, energy, l1_misses = [], [], []
    digest = hashlib.sha256()
    for soc in socs:
        core = soc.cores[0]
        l1 = soc.hierarchy.l1s[0].stats
        l2 = soc.hierarchy.l2.stats
        record = (
            tuple(core.regs), core.pc, core.cycles, core.instret,
            core.energy_pj.hex(), core.halted,
            l1.hits, l1.misses, l1.evictions, l1.flushes,
            l2.hits, l2.misses, l2.evictions, l2.flushes,
            soc.bus.transaction_count, soc.bus.denied_count,
            soc.memory.footprint(),
        )
        digest.update(repr(record).encode())
        cycles.append(core.cycles)
        energy.append(core.energy_pj)
        l1_misses.append(l1.misses)
    return {
        "instances": len(socs),
        "cycles": cycles,
        "energy_pj": energy,
        "l1_misses": l1_misses,
        "checksum": digest.hexdigest(),
    }


def run_kernel_sweep(platform: PlatformClass, base_seed: int,
                     instances: int, iters: int,
                     ensemble: bool = True) -> dict:
    """Build, run and summarise one platform's calibration sweep.

    ``ensemble=True`` (the default) routes execution through
    :class:`CoreEnsemble` (scalar peel-off included, though this kernel
    never peels); ``ensemble=False`` is the scalar oracle loop.
    Summaries are bit-identical between the two — that equality is the
    determinism check the CI pipeline runs.
    """
    socs = build_sweep_instances(platform, base_seed, instances, iters)
    max_steps = sweep_max_steps(iters)
    if socs:
        if ensemble:
            CoreEnsemble([soc.cores[0] for soc in socs],
                         window=sweep_window(socs[0])).run(
                             max_steps=max_steps)
        else:
            for soc in socs:
                soc.cores[0].run(max_steps=max_steps)
    summary = summarise_sweep(socs)
    summary["platform"] = platform.value
    summary["iters"] = iters
    return summary
