"""Ensemble execution engine: N scalar cores advanced in lockstep arrays.

The evaluation matrix spends its time advancing many *independent*
``(seed, config)`` SoC instances through the same small programs, one
scalar interpreter at a time.  This module refactors the hot
architectural state of those instances — register file, PC, cycle and
retirement counters, energy accumulator, cache hierarchy (via
:class:`repro.cache.ensemble.HierarchyEnsemble`) and a bounded memory
window — into struct-of-arrays form and advances all of them with one
vectorized step: group the live instances by the opcode their PC
predecodes to, gather the per-instance operands for each group, apply
the group's numpy handler, scatter the results.  Control-flow divergence
is tolerated by construction (grouping is by *opcode*, not by PC), and
the predecoded dispatch tuples built by :class:`repro.isa.program.Program`
are the substrate: the per-program ``_decoded`` table is flattened once
into dense opcode/operand/target arrays shared by every instance running
that program.

**Peel-off.**  The scalar :class:`~repro.cpu.core.Core` stays the
reference oracle, and anything the arrays cannot reproduce bit for bit
peels off to it automatically: speculation (any ``Core`` subclass), MMU
page tables or TLB timing, metrics or control-flow collectors, pending
interrupts, ECALL/CSR instructions, jumps to statically unknown targets,
fetches that leave the program, and memory traffic outside the window or
over a non-trivial bus.  Peeling is *permanent* for the run: the
instance's array state is scattered back into its scalar objects and
``core.run()`` finishes the remaining step budget, so the observable
outcome is exactly the scalar outcome by construction.  A peeled
instance that traps has its :class:`~repro.cpu.exceptions.TrapInfo`
recorded in the report rather than aborting the siblings — the one
documented deviation from calling ``core.run()`` yourself.

**Bit-identity contract.**  For instances that never peel, every
observable named by :func:`repro.cpu.diff.soc_observables` — registers,
PC, CSRs, traps, cycles, instret, energy (same IEEE accumulation order),
cache tags, lines, LRU stamps and counters at every level, TLB, MMU, bus
and MEE state, and sparse physical-memory contents (stores scatter
exactly the bytes a scalar store would have written) — matches the
scalar run bit for bit.
``tests/test_ensemble_differential.py`` enforces this with the same
hypothesis program generator the fast-vs-reference suite uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.ensemble import HierarchyEnsemble
from repro.common import PrivilegeLevel, World
from repro.cpu.core import Core
from repro.cpu.exceptions import Trap, TrapInfo
from repro.isa.instructions import OPCODES, InstrKind, WORD_MASK
from repro.isa.program import Program

_U64 = np.uint64

_OP_LOAD = OPCODES[InstrKind.LOAD]
_OP_STORE = OPCODES[InstrKind.STORE]
_OP_FLUSH = OPCODES[InstrKind.FLUSH]
_OP_JMP = OPCODES[InstrKind.JMP]
_OP_JAL = OPCODES[InstrKind.JAL]
_OP_RET = OPCODES[InstrKind.RET]
_OP_RDCYCLE = OPCODES[InstrKind.RDCYCLE]
_OP_HALT = OPCODES[InstrKind.HALT]
_ALU_OPS = {OPCODES[k]: k for k in (
    InstrKind.ADD, InstrKind.SUB, InstrKind.AND, InstrKind.OR,
    InstrKind.XOR, InstrKind.SHL, InstrKind.SHR, InstrKind.MUL)}
_BRANCH_OPS = {OPCODES[k]: k for k in (
    InstrKind.BEQ, InstrKind.BNE, InstrKind.BLT, InstrKind.BGE)}
_PC_REL_OPS = tuple(OPCODES[k] for k in (
    InstrKind.NOP, InstrKind.FENCE))

#: Slot-count ceiling for one flattened program (guards against merged
#: programs whose address span dwarfs their instruction count).
_MAX_SLOTS = 1 << 16


@dataclass
class EnsembleReport:
    """Outcome of one :meth:`CoreEnsemble.run` call."""

    #: Vectorized steps executed (== the per-instance retirement budget
    #: consumed by instances that stayed on the array path throughout).
    steps: int
    #: Per instance: True once it left the array path for good.
    peeled: list[bool]
    #: Why each peeled instance left (None while on the array path).
    peel_reasons: list[str | None]
    #: Trap raised by a peeled instance's scalar run, if any.  Unlike a
    #: direct ``core.run()`` the ensemble does not propagate it — one
    #: instance's fault must not abort its siblings.
    traps: list[TrapInfo | None]
    #: Per-instance cycle delta over this call (scalar-visible cycles).
    cycles: list[int]


def _static_blocker(core: Core) -> str | None:
    """Why ``core`` must run scalar from the start (``None`` = vector-ok)."""
    if type(core) is not Core:
        return f"core subclass {type(core).__name__} (speculation)"
    if core.mmu.root is not None:
        return "MMU page tables active"
    if core.mmu.tlb is not None:
        return "TLB timing model active"
    if core.metrics is not None:
        return "metrics registry attached"
    if core.cflow_collector is not None:
        return "control-flow collector attached"
    if core.domain is not None:
        return "cache security domain set"
    if core.privilege is not PrivilegeLevel.KERNEL:
        return "non-kernel privilege"
    if core.world is not World.NORMAL:
        return "non-normal world"
    return None


def _flatten_program(program: Program | None):
    """Dense ``(op, rd, rs1, rs2, imm, target)`` arrays over the program's
    address span, or ``None`` when the span cannot be flattened (the
    owning instances then peel at their first fetch, which reproduces the
    scalar trap/step path exactly)."""
    if program is None:
        return None
    decoded = program._decoded
    if not decoded:
        return None
    base = min(decoded)
    span = max(decoded) - base + 4
    if span % 4 or any((addr - base) % 4 for addr in decoded):
        return None
    nslots = span // 4
    if nslots > max(_MAX_SLOTS, 8 * len(decoded)):
        return None
    op = np.full(nslots, -1, dtype=np.int64)
    rd = np.zeros(nslots, dtype=np.int64)
    rs1 = np.zeros(nslots, dtype=np.int64)
    rs2 = np.zeros(nslots, dtype=np.int64)
    imm = np.zeros(nslots, dtype=_U64)
    tgt = np.full(nslots, -1, dtype=np.int64)
    for addr, (opcode, instr, target) in decoded.items():
        slot = (addr - base) // 4
        op[slot] = opcode
        rd[slot] = instr.rd
        rs1[slot] = instr.rs1
        rs2[slot] = instr.rs2
        imm[slot] = instr.imm & WORD_MASK
        tgt[slot] = -1 if target is None else target
    return base, span, op, rd, rs1, rs2, imm, tgt


def _window_blocker(core: Core, window: tuple[int, int] | None) -> str | None:
    """Why loads/stores cannot use the array memory window."""
    if window is None:
        return "no memory window configured"
    base, size = window
    if size < 8:
        return "window smaller than one word"
    bus = core.bus
    if bus._controllers or bus._snoopers or bus._transforms:
        return "bus has controllers/snoopers/transforms"
    if base < 0 or base + size > bus.memory.size:
        return "window outside physical memory"
    region = bus.regions.find(base)
    if region is None or base + size > region.end:
        return "window not contained in one region"
    if region.device or not region.cacheable or not region.perms.write:
        return "window region is device/uncached/read-only"
    return None


class CoreEnsemble:
    """Advance N scalar :class:`~repro.cpu.core.Core` instances in lockstep.

    ``window=(base, size)`` optionally names one physical range per
    instance (the same range on every instance's private memory) whose
    bytes are mirrored into a ``(N, size)`` arena so loads and stores
    vectorize; traffic outside it peels.  Instances must not share
    hierarchies, buses or memories — the ensemble owns their state
    between :meth:`run` and :meth:`sync`, and cross-instance sharing
    would make the scatter order observable.
    """

    def __init__(self, cores: list[Core],
                 window: tuple[int, int] | None = None) -> None:
        self._cores = list(cores)
        n = self.n = len(self._cores)
        seen: dict[int, int] = {}
        for i, core in enumerate(self._cores):
            for obj in (core, core.hierarchy, core.bus, core.bus.memory):
                owner = seen.setdefault(id(obj), i)
                if owner != i:
                    raise ValueError(
                        f"instances {owner} and {i} share "
                        f"{type(obj).__name__} state; ensemble instances "
                        "must own their SoCs exclusively")

        self.hier = HierarchyEnsemble(
            [c.hierarchy for c in self._cores],
            [c.config.core_id for c in self._cores])

        self.regs = np.zeros((n, 16), dtype=_U64)
        self.pc = np.zeros(n, dtype=_U64)
        self.cycles = np.zeros(n, dtype=np.int64)
        self.instret = np.zeros(n, dtype=np.int64)
        self.energy = np.zeros(n, dtype=np.float64)
        self.halted = np.zeros(n, dtype=bool)
        self.peeled = np.zeros(n, dtype=bool)
        self.e_instr = np.array(
            [c.config.energy_per_instr_pj for c in self._cores])
        self.e_mem = np.array(
            [c.config.energy_per_mem_pj for c in self._cores])
        self.txn_delta = np.zeros(n, dtype=np.int64)
        self.peel_reasons: list[str | None] = [None] * n
        self.traps: list[TrapInfo | None] = [None] * n
        #: run() caches the active-row index; halting/peeling sets this
        #: so the cache is rebuilt on the next step.
        self._active_dirty = True

        # Flatten each distinct program once; share the dense arrays.
        self._programs = [c.program for c in self._cores]
        tables: dict[int, tuple[int, int, int]] = {}
        chunks = []
        offset = 0
        self.poff = np.zeros(n, dtype=_U64)
        self.pbase = np.zeros(n, dtype=_U64)
        self.plim = np.zeros(n, dtype=_U64)
        for i, program in enumerate(self._programs):
            key = id(program)
            if key not in tables:
                flat = _flatten_program(program)
                if flat is None:
                    tables[key] = (0, 0, 0)
                else:
                    base, span = flat[0], flat[1]
                    chunks.append(flat[2:])
                    tables[key] = (offset, base, span)
                    offset += span // 4
            off, base, span = tables[key]
            self.poff[i], self.pbase[i], self.plim[i] = off, base, span
        if chunks:
            self.OP, self.RD, self.RS1, self.RS2, self.IMM, self.TGT = (
                np.concatenate(parts) for parts in zip(*chunks))
        else:
            self.OP = np.empty(0, dtype=np.int64)
            self.RD = self.RS1 = self.RS2 = self.TGT = self.OP
            self.IMM = np.empty(0, dtype=_U64)
        # All instances sharing one mapped program unlocks the scalar
        # fetch fast path in run() whenever their PCs are in lockstep.
        self._prog_uniform = bool(
            n > 0 and len(tables) == 1 and int(self.plim[0]) > 0)
        self._poff0 = int(self.poff[0]) if n else 0
        self._pbase0 = int(self.pbase[0]) if n else 0
        self._plim0 = int(self.plim[0]) if n else 0

        # Memory window arena: current bytes + which bytes stores touched.
        self.window_ok = np.zeros(n, dtype=bool)
        self.arena: np.ndarray | None = None
        self.written: np.ndarray | None = None
        if window is not None:
            wbase, wsize = window
            self.wb = _U64(wbase)
            self.we8 = _U64(wbase + wsize - 8)
            self.arena = np.zeros((n, wsize), dtype=np.uint8)
            self.written = np.zeros((n, wsize), dtype=bool)
        self._AR8 = np.arange(8, dtype=np.int64)
        self._SH8 = _U64(8) * np.arange(8, dtype=_U64)
        self._POW = _U64(1) << self._SH8

        for i, core in enumerate(self._cores):
            reason = _static_blocker(core)
            if reason is None and not self.hier.managed[i]:
                reason = f"cache hierarchy: {self.hier.blockers[i]}"
            if reason is not None:
                # Scalar from step zero; arrays for i stay unused.
                self.peeled[i] = True
                self.peel_reasons[i] = reason
                continue
            self.regs[i] = core.regs
            self.pc[i] = core.pc
            self.cycles[i] = core.cycles
            self.instret[i] = core.instret
            self.energy[i] = core.energy_pj
            self.halted[i] = core.halted
            if window is not None:
                wreason = _window_blocker(core, window)
                if wreason is None:
                    self.window_ok[i] = True
                    sparse = core.bus.memory._bytes
                    if len(sparse) < window[1]:
                        # Far fewer bytes ever written than window bytes:
                        # walk the sparse dict instead of densifying the
                        # whole window through read_bytes.
                        row = self.arena[i]
                        wb, we = window[0], window[0] + window[1]
                        for a, v in sparse.items():
                            if wb <= a < we:
                                row[a - wb] = v
                    else:
                        self.arena[i] = np.frombuffer(
                            core.bus.memory.read_bytes(window[0], window[1]),
                            dtype=np.uint8)

        self._group_handlers = {}
        for op in _ALU_OPS:
            self._group_handlers[op] = self._h_alu
        for op in _BRANCH_OPS:
            self._group_handlers[op] = self._h_branch
        for op in _PC_REL_OPS:
            self._group_handlers[op] = self._h_next
        self._group_handlers[OPCODES[InstrKind.ADDI]] = self._h_addi
        self._group_handlers[OPCODES[InstrKind.LI]] = self._h_li
        self._group_handlers[_OP_LOAD] = self._h_load
        self._group_handlers[_OP_STORE] = self._h_store
        self._group_handlers[_OP_FLUSH] = self._h_flush
        self._group_handlers[_OP_JMP] = self._h_jump
        self._group_handlers[_OP_JAL] = self._h_jump
        self._group_handlers[_OP_RET] = self._h_ret
        self._group_handlers[_OP_RDCYCLE] = self._h_rdcycle
        self._group_handlers[_OP_HALT] = self._h_halt
        # ECALL / CSRR / CSRW (and decode holes, op == -1) have no vector
        # handler: their side effects (syscalls, CSR hooks, privilege
        # checks, traps) belong to the scalar oracle.

    # -- scatter -------------------------------------------------------------

    def _scatter_instance(self, i: int) -> None:
        core = self._cores[i]
        core.regs = [int(x) for x in self.regs[i]]
        core.pc = int(self.pc[i])
        core.cycles = int(self.cycles[i])
        core.instret = int(self.instret[i])
        core.energy_pj = float(self.energy[i])
        core.halted = bool(self.halted[i])
        self.hier.scatter_instance(i)
        if self.txn_delta[i]:
            core.bus.transaction_count += int(self.txn_delta[i])
            self.txn_delta[i] = 0
        if self.written is not None:
            cols = np.flatnonzero(self.written[i])
            if cols.size:
                # Exactly the bytes scalar stores would have written:
                # footprint-identical sparse memory.
                addrs = (cols + int(self.wb)).tolist()
                core.bus.memory._bytes.update(
                    zip(addrs, self.arena[i, cols].tolist()))

    def sync(self) -> None:
        """Scatter array state into the scalar objects (arrays stay
        authoritative for the next :meth:`run`; treat the SoCs as
        read-only between calls)."""
        for i in range(self.n):
            if not self.peeled[i]:
                self._scatter_instance(i)

    def _peel(self, i: int, remaining: int, reason: str) -> None:
        self.peeled[i] = True
        self._active_dirty = True
        self.peel_reasons[i] = reason
        self._scatter_instance(i)
        if remaining > 0:
            self._run_scalar(i, remaining)

    def _run_scalar(self, i: int, budget: int) -> None:
        try:
            self._cores[i].run(max_steps=budget)
        except Trap as trap:
            self.traps[i] = trap.info

    # -- group handlers ------------------------------------------------------
    #
    # Each takes (rows, slots, remaining): global instance rows executing
    # this opcode this step, their predecode slots, and the scalar budget
    # left should any of them peel.  Returning a bool mask marks which
    # rows actually retired on the array path (peeled rows re-execute the
    # instruction scalar-side, so they must not retire here).

    def _write_rd(self, rows, rd, vals) -> None:
        m = rd != 0
        if m.all():
            self.regs[rows, rd] = vals
        else:
            self.regs[rows[m], rd[m]] = vals[m]

    def _h_alu(self, rows, slots, remaining):
        a = self.regs[rows, self.RS1[slots]]
        b = self.regs[rows, self.RS2[slots]]
        kind = _ALU_OPS[int(self.OP[slots[0]])]
        if kind is InstrKind.ADD:
            v = a + b
        elif kind is InstrKind.SUB:
            v = a - b
        elif kind is InstrKind.AND:
            v = a & b
        elif kind is InstrKind.OR:
            v = a | b
        elif kind is InstrKind.XOR:
            v = a ^ b
        elif kind is InstrKind.SHL:
            v = a << (b & _U64(63))
        elif kind is InstrKind.SHR:
            v = a >> (b & _U64(63))
        else:  # MUL
            v = a * b
        self._write_rd(rows, self.RD[slots], v)
        self.pc[rows] += _U64(4)
        return None

    def _h_addi(self, rows, slots, remaining):
        v = self.regs[rows, self.RS1[slots]] + self.IMM[slots]
        self._write_rd(rows, self.RD[slots], v)
        self.pc[rows] += _U64(4)
        return None

    def _h_li(self, rows, slots, remaining):
        self._write_rd(rows, self.RD[slots], self.IMM[slots])
        self.pc[rows] += _U64(4)
        return None

    def _h_next(self, rows, slots, remaining):
        self.pc[rows] += _U64(4)
        return None

    def _h_rdcycle(self, rows, slots, remaining):
        self._write_rd(rows, self.RD[slots],
                       self.cycles[rows].astype(_U64))
        self.pc[rows] += _U64(4)
        return None

    def _h_halt(self, rows, slots, remaining):
        self.halted[rows] = True  # retires, PC stays (as scalar)
        self._active_dirty = True
        return None

    def _h_branch(self, rows, slots, remaining):
        a = self.regs[rows, self.RS1[slots]]
        b = self.regs[rows, self.RS2[slots]]
        kind = _BRANCH_OPS[int(self.OP[slots[0]])]
        if kind is InstrKind.BEQ:
            taken = a == b
        elif kind is InstrKind.BNE:
            taken = a != b
        elif kind is InstrKind.BLT:
            taken = a < b
        else:  # BGE
            taken = a >= b
        tgt = self.TGT[slots]
        # The scalar core resolves the target lazily, only when taken.
        bad = taken & (tgt < 0)
        keep = ~bad
        for i in rows[bad]:
            self._peel(int(i), remaining, "taken branch to unknown target")
        rows, taken, tgt = rows[keep], taken[keep], tgt[keep]
        self.pc[rows] = np.where(taken, tgt.astype(_U64),
                                 self.pc[rows] + _U64(4))
        return keep if bad.any() else None

    def _h_jump(self, rows, slots, remaining):
        tgt = self.TGT[slots]
        bad = tgt < 0
        keep = ~bad
        for i in rows[bad]:
            self._peel(int(i), remaining, "jump to unknown target")
        rows, slots, tgt = rows[keep], slots[keep], tgt[keep]
        if slots.size and int(self.OP[slots[0]]) == _OP_JAL:
            self.regs[rows, 15] = self.pc[rows] + _U64(4)  # link register
        self.pc[rows] = tgt.astype(_U64)
        return keep if bad.any() else None

    def _h_ret(self, rows, slots, remaining):
        self.pc[rows] = self.regs[rows, 15]
        return None

    def _h_flush(self, rows, slots, remaining):
        addr = (self.regs[rows, self.RS1[slots]] + self.IMM[slots]) \
            .astype(np.int64)
        self.hier.flush_line(rows, addr)
        self.cycles[rows] += self.hier.lat_l2[rows]
        self.pc[rows] += _U64(4)
        return None

    def _mem_window_rows(self, rows, addr, remaining, what):
        """Window eligibility per row (mask, all-eligible); peels the rest."""
        if self.arena is None:
            ok = np.zeros(rows.size, dtype=bool)
        else:
            ok = self.window_ok[rows] \
                & (addr >= self.wb) & (addr <= self.we8)
        allok = bool(ok.all())
        if not allok:
            for i in rows[~ok]:
                self._peel(int(i), remaining,
                           f"{what} outside memory window")
        return ok, allok

    def _h_load(self, rows, slots, remaining):
        addr = self.regs[rows, self.RS1[slots]] + self.IMM[slots]
        ok, allok = self._mem_window_rows(rows, addr, remaining, "load")
        if not allok:
            rows, slots, addr = rows[ok], slots[ok], addr[ok]
        if rows.size:
            off = (addr - self.wb).astype(np.int64)
            idx = off[:, None] + self._AR8
            b = self.arena[rows[:, None], idx]
            vals = (b.astype(_U64) * self._POW).sum(axis=1, dtype=_U64)
            self.txn_delta[rows] += 1
            lat = self.hier.access(rows, addr.astype(np.int64),
                                   is_write=False)
            self.cycles[rows] += lat
            self.energy[rows] += self.e_mem[rows]
            self._write_rd(rows, self.RD[slots], vals)
            self.pc[rows] += _U64(4)
        return None if allok else ok

    def _h_store(self, rows, slots, remaining):
        addr = self.regs[rows, self.RS1[slots]] + self.IMM[slots]
        ok, allok = self._mem_window_rows(rows, addr, remaining, "store")
        if not allok:
            rows, slots, addr = rows[ok], slots[ok], addr[ok]
        if rows.size:
            v = self.regs[rows, self.RS2[slots]]
            off = (addr - self.wb).astype(np.int64)
            idx = off[:, None] + self._AR8
            b = ((v[:, None] >> self._SH8) & _U64(0xFF)).astype(np.uint8)
            self.arena[rows[:, None], idx] = b
            self.written[rows[:, None], idx] = True
            self.txn_delta[rows] += 1
            lat = self.hier.access(rows, addr.astype(np.int64),
                                   is_write=True)
            self.cycles[rows] += lat
            self.energy[rows] += self.e_mem[rows]
            self.pc[rows] += _U64(4)
        return None if allok else ok

    # -- the vector step loop ------------------------------------------------

    def run(self, max_steps: int = 1_000_000) -> EnsembleReport:
        """Advance every instance by up to ``max_steps`` retired
        instructions (vector steps for array instances, ``core.run`` for
        peeled ones), then :meth:`sync`."""
        n = self.n
        start_cycles = [
            self._cores[i].cycles if self.peeled[i] else int(self.cycles[i])
            for i in range(n)]
        for i in range(n):
            if self.peeled[i] and not self._cores[i].halted:
                self._run_scalar(i, max_steps)
        for i in np.flatnonzero(~self.peeled & ~self.halted):
            core = self._cores[int(i)]
            if core._pending_interrupts:
                self._peel(int(i), max_steps, "pending interrupts")
            elif core.program is not self._programs[int(i)]:
                self._peel(int(i), max_steps, "program swapped externally")

        steps = 0
        rows = np.flatnonzero(~(self.halted | self.peeled))
        self._active_dirty = False
        while steps < max_steps:
            if self._active_dirty:
                rows = np.flatnonzero(~(self.halted | self.peeled))
                self._active_dirty = False
            if rows.size == 0:
                break
            remaining = max_steps - steps
            if self._prog_uniform:
                pc0 = self.pc[rows[0]]
                if bool((self.pc[rows] == pc0).all()):
                    # Lockstep PCs over one shared program: fetch and
                    # group classification collapse to scalar work.
                    rel0 = int(pc0) - self._pbase0
                    if 0 <= rel0 < self._plim0 and not rel0 & 3:
                        slot0 = self._poff0 + (rel0 >> 2)
                        handler = self._group_handlers.get(
                            int(self.OP[slot0]))
                        if handler is None:
                            for i in rows:
                                self._peel(int(i), remaining,
                                           "unsupported opcode "
                                           "(ecall/csr/hole)")
                            retired = rows[:0]
                        else:
                            slots = np.broadcast_to(
                                np.int64(slot0), rows.shape)
                            kept = handler(rows, slots, remaining)
                            retired = rows if kept is None else rows[kept]
                        self.instret[retired] += 1
                        self.cycles[retired] += 1
                        self.energy[retired] += self.e_instr[retired]
                        steps += 1
                        continue
            rel = self.pc[rows] - self.pbase[rows]
            infetch = (rel < self.plim[rows]) & ((rel & _U64(3)) == _U64(0))
            if not infetch.all():
                for i in rows[~infetch]:
                    self._peel(int(i), remaining, "fetch outside program")
                rows, rel = rows[infetch], rel[infetch]
                if rows.size == 0:
                    continue
            slots = (self.poff[rows] + (rel >> _U64(2))).astype(np.int64)
            ops = self.OP[slots]
            first = int(ops[0])
            if (ops == first).all():
                # Convergent ensembles spend almost every step here: one
                # opcode group, no mask bookkeeping, no np.unique.
                handler = self._group_handlers.get(first)
                if handler is None:
                    for i in rows:
                        self._peel(int(i), remaining,
                                   "unsupported opcode (ecall/csr/hole)")
                    retired = rows[:0]
                else:
                    kept = handler(rows, slots, remaining)
                    retired = rows if kept is None else rows[kept]
            else:
                keep = np.ones(rows.size, dtype=bool)
                for op in np.unique(ops):
                    sel = ops == op
                    handler = self._group_handlers.get(int(op))
                    if handler is None:
                        for i in rows[sel]:
                            self._peel(int(i), remaining,
                                       "unsupported opcode (ecall/csr/hole)")
                        keep[sel] = False
                        continue
                    kept = handler(rows[sel], slots[sel], remaining)
                    if kept is not None:
                        keep[sel] &= kept
                retired = rows[keep]
            self.instret[retired] += 1
            self.cycles[retired] += 1
            self.energy[retired] += self.e_instr[retired]
            steps += 1

        self.sync()
        return EnsembleReport(
            steps=steps,
            peeled=[bool(p) for p in self.peeled],
            peel_reasons=list(self.peel_reasons),
            traps=list(self.traps),
            cycles=[self._cores[i].cycles - start_cycles[i]
                    for i in range(n)])


def ensemble_run(cores: list[Core], max_steps: int = 1_000_000,
                 window: tuple[int, int] | None = None) -> EnsembleReport:
    """One-shot convenience: build a :class:`CoreEnsemble`, run, sync."""
    ensemble = CoreEnsemble(cores, window=window)
    return ensemble.run(max_steps=max_steps)
