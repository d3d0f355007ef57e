"""Differential equivalence: fast dispatch engine vs reference interpreter.

Hypothesis generates random programs (every opcode, taken/not-taken
branches, valid and faulting memory traffic) plus random memory images,
and the harness in :mod:`repro.cpu.diff` checks the fast engine against
the retained reference interpreter:

* **lockstep** — after every single instruction, full architectural state
  (registers, PC, CSRs, privilege, traps) and every observable of
  :func:`~repro.cpu.diff.soc_observables` (cycles, energy, per-level
  cache tags, lines, LRU stamps and counters, TLB/MMU/bus/MEE state,
  physical memory) must match bit for bit;
* **batched run()** — the fast engine's amortised run loop against the
  oracle's serial step loop, comparing whole-SoC state at the end.

A single diverging bit in any observable fails the suite — that is the
"observation-equivalent optimisation" guarantee the performance work
rides on.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.diff import compare_socs, lockstep, reference_twin
from repro.cpu.exceptions import Trap
from repro.cpu.soc import make_embedded_soc, make_mobile_soc
from repro.isa.instructions import Instruction, InstrKind
from repro.isa.program import Program

DRAM = 0x8000_0000
SCRATCH = DRAM + 0x4000
BASE = DRAM + 0x1000
#: Unmapped hole between MMIO and DRAM: loads fault, fetches trap.
HOLE = 0x4000_0000

LABELS = ("t0", "t1", "t2")

#: CSR numbers safe on every platform (no DVFS hooks wired to these).
_CSRS = (0x345, 0x346, 0x304)

_REG = st.integers(min_value=0, max_value=15)
_ALU_KINDS = (InstrKind.ADD, InstrKind.SUB, InstrKind.AND, InstrKind.OR,
              InstrKind.XOR, InstrKind.SHL, InstrKind.SHR, InstrKind.MUL)
_BRANCH_KINDS = (InstrKind.BEQ, InstrKind.BNE, InstrKind.BLT, InstrKind.BGE)

_IMM = st.one_of(
    st.integers(min_value=0, max_value=512),
    st.integers(min_value=-64, max_value=64),
    st.just(1 << 63),
)
#: Addresses a memory op may target: scratch DRAM (hits/misses/evictions),
#: boot ROM (reads ok, writes access-fault), the unmapped hole (decode
#: faults), and plain small offsets.
_MEM_BASE = st.sampled_from(
    [SCRATCH, SCRATCH + 64, SCRATCH + 4096, 0x100, HOLE])


@st.composite
def _instruction(draw) -> Instruction:
    bucket = draw(st.integers(min_value=0, max_value=9))
    if bucket == 0:
        return Instruction(draw(st.sampled_from(_ALU_KINDS)),
                           rd=draw(_REG), rs1=draw(_REG), rs2=draw(_REG))
    if bucket == 1:
        return Instruction(InstrKind.LI, rd=draw(_REG),
                           imm=draw(st.one_of(_IMM, _MEM_BASE)))
    if bucket == 2:
        return Instruction(InstrKind.ADDI, rd=draw(_REG), rs1=draw(_REG),
                           imm=draw(_IMM))
    if bucket == 3:
        kind = draw(st.sampled_from(
            [InstrKind.LOAD, InstrKind.STORE, InstrKind.FLUSH]))
        # rs1 ∈ {1, 2} holds a scratch pointer from the preamble most of
        # the time; anything else makes the effective address wild.
        rs1 = draw(st.sampled_from([1, 1, 2, draw(_REG)]))
        return Instruction(kind, rd=draw(_REG), rs1=rs1, rs2=draw(_REG),
                           imm=draw(st.integers(min_value=0, max_value=448)))
    if bucket == 4:
        return Instruction(draw(st.sampled_from(_BRANCH_KINDS)),
                           rs1=draw(_REG), rs2=draw(_REG),
                           label=draw(st.sampled_from(LABELS)))
    if bucket == 5:
        kind = draw(st.sampled_from([InstrKind.JMP, InstrKind.JAL]))
        if draw(st.booleans()):
            return Instruction(kind, label=draw(st.sampled_from(LABELS)))
        # Absolute target (no label): exercises the imm-target predecode.
        return Instruction(kind, imm=BASE + 4 * draw(
            st.integers(min_value=0, max_value=24)))
    if bucket == 6:
        return Instruction(draw(st.sampled_from(
            [InstrKind.NOP, InstrKind.FENCE, InstrKind.RDCYCLE])),
            rd=draw(_REG))
    if bucket == 7:
        return Instruction(InstrKind.CSRR, rd=draw(_REG),
                           imm=draw(st.sampled_from(_CSRS)))
    if bucket == 8:
        return Instruction(InstrKind.CSRW, rs1=draw(_REG),
                           imm=draw(st.sampled_from(_CSRS)))
    return Instruction(draw(st.sampled_from(
        [InstrKind.ECALL, InstrKind.RET, InstrKind.HALT])),
        imm=draw(st.integers(min_value=0, max_value=7)))


@st.composite
def _programs(draw) -> tuple[Program, dict[int, int]]:
    body = draw(st.lists(_instruction(), min_size=3, max_size=20))
    preamble = [
        Instruction(InstrKind.LI, rd=1, imm=SCRATCH),
        Instruction(InstrKind.LI, rd=2, imm=SCRATCH + 0x100),
        Instruction(InstrKind.JAL, rd=0, label="t0"),  # give RET a target
    ]
    instrs = preamble + body + [Instruction(InstrKind.HALT)]
    label_slots = draw(st.lists(
        st.integers(min_value=len(preamble), max_value=len(instrs) - 1),
        min_size=len(LABELS), max_size=len(LABELS)))
    labels = {name: BASE + 4 * slot
              for name, slot in zip(LABELS, label_slots)}
    memory = draw(st.dictionaries(
        st.integers(min_value=SCRATCH, max_value=SCRATCH + 0x1ff),
        st.integers(min_value=0, max_value=255), max_size=8))
    return Program(instrs, base=BASE, labels=labels, name="fuzz"), memory


def _prepare(factory, program, memory):
    fast_soc = factory()
    ref_soc = reference_twin(fast_soc)
    for soc in (fast_soc, ref_soc):
        for addr, value in memory.items():
            soc.memory.write_byte(addr, value)
        soc.cores[0].load_program(program)
    return fast_soc, ref_soc


_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

MAX_STEPS = 300


class TestLockstep:
    @_SETTINGS
    @given(_programs())
    def test_inorder_lockstep(self, case):
        program, memory = case
        fast_soc, ref_soc = _prepare(make_embedded_soc, program, memory)
        lockstep(fast_soc, ref_soc, max_steps=MAX_STEPS)

    @_SETTINGS
    @given(_programs())
    def test_speculative_lockstep(self, case):
        program, memory = case
        fast_soc, ref_soc = _prepare(make_mobile_soc, program, memory)
        lockstep(fast_soc, ref_soc, max_steps=MAX_STEPS)


def _run_both(fast_soc, ref_soc):
    """Run the batched fast loop vs the oracle's serial loop."""
    outcomes = []
    for soc in (fast_soc, ref_soc):
        try:
            cycles = soc.cores[0].run(max_steps=MAX_STEPS)
            outcomes.append(("done", cycles))
        except Trap as trap:
            outcomes.append(("trap", trap.info.cause, trap.info.pc,
                             trap.info.value, trap.info.detail))
    assert outcomes[0] == outcomes[1], outcomes
    compare_socs(fast_soc, ref_soc)


class TestBatchedRun:
    @_SETTINGS
    @given(_programs())
    def test_inorder_run(self, case):
        program, memory = case
        fast_soc, ref_soc = _prepare(make_embedded_soc, program, memory)
        _run_both(fast_soc, ref_soc)

    @_SETTINGS
    @given(_programs())
    def test_speculative_run(self, case):
        program, memory = case
        fast_soc, ref_soc = _prepare(make_mobile_soc, program, memory)
        _run_both(fast_soc, ref_soc)

    @_SETTINGS
    @given(_programs())
    def test_inorder_run_with_fault_resume(self, case):
        """Faults delivered via fault_resume retire like instructions."""
        program, memory = case
        fast_soc, ref_soc = _prepare(make_embedded_soc, program, memory)
        for soc in (fast_soc, ref_soc):
            soc.cores[0].fault_resume = program.labels["t1"]
        _run_both(fast_soc, ref_soc)
