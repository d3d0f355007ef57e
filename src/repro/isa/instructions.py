"""Instruction definitions for the simulated RISC-like ISA.

Instructions are plain frozen dataclasses interpreted by
:class:`repro.cpu.core.Core`.  Every instruction occupies
:data:`INSTR_SIZE` bytes of instruction memory so programs have realistic
program-counter arithmetic (BTB aliasing relies on branch *addresses*).

Registers are named ``r0`` .. ``r15``; ``r0`` is hard-wired to zero, ``r14``
is the conventional stack pointer (``sp``) and ``r15`` the link register
(``lr``) written by :func:`jal`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Byte size of every instruction; PC advances by this much per instruction.
INSTR_SIZE = 4

#: Number of general-purpose registers.
NUM_REGS = 16

#: 64-bit register width mask.
WORD_MASK = (1 << 64) - 1


class Reg(enum.IntEnum):
    """General-purpose register names."""

    R0 = 0
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    SP = 14
    LR = 15


class InstrKind(enum.Enum):
    """Operation selector for :class:`Instruction`."""

    # ALU register-register
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MUL = "mul"
    # ALU register-immediate
    ADDI = "addi"
    LI = "li"
    # Memory
    LOAD = "load"
    STORE = "store"
    FLUSH = "flush"  # clflush analogue: evict one line from all cache levels
    FENCE = "fence"  # serialising barrier: drains the transient window
    # Control flow
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    JMP = "jmp"
    JAL = "jal"
    RET = "ret"
    # System
    ECALL = "ecall"  # trap into the next-higher privilege level
    CSRR = "csrr"  # read a control/status register
    CSRW = "csrw"  # write a control/status register
    RDCYCLE = "rdcycle"  # read the cycle counter (the attacker's stopwatch)
    NOP = "nop"
    HALT = "halt"


#: Dense opcode numbering used by the predecoded dispatch engine.  A
#: :class:`~repro.isa.program.Program` resolves each instruction's kind to
#: this index once at build time; :class:`repro.cpu.core.Core` indexes a
#: tuple of bound handler methods with it instead of chaining ``if``/``elif``
#: over :class:`InstrKind` members on every executed instruction.
OPCODES: dict[InstrKind, int] = {
    kind: op for op, kind in enumerate(InstrKind)
}

#: Number of distinct opcodes (length of any dispatch table).
NUM_OPCODES = len(OPCODES)

#: Kinds that may redirect control flow.
BRANCH_KINDS = frozenset(
    {InstrKind.BEQ, InstrKind.BNE, InstrKind.BLT, InstrKind.BGE}
)

#: Kinds that always redirect control flow.
JUMP_KINDS = frozenset({InstrKind.JMP, InstrKind.JAL, InstrKind.RET})

#: Kinds that access data memory through the MMU and caches.
MEMORY_KINDS = frozenset({InstrKind.LOAD, InstrKind.STORE})


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    The operand fields are interpreted per :class:`InstrKind`:

    * ALU reg-reg: ``rd = rs1 <op> rs2``
    * ``ADDI``/``LI``: ``rd = rs1 + imm`` / ``rd = imm``
    * ``LOAD``: ``rd = mem[rs1 + imm]``
    * ``STORE``: ``mem[rs1 + imm] = rs2``
    * ``FLUSH``: evict line containing ``rs1 + imm``
    * branches: compare ``rs1`` with ``rs2``, target ``imm`` (absolute) or
      ``label`` resolved by the assembler
    * ``JAL``: ``lr = pc + 4; pc = imm``
    * ``CSRR``/``CSRW``: ``rd = csr[imm]`` / ``csr[imm] = rs1``
    """

    kind: InstrKind
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for name in ("rd", "rs1", "rs2"):
            value = getattr(self, name)
            if not 0 <= value < NUM_REGS:
                raise ValueError(
                    f"{name}={value} out of range for {self.kind.value}"
                )

    @property
    def is_branch(self) -> bool:
        """True for conditional branches."""
        return self.kind in BRANCH_KINDS

    @property
    def is_jump(self) -> bool:
        """True for unconditional control transfers."""
        return self.kind in JUMP_KINDS

    @property
    def is_memory(self) -> bool:
        """True for instructions that access data memory."""
        return self.kind in MEMORY_KINDS

    def __str__(self) -> str:
        k = self.kind
        if k in (InstrKind.ADD, InstrKind.SUB, InstrKind.AND, InstrKind.OR,
                 InstrKind.XOR, InstrKind.SHL, InstrKind.SHR, InstrKind.MUL):
            return f"{k.value} r{self.rd}, r{self.rs1}, r{self.rs2}"
        if k is InstrKind.ADDI:
            return f"addi r{self.rd}, r{self.rs1}, {self.imm}"
        if k is InstrKind.LI:
            return f"li r{self.rd}, {self.imm}"
        if k is InstrKind.LOAD:
            return f"load r{self.rd}, {self.imm}(r{self.rs1})"
        if k is InstrKind.STORE:
            return f"store r{self.rs2}, {self.imm}(r{self.rs1})"
        if k is InstrKind.FLUSH:
            return f"flush {self.imm}(r{self.rs1})"
        if k in (InstrKind.BEQ, InstrKind.BNE, InstrKind.BLT, InstrKind.BGE):
            target = self.label if self.label is not None else hex(self.imm)
            return f"{k.value} r{self.rs1}, r{self.rs2}, {target}"
        if k in (InstrKind.JMP, InstrKind.JAL):
            target = self.label if self.label is not None else hex(self.imm)
            return f"{k.value} {target}"
        if k is InstrKind.CSRR:
            return f"csrr r{self.rd}, {self.imm}"
        if k is InstrKind.CSRW:
            return f"csrw {self.imm}, r{self.rs1}"
        if k is InstrKind.RDCYCLE:
            return f"rdcycle r{self.rd}"
        return k.value


# ---------------------------------------------------------------------------
# Constructor helpers.  These keep victim/attacker gadget code readable:
#   prog = [li(Reg.R1, 0x1000), load(Reg.R2, Reg.R1), halt()]
# ---------------------------------------------------------------------------

def add(rd: int, rs1: int, rs2: int) -> Instruction:
    """``rd = rs1 + rs2``."""
    return Instruction(InstrKind.ADD, rd=rd, rs1=rs1, rs2=rs2)


def sub(rd: int, rs1: int, rs2: int) -> Instruction:
    """``rd = rs1 - rs2``."""
    return Instruction(InstrKind.SUB, rd=rd, rs1=rs1, rs2=rs2)


def and_(rd: int, rs1: int, rs2: int) -> Instruction:
    """``rd = rs1 & rs2``."""
    return Instruction(InstrKind.AND, rd=rd, rs1=rs1, rs2=rs2)


def or_(rd: int, rs1: int, rs2: int) -> Instruction:
    """``rd = rs1 | rs2``."""
    return Instruction(InstrKind.OR, rd=rd, rs1=rs1, rs2=rs2)


def xor(rd: int, rs1: int, rs2: int) -> Instruction:
    """``rd = rs1 ^ rs2``."""
    return Instruction(InstrKind.XOR, rd=rd, rs1=rs1, rs2=rs2)


def shl(rd: int, rs1: int, rs2: int) -> Instruction:
    """``rd = rs1 << rs2``."""
    return Instruction(InstrKind.SHL, rd=rd, rs1=rs1, rs2=rs2)


def shr(rd: int, rs1: int, rs2: int) -> Instruction:
    """``rd = rs1 >> rs2``."""
    return Instruction(InstrKind.SHR, rd=rd, rs1=rs1, rs2=rs2)


def mul(rd: int, rs1: int, rs2: int) -> Instruction:
    """``rd = rs1 * rs2``."""
    return Instruction(InstrKind.MUL, rd=rd, rs1=rs1, rs2=rs2)


def addi(rd: int, rs1: int, imm: int) -> Instruction:
    """``rd = rs1 + imm``."""
    return Instruction(InstrKind.ADDI, rd=rd, rs1=rs1, imm=imm)


def li(rd: int, imm: int) -> Instruction:
    """``rd = imm``."""
    return Instruction(InstrKind.LI, rd=rd, imm=imm)


def load(rd: int, rs1: int, offset: int = 0) -> Instruction:
    """``rd = mem[rs1 + offset]`` (one 8-byte word)."""
    return Instruction(InstrKind.LOAD, rd=rd, rs1=rs1, imm=offset)


def store(rs2: int, rs1: int, offset: int = 0) -> Instruction:
    """``mem[rs1 + offset] = rs2``."""
    return Instruction(InstrKind.STORE, rs1=rs1, rs2=rs2, imm=offset)


def flush(rs1: int, offset: int = 0) -> Instruction:
    """Evict the cache line containing ``rs1 + offset`` from all levels."""
    return Instruction(InstrKind.FLUSH, rs1=rs1, imm=offset)


def fence() -> Instruction:
    """Serialising barrier; no younger instruction executes transiently past it."""
    return Instruction(InstrKind.FENCE)


def beq(rs1: int, rs2: int, label: str) -> Instruction:
    """Branch to ``label`` if ``rs1 == rs2``."""
    return Instruction(InstrKind.BEQ, rs1=rs1, rs2=rs2, label=label)


def bne(rs1: int, rs2: int, label: str) -> Instruction:
    """Branch to ``label`` if ``rs1 != rs2``."""
    return Instruction(InstrKind.BNE, rs1=rs1, rs2=rs2, label=label)


def blt(rs1: int, rs2: int, label: str) -> Instruction:
    """Branch to ``label`` if ``rs1 < rs2`` (unsigned)."""
    return Instruction(InstrKind.BLT, rs1=rs1, rs2=rs2, label=label)


def bge(rs1: int, rs2: int, label: str) -> Instruction:
    """Branch to ``label`` if ``rs1 >= rs2`` (unsigned)."""
    return Instruction(InstrKind.BGE, rs1=rs1, rs2=rs2, label=label)


def jmp(label: str) -> Instruction:
    """Unconditional jump to ``label``."""
    return Instruction(InstrKind.JMP, label=label)


def jal(label: str) -> Instruction:
    """Jump to ``label`` and save the return address in ``lr``."""
    return Instruction(InstrKind.JAL, label=label)


def ret() -> Instruction:
    """Return to the address in ``lr``."""
    return Instruction(InstrKind.RET)


def ecall(code: int = 0) -> Instruction:
    """Trap into the supervising privilege level with service ``code``."""
    return Instruction(InstrKind.ECALL, imm=code)


def csrr(rd: int, csr: int) -> Instruction:
    """Read control/status register ``csr`` into ``rd``."""
    return Instruction(InstrKind.CSRR, rd=rd, imm=csr)


def csrw(csr: int, rs1: int) -> Instruction:
    """Write ``rs1`` into control/status register ``csr``."""
    return Instruction(InstrKind.CSRW, rs1=rs1, imm=csr)


def rdcycle(rd: int) -> Instruction:
    """Read the free-running cycle counter into ``rd``."""
    return Instruction(InstrKind.RDCYCLE, rd=rd)


def nop() -> Instruction:
    """Do nothing for one cycle."""
    return Instruction(InstrKind.NOP)


def halt() -> Instruction:
    """Stop the core."""
    return Instruction(InstrKind.HALT)
