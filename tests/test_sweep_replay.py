"""Differential equivalence: the kernel sweep's lane replay vs scalar cores.

The default lane of :func:`repro.core.sweep.run_kernel_sweep` runs
instance 0 on the scalar ``Core`` and replays every instance's data in
numpy lanes (:func:`repro.core.sweep.replay_lanes`); ``reference=True``
runs every instance on the scalar loop, the oracle.  Three layers of
checks hold the replay to the oracle:

* **Sweep summaries** — default and reference summaries are equal for
  every platform, at quick and full sizing, at the matrix's derived cell
  seeds and at random ones, and a workload cell's payload fingerprint is
  the same on both runner lanes.
* **Uniform programs** — hypothesis generates programs whose addresses
  and branches are the same in every lane; the replay's registers and
  window bytes must equal N independent scalar runs'.
* **Declines** — each way a program can leave the replayable subset
  (a data-dependent load address, a data-dependent branch, an
  out-of-window store, a read of an ``rdcycle`` result, an unsupported
  opcode) raises :class:`~repro.core.sweep.ReplayDeclined`, and a sweep
  whose kernel does so falls back to the scalar loop and still equals
  the oracle.

Comparisons go through :func:`repro.lockstep.compare`, so a failure
names the lane and the observable (e.g. ``lane 2: regs[6]``).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.sweep as sweep
import repro.obs as obs
from repro.attacks.knobs import MatrixKnobs
from repro.common import PlatformClass
from repro.core.sweep import ReplayDeclined, replay_lanes, run_kernel_sweep
from repro.cpu.soc import make_embedded_soc
from repro.isa.instructions import Instruction, InstrKind
from repro.isa.program import Program
from repro.lockstep import compare
from repro.runner import (
    WORKLOAD_CATEGORY,
    CellSpec,
    execute_spec,
    payload_fingerprint,
)
from repro.runner.seeding import derive_cell_seed

ALL_PLATFORMS = (PlatformClass.EMBEDDED, PlatformClass.MOBILE,
                 PlatformClass.SERVER_DESKTOP)
SIZINGS = {"quick": MatrixKnobs.quick(), "full": MatrixKnobs.full()}

DRAM = 0x8000_0000
BASE = DRAM + 0x1000
SCRATCH = DRAM + 0x4000
#: The fuzz programs' window: every load and store stays inside it.
WINDOW = 256
LANES = 3
MAX_STEPS = 400

_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture()
def replays(monkeypatch) -> list[str]:
    """How each replay of the sweep ended: ``"ok"`` or the decline."""
    outcomes: list[str] = []
    real = sweep.replay_lanes

    def recording(*args, **kwargs):
        try:
            result = real(*args, **kwargs)
        except ReplayDeclined as declined:
            outcomes.append(str(declined))
            raise
        outcomes.append("ok")
        return result

    monkeypatch.setattr(sweep, "replay_lanes", recording)
    return outcomes


def _both_lanes(platform, seed, knobs):
    args = (platform, seed, knobs.sweep_instances, knobs.sweep_iters)
    return run_kernel_sweep(*args), run_kernel_sweep(*args, reference=True)


class TestSweepDeterminism:
    @pytest.mark.parametrize("sizing", sorted(SIZINGS))
    @pytest.mark.parametrize("platform", ALL_PLATFORMS,
                             ids=lambda p: p.value)
    def test_kernel_sweep_summary_identical(self, platform, sizing,
                                            replays):
        seed = derive_cell_seed(0x2019, platform.value, WORKLOAD_CATEGORY)
        lanes, oracle = _both_lanes(platform, seed, SIZINGS[sizing])
        compare("summary", lanes, oracle)
        assert replays == ["ok"]

    @pytest.mark.parametrize("platform", ALL_PLATFORMS,
                             ids=lambda p: p.value)
    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_random_seeds(self, platform, seed):
        lanes, oracle = _both_lanes(platform, seed, SIZINGS["quick"])
        compare("summary", lanes, oracle)

    @pytest.mark.parametrize("platform", ALL_PLATFORMS,
                             ids=lambda p: p.value)
    def test_workload_cell_fingerprints_match(self, platform):
        """The manifest-level determinism check: a workload cell on the
        default lane is indistinguishable from a scalar run — same
        payload, same fingerprint, same cache entry."""
        knobs = dataclasses.replace(MatrixKnobs.quick(),
                                    sweep_instances=4, sweep_iters=16)
        spec = CellSpec(seed=0x2019, platform=platform.value,
                        category=WORKLOAD_CATEGORY, knobs=knobs.as_key())
        scalar = execute_spec(spec, reference=True)
        lanes = execute_spec(spec)
        assert scalar["sweep"] == lanes["sweep"]
        assert payload_fingerprint(scalar) == payload_fingerprint(lanes)

    def test_lane_zero_mismatch_raises(self, monkeypatch):
        real = sweep.replay_lanes

        def corrupted(*args, **kwargs):
            regs, pc, cycle_regs = real(*args, **kwargs)
            regs[6, 0] ^= 1
            return regs, pc, cycle_regs

        monkeypatch.setattr(sweep, "replay_lanes", corrupted)
        with pytest.raises(RuntimeError, match="lane 0's registers"):
            run_kernel_sweep(PlatformClass.MOBILE, 5, 3, 8)


# -- uniform programs against N scalar runs ---------------------------------

_ALU_KINDS = (InstrKind.ADD, InstrKind.SUB, InstrKind.AND, InstrKind.OR,
              InstrKind.XOR, InstrKind.SHL, InstrKind.SHR, InstrKind.MUL)
_BRANCH_KINDS = (InstrKind.BEQ, InstrKind.BNE, InstrKind.BLT, InstrKind.BGE)
#: r1 holds the window base and r2 the loop counter; the body never
#: writes either, so addresses and branch operands are public.
_PUBLIC = st.sampled_from([0, 1, 2])
_DATA = st.integers(min_value=3, max_value=15)
_ANY = st.integers(min_value=0, max_value=15)
_OFFSET = st.integers(min_value=0, max_value=WINDOW - 8)
LABELS = ("loop", "t0", "t1")


@st.composite
def _uniform_instruction(draw) -> Instruction:
    bucket = draw(st.integers(min_value=0, max_value=6))
    if bucket == 0:
        return Instruction(draw(st.sampled_from(_ALU_KINDS)), rd=draw(_DATA),
                           rs1=draw(_ANY), rs2=draw(_ANY))
    if bucket == 1:
        return Instruction(InstrKind.LI, rd=draw(_DATA), imm=draw(
            st.integers(min_value=-(1 << 63), max_value=(1 << 64) - 1)))
    if bucket == 2:
        return Instruction(InstrKind.ADDI, rd=draw(_DATA), rs1=draw(_ANY),
                           imm=draw(st.integers(-(1 << 32), 1 << 32)))
    if bucket == 3:
        return Instruction(InstrKind.LOAD, rd=draw(_DATA), rs1=1,
                           imm=draw(_OFFSET))
    if bucket == 4:
        return Instruction(InstrKind.STORE, rs1=1, rs2=draw(_ANY),
                           imm=draw(_OFFSET))
    if bucket == 5:
        return Instruction(InstrKind.FLUSH, rs1=1, imm=draw(_OFFSET))
    return Instruction(draw(st.sampled_from(_BRANCH_KINDS)), rs1=draw(_PUBLIC),
                       rs2=draw(_PUBLIC), label=draw(st.sampled_from(LABELS)))


@st.composite
def _uniform_programs(draw) -> tuple[Program, list[bytes]]:
    # Every data register starts as one of the lane's words.
    preamble = [Instruction(InstrKind.LI, rd=1, imm=SCRATCH),
                Instruction(InstrKind.LI, rd=2,
                            imm=draw(st.integers(min_value=1, max_value=4))),
                *(Instruction(InstrKind.LOAD, rd=rd, rs1=1, imm=8 * (rd - 3))
                  for rd in range(3, 16))]
    body = draw(st.lists(_uniform_instruction(), min_size=3, max_size=24))
    epilogue = [Instruction(InstrKind.ADDI, rd=2, rs1=2, imm=-1),
                Instruction(InstrKind.BNE, rs1=2, rs2=0, label="loop"),
                Instruction(InstrKind.HALT)]
    instrs = preamble + body + epilogue
    slots = draw(st.lists(st.integers(min_value=len(preamble),
                                      max_value=len(instrs) - 1),
                          min_size=2, max_size=2))
    labels = {"loop": BASE + 4 * len(preamble),
              **{name: BASE + 4 * slot
                 for name, slot in zip(LABELS[1:], slots)}}
    rng = random.Random(draw(st.integers(min_value=0, max_value=1 << 32)))
    images = [rng.randbytes(WINDOW) for _ in range(LANES)]
    return Program(instrs, base=BASE, labels=labels, name="uniform"), images


def _scalar_runs(program: Program, images: list[bytes]):
    """One fresh scalar SoC per lane, run to halt or ``MAX_STEPS``."""
    socs = []
    for image in images:
        soc = make_embedded_soc()
        soc.memory.write_bytes(SCRATCH, image)
        soc.cores[0].load_program(program)
        soc.cores[0].run(max_steps=MAX_STEPS)
        socs.append(soc)
    return socs


def _replay(program: Program, images: list[bytes]):
    windows = np.array([np.frombuffer(image, dtype=np.uint8)
                        for image in images])
    regs, pc, cycle_regs = replay_lanes(program, program.base, windows,
                                        SCRATCH, MAX_STEPS)
    return regs, pc, cycle_regs, windows


def _assert_lanes_match(program: Program, images: list[bytes]) -> None:
    regs, pc, cycle_regs, windows = _replay(program, images)
    assert cycle_regs == frozenset()
    for lane, soc in enumerate(_scalar_runs(program, images)):
        core = soc.cores[0]
        compare(f"lane {lane}: regs", regs[:, lane].tolist(), core.regs)
        compare(f"lane {lane}: pc", pc, core.pc)
        compare(f"lane {lane}: window", windows[lane].tobytes(),
                soc.memory.read_bytes(SCRATCH, WINDOW))


class TestUniformPrograms:
    @_SETTINGS
    @given(_uniform_programs())
    def test_replay_matches_scalar_runs(self, case):
        _assert_lanes_match(*case)

    def test_word_semantics(self):
        """Shifts past 31 and past 63, wrapping add/sub/mul, negative
        immediates, unaligned little-endian loads and stores."""
        program = Program([
            Instruction(InstrKind.LI, rd=1, imm=SCRATCH),
            Instruction(InstrKind.LOAD, rd=3, rs1=1, imm=0),
            Instruction(InstrKind.LI, rd=4, imm=40),
            Instruction(InstrKind.SHL, rd=5, rs1=3, rs2=4),
            Instruction(InstrKind.LI, rd=4, imm=64 + 37),
            Instruction(InstrKind.SHR, rd=6, rs1=3, rs2=4),
            Instruction(InstrKind.MUL, rd=7, rs1=3, rs2=3),
            Instruction(InstrKind.SUB, rd=8, rs1=0, rs2=3),
            Instruction(InstrKind.ADDI, rd=9, rs1=3, imm=-(1 << 40)),
            Instruction(InstrKind.LI, rd=10, imm=0x0102030405060708),
            Instruction(InstrKind.STORE, rs1=1, rs2=10, imm=17),
            Instruction(InstrKind.LOAD, rd=11, rs1=1, imm=13),
            Instruction(InstrKind.HALT),
        ], base=BASE)
        images = [bytes([0xFF - lane] * WINDOW) for lane in range(LANES)]
        _assert_lanes_match(program, images)
        _, _, _, windows = _replay(program, images)
        assert windows[0, 17:25].tobytes() == bytes(range(8, 0, -1))


# -- declines ----------------------------------------------------------------

def _program(*instrs: Instruction) -> Program:
    """``instrs`` after loading lane data into r3 and r4 = 0x78."""
    return Program([Instruction(InstrKind.LI, rd=1, imm=SCRATCH),
                    Instruction(InstrKind.LOAD, rd=3, rs1=1, imm=0),
                    Instruction(InstrKind.LI, rd=4, imm=0x78),
                    *instrs, Instruction(InstrKind.HALT)],
                   base=BASE, labels={"end": BASE + 4 * (3 + len(instrs))})


DECLINES = {
    "data-dependent address": _program(
        Instruction(InstrKind.AND, rd=5, rs1=3, rs2=4),
        Instruction(InstrKind.ADD, rd=5, rs1=1, rs2=5),
        Instruction(InstrKind.LOAD, rd=6, rs1=5, imm=0)),
    "data-dependent branch": _program(
        Instruction(InstrKind.BLT, rs1=3, rs2=4, label="end")),
    "access outside the window": _program(
        Instruction(InstrKind.STORE, rs1=1, rs2=3, imm=WINDOW - 7)),
    "reads an rdcycle result": _program(
        Instruction(InstrKind.RDCYCLE, rd=5),
        Instruction(InstrKind.ADD, rd=6, rs1=5, rs2=3)),
    "unsupported opcode ecall": _program(
        Instruction(InstrKind.ECALL, imm=1)),
}

#: Per-lane first words: 0x00.., 0x10.., 0x80..; masked with 0x78 they
#: differ, and against 0x78 the branch goes both ways.
_DECLINE_IMAGES = [bytes([b] * WINDOW) for b in (0x00, 0x10, 0x80)]


class TestDeclines:
    @pytest.mark.parametrize("reason", sorted(DECLINES))
    def test_replay_declines(self, reason):
        with pytest.raises(ReplayDeclined, match=f"^{reason} at 0x"):
            _replay(DECLINES[reason], _DECLINE_IMAGES)

    def test_rdcycle_result_unread_is_replayed(self):
        """An ``rdcycle`` result no instruction reads, or one overwritten
        before it is read, does not decline; the caller fills the former
        from the scalar run."""
        program = _program(Instruction(InstrKind.RDCYCLE, rd=5),
                           Instruction(InstrKind.RDCYCLE, rd=6),
                           Instruction(InstrKind.LI, rd=6, imm=9),
                           Instruction(InstrKind.ADD, rd=7, rs1=6, rs2=3))
        regs, _, cycle_regs, _ = _replay(program, _DECLINE_IMAGES)
        assert cycle_regs == {5}
        assert regs[7].tolist() == [9, 9 + 0x1010101010101010,
                                    9 + 0x8080808080808080]


#: Sweep kernels that leave the replayable subset: (the kernel line
#: replaced, its replacement) per expected decline.
KERNEL_VARIANTS = {
    "data-dependent address": (
        "and r10, r10, r12", Instruction(InstrKind.AND, rd=10, rs1=6,
                                         rs2=12)),
    "data-dependent branch": (
        "shr r9, r6, r7", Instruction(InstrKind.BLT, rs1=6, rs2=4,
                                      label="loop")),
    "access outside the window": (
        "store r6, 8(r1)", Instruction(InstrKind.STORE, rs1=11, rs2=6,
                                       imm=sweep.WINDOW_SIZE)),
    "reads an rdcycle result": (
        "shr r9, r6, r7", Instruction(InstrKind.RDCYCLE, rd=9)),
    "unsupported opcode fence": (
        "shr r9, r6, r7", Instruction(InstrKind.FENCE)),
}


class TestSweepFallback:
    @pytest.mark.parametrize("reason", sorted(KERNEL_VARIANTS))
    def test_declined_sweep_equals_oracle(self, monkeypatch, replays,
                                          reason):
        line, replacement = KERNEL_VARIANTS[reason]
        real_kernel = sweep.sweep_kernel

        def variant(window_base, iters):
            program = real_kernel(window_base, iters)
            instrs = [replacement if str(instr) == line else instr
                      for instr in program.instructions]
            assert instrs != list(program.instructions)
            return Program(instrs, base=program.base, labels=program.labels,
                           name=program.name)

        monkeypatch.setattr(sweep, "sweep_kernel", variant)
        tracer = obs.Tracer(scope="sweep", seed=1)
        with obs.activate(tracer):
            lanes, oracle = _both_lanes(PlatformClass.MOBILE, 0xA5,
                                        SIZINGS["quick"])
        compare("summary", lanes, oracle)
        assert len(replays) == 1
        assert replays[0].startswith(f"{reason} at 0x")
        assert [r["args"]["reason"] for r in tracer.records
                if r["name"] == "sweep.replay_declined"] == replays
