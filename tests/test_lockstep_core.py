"""The shared lockstep core catches a divergence in every harness.

All six differential suites (the CPU engine, the sweep's lane replay,
the batched attacks, the batched power capture, the memoized scanner
and SGX's page mover for enclave loads and page swaps) compare through
:func:`repro.lockstep.compare`,
so a comparator that missed a mismatch would hide it everywhere.  Each
test here runs one harness with exactly one observable changed on the
fast side only, and requires a :class:`Divergence` that names it.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.arch.sgx import SGX
from repro.attacks import batch
from repro.attacks.batch_diff import CacheScenario, batched_run, scalar_run
from repro.cpu.diff import lockstep, reference_twin
from repro.cpu.soc import make_embedded_soc
from repro.isa import assemble
from repro.lockstep import Divergence, compare, run_pair
from repro.memory.paging import PAGE_SIZE
from repro.power.diff import SCAConfig, batched_capture, scalar_capture
from repro.spec import (
    GADGETS_BY_NAME,
    MemoizedSpeculationExplorer,
    SpeculationExplorer,
)
from repro.spec.explore_diff import explore_with
from repro.spec.scanner import scan_config_for
from tests.conftest import AES_KEY
from tests.test_enclave_load import _build, _outcome


def test_attack_harness_names_one_llc_lru_stamp(monkeypatch):
    real = batch.try_run_batched

    def bumped(attack):
        result = real(attack)
        attack.attacker.soc.hierarchy.l2.materialise(3).policy._last_use[0] += 1
        return result

    monkeypatch.setattr(batch, "try_run_batched", bumped)
    with pytest.raises(Divergence,
                       match=r"^soc\.llc\.lru\[3\]\[1\]\[0\] diverged"):
        run_pair(CacheScenario(attack="prime+probe", samples_per_value=1),
                 batched_run, scalar_run)


@pytest.mark.parametrize("bump", [0, 1])
def test_attack_harness_sees_a_stamp_in_an_untouched_set(monkeypatch, bump):
    """A set the run never touched snapshots as pristine whether or not
    it was allocated, and a stamp changed there is still named."""
    real = batch.try_run_batched
    bumped_sets = []

    def bumped(attack):
        result = real(attack)
        llc = attack.attacker.soc.hierarchy.l2
        idx = next(i for i in range(llc.num_sets)
                   if llc.set_state(i) is llc.pristine)
        llc.materialise(idx).policy._last_use[0] += bump
        bumped_sets.append(idx)
        return result

    monkeypatch.setattr(batch, "try_run_batched", bumped)
    scenario = CacheScenario(attack="prime+probe", samples_per_value=1)
    if not bump:
        run_pair(scenario, batched_run, scalar_run)
        return
    with pytest.raises(Divergence) as caught:
        run_pair(scenario, batched_run, scalar_run)
    assert str(caught.value).startswith(
        f"soc.llc.lru[{bumped_sets[0]}][1][0] diverged")


def test_attack_harness_names_a_stamp_in_a_steady_set(monkeypatch):
    """The twin leaves the sets of the last sweeps in symbolic (steady)
    form and expands them only at the writeback; one stamp changed in
    such a set is named."""
    real = batch._SimHierarchy.writeback
    bumped = []

    def skewed(sim):
        llc = sim.l2
        idx = min(llc.steady)
        way = llc.steady[idx].ways[-1]
        llc.concrete(idx)
        llc.last_use[idx][way] += 1
        bumped.append((idx, way))
        real(sim)

    monkeypatch.setattr(batch._SimHierarchy, "writeback", skewed)
    with pytest.raises(Divergence) as caught:
        run_pair(CacheScenario(attack="prime+probe", samples_per_value=1),
                 batched_run, scalar_run)
    idx, way = bumped[0]
    assert str(caught.value).startswith(
        f"soc.llc.lru[{idx}][1][{way}] diverged")


def test_power_harness_compares_samples_bitwise():
    # Round 11 never fires, so its sample slots stay zero on both paths.
    config = SCAConfig(key=AES_KEY, num_traces=4, rounds_of_interest=(1, 11))

    def sign_flipped(config):
        outcome = batched_capture(config)
        samples = outcome.capture["samples"].copy()
        assert samples[0, 16] == 0.0
        samples[0, 16] = -samples[0, 16]
        assert (samples == outcome.capture["samples"]).all()  # == is blind
        outcome.capture["samples"] = samples
        return outcome

    with pytest.raises(Divergence,
                       match=r"^capture\.samples\[0, 16\] diverged"):
        run_pair(config, sign_flipped, scalar_capture)


def test_rng_end_state_is_compared():
    def skewed(config):
        outcome = batched_capture(config)
        return replace(outcome, noise_rng_state=outcome.noise_rng_state ^ 1)

    with pytest.raises(Divergence, match=r"^noise_rng_state diverged"):
        run_pair(SCAConfig(key=AES_KEY, num_traces=4), skewed,
                 scalar_capture)


def test_cpu_lockstep_names_the_register_and_the_step():
    program = assemble("""
    entry:
        li r1, 1
        li r2, 2
        add r3, r1, r2
        add r4, r3, r3
        halt
    """, base=0x8000_1000)
    fast = make_embedded_soc()
    ref = reference_twin(fast)
    for soc in (fast, ref):
        soc.cores[0].load_program(program, entry="entry")
    core = fast.cores[0]
    step, steps = core.step, []

    def skewed():
        more = step()
        steps.append(more)
        if len(steps) == 3:
            core.regs[5] ^= 1
        return more

    core.step = skewed
    with pytest.raises(Divergence,
                       match=r"^step 2: soc\.core0\.regs\[5\] diverged"):
        lockstep(fast, ref)


def test_explorer_harness_names_one_leak_event_field():
    config = scan_config_for("commodity-speculative")

    def deeper(gadget):
        outcome = explore_with(MemoizedSpeculationExplorer, config, gadget)
        first = outcome.leaks[0]
        outcome.leaks[0] = replace(first, depth=first.depth + 1)
        return outcome

    with pytest.raises(Divergence, match=r"^leaks\[0\]\.depth diverged"):
        run_pair(GADGETS_BY_NAME["v1-bounds-bypass"], deeper,
                 partial(explore_with, SpeculationExplorer, config))


def test_enclave_harness_names_one_l1_view_word(monkeypatch):
    """ELDU's batch with one word of the speculative L1 view changed."""
    real = SGX._move_words
    skewed = []

    def skew(self, core, entry, region, paddr, count, words, reload=False):
        moved = real(self, core, entry, region, paddr, count, words, reload)
        if reload:
            core._l1_view[paddr] ^= 1
            skewed.append(paddr)
        return moved

    def swap(patch, per_word):
        sgx, handles = _build((PAGE_SIZE,), patch, per_word=per_word)
        sgx.swap_out(handles[0], 0)
        sgx.swap_in(handles[0], 0)
        return _outcome(sgx, handles)

    with monkeypatch.context() as patch:
        patch.setattr(SGX, "_move_words", skew)
        fast = swap(patch, False)
    with monkeypatch.context() as patch:
        ref = swap(patch, True)
    assert len(skewed) == 1
    with pytest.raises(Divergence, match=(
            rf"^swap\.soc\.core0\.l1_view\[{skewed[0]}\] diverged")):
        compare("swap", fast, ref)
