"""Differential suite: batched attack kernels vs the scalar oracles.

The batched kernels' contract is bit-identity (same
:class:`AttackResult` including recovered keys, same RNG stream
consumption, same SoC end state down to LRU stamps and energy counters),
not approximate equality — mirroring ``tests/test_power_differential.py``
for the power instrument and ``tests/test_sweep_replay.py`` for the
kernel sweep's lane replay.  Hypothesis drives :mod:`repro.attacks.batch_diff`
across platforms, victim shapes and configurations; targeted tests pin
the edges (N=0, N=1, blocked victims, tie-breaks), the TEE hosts'
machinery (SGX's MEE and paged MMU, TrustZone's world switch,
Sanctuary's LLC exclusion and L1 flushes), the routing fallbacks and
their decline reasons, and the matrix-level invariants (payload
fingerprints and cache keys unchanged by ``batch=``).
"""

import ast
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.arch.base import AES_KEY_OFFSET
from repro.arch.null import NullArchitecture
from repro.attacks import batch
from repro.attacks.base import AttackerProcess
from repro.attacks.batch import _enclave_active, try_run_batched
from repro.attacks.batch_diff import (
    CacheScenario,
    TimingScenario,
    batched_run,
    scalar_run,
    soc_state,
)
from repro.attacks.cache_sca import (
    EvictTimeAttack,
    FlushReloadAttack,
    SharedAESService,
    _CacheAttackConfig,
)
from repro.attacks.suites import MatrixKnobs, microarch_suite, physical_suite
from repro.attacks.timing import KocherTimingAttack
from repro.core.comparison import cache_defence_table
from repro.core.figure1 import generate_figure1
from repro.core.platforms import STANDARD_PLATFORMS
from repro.cpu.soc import soc_factory_for
from repro.crypto.rng import XorShiftRNG
from repro.crypto.rsa import RSA, generate_rsa_key
from repro.errors import SecurityViolation
from repro.lockstep import run_pair
from repro.obs.observer import RunObserver
from repro.runner import ExperimentRunner, payload_fingerprint

PLATFORMS = ("server-desktop", "mobile", "embedded")
#: (host, platform) pairs the kernels model; the TEE hosts need an MMU
#: and a second core, which the embedded platform lacks.
HOSTED = [("null", p) for p in PLATFORMS] + [
    (host, p) for host in ("sgx", "trustzone", "sanctuary")
    for p in ("server-desktop", "mobile")]


class TestCacheHypothesis:
    @settings(max_examples=25, deadline=None)
    @given(
        attack=st.sampled_from(["prime+probe", "flush+reload"]),
        hosted=st.sampled_from(HOSTED),
        enclave=st.booleans(),
        cold_tlb=st.booleans(),
        dirty_core=st.booleans(),
        seed=st.integers(min_value=1, max_value=2**63),
        samples=st.integers(min_value=0, max_value=6),
        values=st.sampled_from([2, 4, 8]),
        targets=st.sampled_from([(0,), (0, 5), (15,), (3, 7, 11)]),
    )
    def test_probe_attacks_bit_identical(self, attack, hosted, enclave,
                                         cold_tlb, dirty_core, seed,
                                         samples, values, targets):
        host, platform = hosted
        # A TEE refuses Flush+Reload's first probe of enclave memory
        # before any lane choice, so such a run measures nothing
        # (TestDeclineReasons pins that case).
        assume(not (attack == "flush+reload" and enclave and host != "null"))
        run_pair(CacheScenario(
            attack=attack, platform=platform, host=host,
            enclave_victim=enclave, cold_tlb=cold_tlb,
            dirty_core=dirty_core, seed=seed, samples_per_value=samples,
            plaintext_values=values, target_bytes=targets),
            batched_run, scalar_run)

    @settings(max_examples=15, deadline=None)
    @given(
        hosted=st.sampled_from(HOSTED),
        cold_tlb=st.booleans(),
        seed=st.integers(min_value=1, max_value=2**63),
        samples=st.integers(min_value=0, max_value=4),
        targets=st.sampled_from([(0,), (0, 5)]),
    )
    def test_evict_time_bit_identical(self, hosted, cold_tlb, seed, samples,
                                      targets):
        # Evict+Time's kernel covers enclave victims only; the service
        # shape is a routing (fallback) case, tested below.
        host, platform = hosted
        run_pair(CacheScenario(
            attack="evict+time", platform=platform, host=host,
            enclave_victim=True, cold_tlb=cold_tlb, seed=seed,
            samples_per_value=samples, target_bytes=targets),
            batched_run, scalar_run)


class TestTEEHosts:
    @pytest.mark.parametrize("dirty_core", [False, True])
    @pytest.mark.parametrize("host", ["sgx", "trustzone", "sanctuary"])
    def test_prime_probe_accepted_and_identical(self, host, dirty_core):
        # run_pair fails on a declined kernel, so this pins acceptance.
        # A dirty victim core shows the switch replay (context, flushes).
        platform = "server-desktop" if host == "sgx" else "mobile"
        run_pair(CacheScenario(attack="prime+probe", host=host,
                               platform=platform, samples_per_value=2,
                               dirty_core=dirty_core),
                               batched_run, scalar_run)

    @pytest.mark.parametrize("host", ["null", "sgx", "trustzone",
                                      "sanctuary"])
    def test_enclave_context_describes_the_real_switch(self, host):
        # The kernels replay arch.enclave_context (and, for SGX's EPC
        # check, _enclave_active) instead of switching per
        # encryption, so both must match what enter/exit really do.
        attack, _, soc = CacheScenario(attack="prime+probe", host=host,
                                       platform="mobile",
                                       dirty_core=True).build()
        arch, handle = attack.victim.arch, attack.victim.handle
        core = soc.cores[handle.core_id]
        l1 = soc.hierarchy.l1s[handle.core_id]
        context = arch.enclave_context(handle)
        mmu_context = (core.mmu.root, core.mmu.asid)
        with _enclave_active(arch, core, handle):
            prerun_active = dict(getattr(arch, "active_enclave", {}))
        assert l1.resident_lines()  # the dirty core's full L1

        arch.enter_enclave(handle)
        assert core.domain == handle.domain
        assert (core.privilege, core.world.is_secure) \
            == (context.privilege, context.secure)
        if context.page_table is not None:
            mmu_context = (context.page_table.root, context.page_table.asid)
        assert (core.mmu.root, core.mmu.asid) == mmu_context
        assert dict(getattr(arch, "active_enclave", {})) == prerun_active
        assert (not l1.resident_lines()) == context.flush_l1

        soc.hierarchy.access(handle.core_id, soc.dram_base + 0x20_0000,
                             domain=handle.domain)
        arch.exit_enclave(handle)
        assert (not l1.resident_lines()) == context.flush_l1

    def test_sgx_tlb_misses_walk_identically(self):
        # A cold TLB makes the first encryption walk the OS page table
        # (walker bus reads, miss charges) before the TLB hits.
        batched, _ = run_pair(CacheScenario(
            attack="evict+time", host="sgx", cold_tlb=True,
            samples_per_value=1, target_bytes=(0,)),
            batched_run, scalar_run)
        assert batched.soc["tlb-core0"]["misses"] > 0  # misses replayed

    def test_tampered_epc_word_declines_and_scalar_raises(self):
        # The MEE verifies every word before the kernel mutates anything:
        # a failed tag declines with the SoC untouched, and the scalar
        # fallback then raises the same integrity violation.
        def build():
            attack, _, soc = CacheScenario(
                attack="prime+probe", host="sgx",
                samples_per_value=1).build()
            victim = attack.victim
            va = victim.handle.base + AES_KEY_OFFSET  # read every encrypt
            frame, _ = victim.arch.os_page_table.lookup(va & ~0xFFF)
            paddr = frame | (va & 0xFFF)
            soc.memory.write_word(paddr, soc.memory.read_word(paddr) ^ 1)
            return attack, soc

        attack, soc = build()
        arch = attack.victim.arch
        before = soc_state(soc, arch), attack.rng._state
        with obs.activate(obs.Tracer(scope="tamper", seed=1)):
            assert try_run_batched(attack) is None
            reasons = _decline_reasons()
        assert reasons == ["mee-integrity"]
        assert (soc_state(soc, arch), attack.rng._state) == before
        with pytest.raises(SecurityViolation) as via_fallback:
            attack.run()
        with pytest.raises(SecurityViolation) as scalar:
            build()[0]._measure()
        assert str(via_fallback.value) == str(scalar.value)


def _decline_reasons() -> list[str]:
    return [r["args"]["reason"] for r in obs.current_tracer().records
            if r["name"] == "attack.batch_declined"]


class TestDeclineReasons:
    def test_sanctum_row_declines_on_its_dma_filter(self):
        attack, _, soc = CacheScenario(attack="prime+probe", host="sanctum",
                                       samples_per_value=1).build()
        with obs.activate(obs.Tracer(scope="decline", seed=1)):
            assert try_run_batched(attack) is None
            assert _decline_reasons() == ["bus-controller"]

    @pytest.mark.parametrize("host", ["sgx", "trustzone", "sanctuary"])
    def test_tee_refused_flush_reload_probe_declines(self, host):
        scenario = CacheScenario(attack="flush+reload", host=host,
                                 platform="mobile", samples_per_value=1)
        attack, rng, soc = scenario.build()
        arch = attack.victim.arch
        before = soc_state(soc, arch), rng._state
        with obs.activate(obs.Tracer(scope="decline", seed=1)):
            assert try_run_batched(attack) is None
            assert _decline_reasons() == ["bus-denied"]
        assert (soc_state(soc, arch), rng._state) == before
        scalar = scalar_run(scenario)
        assert (attack.run(), rng._state, soc_state(soc, arch)) \
            == (scalar.result, scalar.rng_state, scalar.soc)

    @pytest.mark.parametrize("host", ["sgx", "trustzone", "sanctuary",
                                      "sanctum"])
    def test_tee_blocks_flush_reload_before_any_lane(self, host,
                                                     monkeypatch):
        # The refused probe runs in run(), before the lane choice: the
        # kernel is never asked, and both lanes return one blocked result.
        def kernel(attack):
            raise AssertionError("a blocked Flush+Reload reached the kernel")

        monkeypatch.setattr(batch, "try_run_batched", kernel)
        scenario = CacheScenario(attack="flush+reload", host=host,
                                 platform="mobile", samples_per_value=1)
        lanes = []
        for lane in (True, False):
            attack, rng, soc = scenario.build()
            attack.batch = lane
            with obs.activate(obs.Tracer(scope="blocked", seed=1)) as tracer:
                result = attack.run()
            assert [r["name"] for r in tracer.records] \
                == ["flush+reload.blocked"]
            lanes.append((result, rng._state,
                          soc_state(soc, attack.victim.arch)))
        assert lanes[0] == lanes[1]
        assert lanes[0][0].details == {
            "blocked": "victim memory not attacker-addressable"}

    def test_accepted_run_emits_no_decline(self):
        attack, _, _ = CacheScenario(attack="prime+probe",
                                     samples_per_value=1).build()
        with obs.activate(obs.Tracer(scope="decline", seed=1)):
            assert try_run_batched(attack) is not None
            assert _decline_reasons() == []


class TestTimingHypothesis:
    @settings(max_examples=25, deadline=None)
    @given(
        rsa_bits=st.sampled_from([32, 48, 64]),
        samples=st.integers(min_value=0, max_value=96),
        max_bits=st.integers(min_value=0, max_value=10),
        noise_std=st.sampled_from([0.0, 0.5, 2.0]),
        seed=st.integers(min_value=1, max_value=2**63),
    )
    def test_kocher_bit_identical(self, rsa_bits, samples, max_bits,
                                  noise_std, seed):
        run_pair(TimingScenario(
            rsa_bits=rsa_bits, samples=samples, max_bits=max_bits,
            noise_std=noise_std, seed=seed, key_seed=seed ^ 0x5EED),
            batched_run, scalar_run)


class TestDifferentialEdges:
    @pytest.mark.parametrize("attack",
                             ["prime+probe", "flush+reload", "evict+time"])
    @pytest.mark.parametrize("samples", [0, 1])
    def test_degenerate_sample_counts(self, attack, samples):
        run_pair(CacheScenario(attack=attack, samples_per_value=samples),
                 batched_run, scalar_run)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_kocher_degenerate_sample_counts(self, samples):
        run_pair(TimingScenario(samples=samples), batched_run, scalar_run)

    def test_kocher_zero_attack_bits(self):
        # bits_total - 1 can undercut max_bits; score defined as 0.0.
        batched, scalar = run_pair(TimingScenario(max_bits=0), batched_run,
                                   scalar_run)
        assert scalar.result.score == 0.0

    def test_evict_time_tiny_tie_break(self):
        # One sample per value: per-line cycle totals tie frequently and
        # the verdict hangs on argmax order — both paths must break ties
        # identically (first-lowest wins).
        for seed in (1, 2, 3, 0xBEEF):
            run_pair(CacheScenario(
                attack="evict+time", samples_per_value=1,
                plaintext_values=2, target_bytes=(0,), seed=seed),
                batched_run, scalar_run)

    def test_flush_reload_blocked_victim_identical(self):
        # An enclave victim's memory is not attacker-addressable on the
        # probe path: both paths must return the same blocked result
        # without perturbing the SoC.
        batched, scalar = run_pair(CacheScenario(
            attack="flush+reload", enclave_victim=True, platform="mobile"),
            batched_run, scalar_run)
        assert batched.result.details == scalar.result.details

    def test_observed_and_unobserved_batched_runs_identical(self):
        sc = CacheScenario(attack="flush+reload", enclave_victim=False)
        unobserved = batched_run(sc)
        with obs.activate(obs.Tracer(scope="attack-diff", seed=7)) as tracer:
            observed = batched_run(sc)
            assert obs.current_tracer() is tracer
        # The harness records into the caller's tracer, never its own.
        assert [r["args"]["byte"] for r in tracer.records
                if r["name"] == "flush+reload:byte"] == list(sc.target_bytes)
        assert observed.result.details == unobserved.result.details
        assert observed.soc == unobserved.soc

    def test_batched_span_count_bounded_by_bytes_not_samples(self):
        # Satellite of the span-hoist work: observability cost must stay
        # per-byte.  Quadrupling the sample count may not add records.
        def records(samples):
            sc = CacheScenario(attack="flush+reload", enclave_victim=False,
                               samples_per_value=samples)
            with obs.activate(obs.Tracer(scope="span-bound", seed=1)):
                batched_run(sc)
                return len(obs.current_tracer().records)

        assert records(8) == records(2)
        assert records(2) <= 2 * len(CacheScenario().target_bytes) + 2


def test_kernels_return_measurements_not_results():
    """The kernels measure; grading and the result are the attacks'."""
    tree = ast.parse(Path(batch.__file__).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.asname or alias.name.rpartition(".")[2]
                         for alias in node.names)
    assert not {"AttackResult", "AttackCategory", "_grade"} & named


def _cache_attack(cls, enclave=False, rng_cls=XorShiftRNG, batch=False):
    from repro.cpu.soc import make_server_soc
    soc = make_server_soc()
    arch = NullArchitecture(soc)
    arch.install()
    rng = rng_cls(0x5CA)
    key = rng.bytes(16)
    victim = (arch.deploy_aes_victim(key, core_id=0) if enclave
              else SharedAESService(soc, key, core_id=0))
    attacker = AttackerProcess(arch, core_id=1)
    config = _CacheAttackConfig(samples_per_value=3, plaintext_values=4,
                                target_bytes=(0,))
    return cls(victim, attacker, rng, config, batch=batch), soc


class TestRouting:
    def test_subclassed_rng_falls_back(self):
        # Aliased/derived RNG streams: the kernel pre-draws randomness in
        # blocks, which is only sound for the exact XorShiftRNG contract.
        class LoggingRNG(XorShiftRNG):
            pass

        attack, _ = _cache_attack(FlushReloadAttack, rng_cls=LoggingRNG)
        assert try_run_batched(attack) is None

    def test_subclassed_rng_run_matches_scalar(self):
        class LoggingRNG(XorShiftRNG):
            pass

        via_knob, soc_a = _cache_attack(FlushReloadAttack,
                                        rng_cls=LoggingRNG, batch=True)
        scalar, soc_b = _cache_attack(FlushReloadAttack,
                                      rng_cls=LoggingRNG, batch=False)
        assert via_knob.run().details == scalar.run().details
        assert soc_state(soc_a) == soc_state(soc_b)

    def test_evict_time_service_victim_falls_back(self):
        attack, _ = _cache_attack(EvictTimeAttack, enclave=False)
        assert try_run_batched(attack) is None

    def test_constant_time_victim_falls_back(self):
        key = generate_rsa_key(48, XorShiftRNG(3))
        attack = KocherTimingAttack(RSA(key, constant_time=True),
                                    samples=8, max_bits=4,
                                    rng=XorShiftRNG(5))
        assert try_run_batched(attack) is None

    def test_batch_knob_dispatches_and_matches(self):
        batched, soc_a = _cache_attack(FlushReloadAttack, batch=True)
        scalar, soc_b = _cache_attack(FlushReloadAttack, batch=False)
        assert batched.run().details == scalar.run().details
        assert soc_state(soc_a) == soc_state(soc_b)


class TestMatrixEquivalence:
    @pytest.mark.parametrize(
        "profile", STANDARD_PLATFORMS,
        ids=[p.platform.value for p in STANDARD_PLATFORMS])
    @pytest.mark.parametrize("suite", [microarch_suite, physical_suite],
                             ids=["microarch", "physical"])
    def test_recovered_keys_equal_across_batch_knob(self, profile, suite):
        knobs = MatrixKnobs.quick()

        def cell(reference):
            arch = NullArchitecture(soc_factory_for(profile.platform)(),
                                    profile.platform)
            return suite(arch, XorShiftRNG(0x2019), knobs,
                         reference=reference)

        for batched, scalar in zip(cell(False), cell(True)):
            assert batched.name == scalar.name
            assert batched.score == scalar.score
            assert batched.success == scalar.success
            assert batched.leaked == scalar.leaked
            assert batched.details == scalar.details

    def test_payload_fingerprints_unchanged_by_batch(self):
        # The fingerprint covers every deterministic payload field (wall
        # time is volatile), so equal fingerprints mean ``batch=`` runs
        # share cache entries with scalar runs byte-for-byte.
        from repro.runner import CellSpec, payload_fingerprint
        from repro.runner.engine import execute_spec
        knobs = MatrixKnobs.quick().as_key()
        for platform in PLATFORMS:
            for category in ("microarchitectural", "classical-physical"):
                spec = CellSpec(seed=0x2019, platform=platform,
                                category=category, knobs=knobs)
                assert payload_fingerprint(execute_spec(spec)) \
                    == payload_fingerprint(execute_spec(spec, reference=True))


class _Fingerprints(RunObserver):
    """Records each finished cell's payload fingerprint."""

    def __init__(self) -> None:
        self.by_cell: dict[tuple[str, str], str] = {}

    def on_cell_end(self, spec, status, attempts, payload) -> None:
        if payload is not None:
            self.by_cell[(spec.platform, spec.category)] = \
                payload_fingerprint(payload)


def test_quick_figure1_identical_on_both_runner_lanes():
    """The whole quick matrix, every cell kind at once: the default
    runner (batched attacks, sweep lane replay) and
    ``ExperimentRunner(reference=True)`` (the scalar oracles) produce the
    same 15 payload fingerprints and the same rendered Figure 1."""
    lanes = {}
    for reference in (False, True):
        seen = _Fingerprints()
        runner = ExperimentRunner(observer=seen, reference=reference)
        figure = generate_figure1(quick=True, runner=runner)
        assert len(seen.by_cell) == 15
        lanes[reference] = (seen.by_cell, figure.render())
    assert lanes[False] == lanes[True]


@pytest.mark.diff
def test_tab_s41_with_evict_time_identical_on_both_runner_lanes():
    """TAB-S41 with its Evict+Time column: the default runner (batched
    attacks where the kernels model the host) and
    ``ExperimentRunner(reference=True)`` produce the same five payload
    fingerprints.  Scalar Evict+Time takes about half a minute, so this
    runs under ``make diff`` only."""
    lanes = {}
    for reference in (False, True):
        seen = _Fingerprints()
        runner = ExperimentRunner(observer=seen, reference=reference)
        rows = cache_defence_table(include_evict_time=True, runner=runner)
        assert len(seen.by_cell) == 5
        lanes[reference] = (seen.by_cell, rows)
    assert lanes[False] == lanes[True]
    assert [row.evict_time for row in lanes[True][1]] \
        == [1.0, 1.0, 0.0, 1.0, 0.0]
