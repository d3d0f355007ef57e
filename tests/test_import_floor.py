"""The import floor: each command loads only the layers it runs.

A warm ``figure1`` render reads 15 cached cells and aggregates them; it
must not pay for attack kernels or numpy, and only ``cache`` (TAB-S41)
among the table commands runs cache attacks.  No serial command loads the
process pool's modules or the host probes (``platform``, ``socket``).
These checks run each command in a fresh interpreter and assert on its
``sys.modules`` afterwards, pin which modules may import numpy at module
level, hold every package ``__init__`` to lazy exports, and pin the lazy
package namespaces to the public names they always had.  The invariants
at the end (version, cache keys, job id, knob keys) are what a layering
change must leave untouched.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Runs ``repro.__main__.main(argv)`` and reports its exit code, stdout
#: and every module loaded by the end as one JSON line.
_PROBE = """
import contextlib, io, json, sys
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "modules": sorted(sys.modules)}))
"""

#: Prints, as JSON, the modules first imported while executing the quick
#: Figure 1 or TAB-S41 cells after ``_import_cell_modules`` ran for them.
_CELL_IMPORTS = """
import json, sys
from repro.core.comparison import _CACHE_DEFENCES
from repro.runner.engine import CellSpec, _import_cell_modules, execute_spec
from repro.service import JobSpec
if sys.argv[1] == "figure1":
    specs = JobSpec.matrix(quick=True).cells()
else:
    specs = [CellSpec(seed=0x41, platform=name, category="cache-defence",
                      knobs=(("evict_time", 0), ("quick", 1)))
             for name in _CACHE_DEFENCES]
_import_cell_modules(specs)
loaded = set(sys.modules)
for spec in specs:
    execute_spec(spec)
print(json.dumps(sorted(set(sys.modules) - loaded)))
"""

#: Standard-library modules that only the process pool (``concurrent.
#: futures``, ``multiprocessing``), the manifest's host record
#: (``platform``) and a hostname lookup (``socket``) used to load.
POOL_AND_HOST_MODULES = ("concurrent.futures", "multiprocessing",
                         "platform", "socket")

#: The kernels: the only modules allowed a module-level numpy import.
NUMPY_KERNELS = {
    "repro/attacks/batch.py",
    "repro/attacks/cache_sca.py",
    "repro/attacks/dpa.py",
    "repro/core/sweep.py",
    "repro/crypto/aes_batch.py",
    "repro/lockstep.py",
    "repro/power/batch.py",
    "repro/power/leakage.py",
    "repro/power/trace.py",
}


def _env(tmp_path: Path) -> dict[str, str]:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cells")
    return env


def _assert_no_pool_or_host_modules(loaded: set[str]) -> None:
    """A serial command loads none of :data:`POOL_AND_HOST_MODULES`.
    numpy imports ``platform`` itself (``numpy.lib._utils_impl``), so a
    command that runs numpy kernels is held to the other three."""
    for module in POOL_AND_HOST_MODULES:
        if module == "platform" and "numpy" in loaded:
            continue
        assert module not in loaded, module


def _probe(tmp_path: Path, *argv: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          env=_env(tmp_path), capture_output=True,
                          text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["modules"] = set(result["modules"])
    return result


class TestCommandModuleSets:
    def test_warm_figure1_loads_no_kernels(self, tmp_path):
        subprocess.run([sys.executable, "-m", "repro", "figure1"],
                       env=_env(tmp_path), capture_output=True, check=True)
        warm = _probe(tmp_path, "figure1")
        assert warm["code"] == 0
        assert "cache: 15 hits / 0 misses" in warm["stdout"]
        assert ("cell agreement with the published Figure 1: 100%"
                in warm["stdout"])
        loaded = warm["modules"]
        for module in ("numpy", "repro.attacks.suites",
                       "repro.attacks.cache_sca", "repro.power",
                       "repro.core.cells", "repro.cpu.soc"):
            assert module not in loaded, module
        assert not [m for m in loaded if m.startswith("repro.crypto")]
        _assert_no_pool_or_host_modules(loaded)

    def test_cold_figure1_loads_only_kernel_architectures(self, tmp_path):
        """``repro.arch`` is lazy: a cold render loads the three
        architectures the batched kernels model, not all eight."""
        cold = _probe(tmp_path, "figure1")
        assert "cache: 0 hits / 15 misses" in cold["stdout"]
        assert {m for m in cold["modules"] if m.startswith("repro.arch.")} \
            == {"repro.arch.base", "repro.arch.null", "repro.arch.sanctuary",
                "repro.arch.sgx", "repro.arch.trustzone"}
        _assert_no_pool_or_host_modules(cold["modules"])

    def test_pooled_figure1_builds_its_pool(self, tmp_path):
        """The pool's modules load where the pool is built."""
        pooled = _probe(tmp_path, "figure1", "--jobs", "2")
        assert pooled["code"] == 0
        assert "mode=process-pool" in pooled["stdout"]
        assert "concurrent.futures.process" in pooled["modules"]

    @pytest.mark.parametrize("cells", ["figure1", "tab-s41"])
    def test_fork_preload_covers_cell_imports(self, tmp_path, cells):
        """What the pool imports before it forks (the cell modules and
        their ``FORK_PRELOAD``) is everything the cells import, so a
        forked worker imports nothing of its own."""
        proc = subprocess.run(
            [sys.executable, "-c", _CELL_IMPORTS, cells],
            env=_env(tmp_path), capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == []

    def test_cache_table_loads_no_pool_or_host_modules(self, tmp_path):
        result = _probe(tmp_path, "cache")
        assert result["code"] == 0
        _assert_no_pool_or_host_modules(result["modules"])

    def test_cache_table_loads_what_it_runs(self, tmp_path):
        """A cold TAB-S41 runs the cache attacks but never ``np.unique``,
        which imports ``numpy.ma``; a warm one renders the five cached
        rows and loads no architecture, attack or numpy."""
        cold = _probe(tmp_path, "cache")
        assert cold["code"] == 0
        assert "repro.attacks.cache_sca" in cold["modules"]
        assert "numpy.ma" not in cold["modules"]
        warm = _probe(tmp_path, "cache")
        assert warm["stdout"] == cold["stdout"]
        loaded = warm["modules"]
        assert "numpy" not in loaded
        assert "repro.attacks.cache_sca" not in loaded
        assert not [m for m in loaded if m.startswith("repro.arch")]
        _assert_no_pool_or_host_modules(loaded)

    def test_comparison_module_imports_no_table(self, tmp_path):
        """``import repro.core.comparison`` (the ``tab-s41`` benchmark's
        set-up import) loads no architecture, SoC model, attack or numpy:
        each table imports what it runs when it runs."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, repro.core.comparison\n"
             "print(json.dumps(sorted(sys.modules)))"],
            env=_env(tmp_path), capture_output=True, text=True, check=True)
        loaded = set(json.loads(proc.stdout))
        assert "numpy" not in loaded
        assert not [m for m in loaded if m.startswith(
            ("repro.arch", "repro.cpu", "repro.attacks"))]
        _assert_no_pool_or_host_modules(loaded)

    @pytest.mark.parametrize("command",
                             ["architectures", "transient", "advisor"])
    def test_table_commands_load_no_numpy(self, tmp_path, command):
        """Only TAB-S41 runs cache attacks; the other tables and the
        advisor load neither their kernels nor numpy."""
        result = _probe(tmp_path, command)
        assert result["code"] == 0
        assert "numpy" not in result["modules"]
        assert "repro.attacks.cache_sca" not in result["modules"]

    def test_full_scan_loads_no_numpy(self, tmp_path):
        scan = _probe(tmp_path, "scan", "--full", "--no-cache")
        assert scan["code"] == 0
        assert "numpy" not in scan["modules"]
        assert "repro.attacks.cache_sca" not in scan["modules"]
        assert "repro.crypto.aes" not in scan["modules"]
        _assert_no_pool_or_host_modules(scan["modules"])

    def test_submit_loads_no_numpy(self, tmp_path):
        submit = _probe(tmp_path, "submit", "--queue",
                        str(tmp_path / "queue"))
        assert submit["code"] == 0
        assert "submitted job-77b62816dd3e193e" in submit["stdout"]
        assert "numpy" not in submit["modules"]
        _assert_no_pool_or_host_modules(submit["modules"])

    def test_package_imports_are_lazy(self, tmp_path):
        """The benchmark's ``setup_s`` import: the package namespaces
        themselves load none of their submodules (bar the one
        :func:`test_package_inits_import_no_submodules` allows)."""
        packages = sorted(LAZY_EXPORTS)
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import json, sys, {', '.join(packages)}\n"
             "print(json.dumps(sorted(sys.modules)))"],
            env=_env(tmp_path), capture_output=True, text=True, check=True)
        loaded = set(json.loads(proc.stdout))
        assert "numpy" not in loaded
        _assert_no_pool_or_host_modules(loaded)
        assert {m for m in loaded if m.startswith(tuple(
            f"{package}." for package in packages))} \
            == {"repro.crypto.sha256"}


def test_arch_package_is_lazy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro.arch.null\n"
         "print(json.dumps(sorted(sys.modules)))"],
        env=_env(tmp_path), capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {m for m in loaded if m.startswith("repro.arch")} \
        == {"repro.arch", "repro.arch.base", "repro.arch.null"}


def test_arch_public_names_unchanged():
    import repro.arch as arch
    names = ["AESVictim", "ALL_ARCHITECTURES", "ArchFeatures",
             "EnclaveContext", "EnclaveHandle", "SGX", "SMART", "Sanctuary",
             "Sanctum", "Sancus", "SecurityArchitecture", "TrustLite",
             "TrustZone", "TyTAN"]
    assert arch.__all__ == names
    assert set(names) <= set(dir(arch))
    namespace: dict = {}
    exec("from repro.arch import *", namespace)
    assert set(names) <= set(namespace)
    assert [cls.NAME for cls in arch.ALL_ARCHITECTURES] == [
        "sgx", "sanctum", "trustzone", "sanctuary", "smart", "sancus",
        "trustlite", "tytan"]
    from repro.arch.sgx import SGX
    assert arch.SGX is SGX
    with pytest.raises(AttributeError):
        getattr(arch, "no_such_name")


def _module_level_imports(tree: ast.Module):
    """Import statements that run when the module is imported: the
    top level and the bodies of top-level ``if``/``try`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse)
            stack.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)


def _imports_numpy(node: ast.Import | ast.ImportFrom) -> bool:
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    return any(alias.name.split(".")[0] == "numpy" for alias in node.names)


def test_numpy_imported_at_module_level_only_by_kernels():
    importers = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(_imports_numpy(node) for node in _module_level_imports(tree)):
            importers.add(path.relative_to(SRC).as_posix())
    assert importers <= NUMPY_KERNELS, sorted(importers - NUMPY_KERNELS)


#: Every package's public names, grouped by the submodule that defines
#: them (``None``: defined in the package ``__init__`` itself); these are
#: the names each package exported when it was eager.
LAZY_EXPORTS = {
    "repro.arch": {
        "base": ("AESVictim", "ArchFeatures", "EnclaveContext",
                 "EnclaveHandle", "SecurityArchitecture"),
        "sanctuary": ("Sanctuary",),
        "sanctum": ("Sanctum",),
        "sancus": ("Sancus",),
        "sgx": ("SGX",),
        "smart": ("SMART",),
        "trustlite": ("TrustLite",),
        "trustzone": ("TrustZone",),
        "tytan": ("TyTAN",),
        None: ("ALL_ARCHITECTURES",),
    },
    "repro.attacks": {
        "base": ("AttackerProcess",),
        "cache_sca": ("EvictTimeAttack", "FlushReloadAttack",
                      "PrimeProbeAttack"),
        "clkscrew_attack": ("ClkscrewAttack",),
        "controlled_channel": ("ControlledChannelAttack",
                               "PagedModExpVictim"),
        "dpa": ("cpa_attack", "cpa_recover_key", "dpa_attack",
                "dpa_recover_key"),
        "fault_attacks": ("AESLastRoundDFA", "BellcoreRSAAttack"),
        "foreshadow": ("ForeshadowAttack",),
        "meltdown": ("MeltdownAttack",),
        "result": ("AttackCategory", "AttackResult"),
        "rowhammer": ("RowhammerAttack",),
        "software": ("CodeInjectionAttack", "DMAAttack",
                     "KernelMemoryProbeAttack"),
        "spectre": ("SpectreBTBAttack", "SpectreV1Attack"),
        "timing": ("KocherTimingAttack",),
    },
    "repro.attestation": {
        "cfa": ("ControlFlowAttestor", "expected_path_hash",
                "hash_cflow_trace"),
        "measure": ("Measurement", "measure_memory"),
        "protocol": ("RemoteVerifier", "VerificationResult"),
        "report": ("AttestationReport",),
    },
    "repro.cache": {
        "btb": ("BranchTargetBuffer",),
        "cache": ("AccessResult", "Cache", "CacheStats"),
        "hierarchy": ("CacheHierarchy", "HierarchyConfig", "MemoryAccess"),
        "partition": ("WayPartition", "color_of", "frames_of_color"),
        "policies": ("LRUPolicy",),
        "randmap": ("RandomizedIndexing",),
        "tlb": ("TLB",),
    },
    "repro.core": {
        "advisor": ("Advice", "Requirements", "recommend_architecture"),
        "comparison": ("architecture_feature_table", "cache_defence_table",
                       "render_table", "transient_applicability_table"),
        "figure1": ("Figure1", "generate_figure1"),
        "matrix": ("CellResult", "EvaluationMatrix"),
        "platforms": ("PlatformProfile", "STANDARD_PLATFORMS",
                      "reference_workload"),
        "taxonomy": ("AdversaryModel", "Importance", "importance_from_score"),
    },
    "repro.cpu": {
        "core": ("Core", "CoreConfig"),
        "dvfs": ("DVFSController", "OperatingPoint", "VoltageDomain"),
        "exceptions": ("Trap", "TrapCause", "TrapInfo"),
        "predictor": ("BranchPredictor", "PredictorConfig"),
        "soc": ("SoC", "SoCConfig", "make_embedded_soc", "make_mobile_soc",
                "make_server_soc", "soc_factory_for"),
        "speculative": ("SpeculativeConfig", "SpeculativeCore"),
    },
    "repro.crypto": {
        "aes": ("AES128", "ConstantTimeAES", "MaskedAES", "TTableAES"),
        "hmacmod": ("hmac_sha256", "hmac_verify"),
        "modexp": ("ModExpResult", "modexp_ladder", "modexp_square_multiply"),
        "rng": ("XorShiftRNG",),
        "rsa": ("RSA", "RSAKey", "generate_rsa_key"),
        "sha256": ("sha256",),
    },
    "repro.fault": {
        "clkscrew": ("ClkscrewGlitcher",),
        "injector": ("CampaignResult", "FaultCampaign", "GlitchInjector"),
        "models": ("FaultKind", "FaultSpec", "GlitchChannel", "apply_fault"),
    },
    "repro.isa": {
        "assembler": ("AssemblyError", "assemble"),
        "instructions": ("InstrKind", "Instruction", "Reg", "add", "addi",
                         "and_", "beq", "bge", "blt", "bne", "csrr", "csrw",
                         "ecall", "fence", "flush", "halt", "jal", "jmp",
                         "li", "load", "mul", "nop", "or_", "ret", "shl",
                         "shr", "store", "sub", "xor"),
        "program": ("Program",),
    },
    "repro.memory": {
        "bus": ("BusMaster", "BusTransaction", "SystemBus"),
        "disturbance": ("DisturbanceModel", "ROW_SIZE"),
        "dma": ("DMAEngine",),
        "mee": ("MemoryEncryptionEngine",),
        "mmu": ("MMU", "TranslationResult"),
        "mpu": ("ExecutionAwareMPU", "MPU", "MPURegion"),
        "paging": ("PAGE_SIZE", "PageFlags", "PageTable", "pte_pack",
                   "pte_unpack"),
        "phys": ("PhysicalMemory",),
        "regions": ("MemoryRegion", "Permissions", "RegionMap"),
        "rom": ("KeyVault", "ROMRegion"),
        "tzasc": ("TrustZoneAddressSpaceController", "WorldState"),
    },
    "repro.obs": {
        "export": ("metrics_to_prometheus", "records_to_chrome",
                   "records_to_jsonl", "write_metrics", "write_trace"),
        "manifest": ("RunManifest", "host_platform"),
        "metrics": ("Counter", "DEFAULT_TIME_BUCKETS", "Gauge", "Histogram",
                    "MetricsRegistry"),
        "observer": ("CELL_METRICS_KEY", "NULL_OBSERVER", "Observability",
                     "RunObserver", "SPANS_KEY"),
        "tracer": ("Tracer", "derive_span_id"),
        None: ("activate", "current_tracer", "event", "span"),
    },
    "repro.power": {
        "batch": ("BatchPowerInstrument", "batch_cipher_for"),
        "instrument": ("PowerInstrument", "capture_aes_traces"),
        "leakage": ("HammingDistanceModel", "HammingWeightModel",
                    "IdentityModel", "hamming_weight"),
        "trace": ("TraceSet",),
    },
    "repro.runner": {
        "cache": ("ResultCache", "default_cache_root"),
        "chaos": ("ChaosConfig", "FAULT_MODES", "chaos_execute_spec"),
        "engine": ("CACHE_DEFENCE_CATEGORY", "CellSpec", "CellTask",
                   "DEFAULT_TIMEOUT_S", "ExperimentRunner", "INTEGRITY_KEY",
                   "SCAN_CATEGORY", "WORKLOAD_CATEGORY", "cache_key_for",
                   "execute_spec", "execute_task", "payload_fingerprint",
                   "payload_intact"),
        "retry": ("NO_RETRY", "RetryPolicy"),
        "seeding": ("derive_cell_seed", "derive_seed"),
        "stats": ("CellOutcome", "OUTCOME_STATUSES", "RunnerStats"),
    },
    "repro.service": {
        "chaos": ("HostChaosConfig", "LEASE_FAULTS", "MidJobKill",
                  "chaos_report", "plant_skewed_lease", "plant_stale_lease",
                  "plant_torn_cache_entry", "plant_torn_lease",
                  "seed_lease_faults", "tear_job_file"),
        "coordinator": ("Coordinator", "JobStatus"),
        "fleet": ("WorkerFleet",),
        "jobs": ("JOB_SCHEMA", "JobSpec"),
        "lease": ("DEFAULT_TTL_S", "Lease", "LeaseInfo", "LeaseLostError",
                  "default_owner_id", "lease_state", "read_lease",
                  "reap_lease", "try_acquire"),
        "queue": ("JobQueue",),
        "worker": ("ServiceWorker", "WorkerStats", "run_worker_process"),
    },
    "repro.spec": {
        "explorer": ("CHANNELS", "LeakEvent", "SpeculationExplorer"),
        "gadgets": ("CORPUS_REV", "GADGETS", "GADGETS_BY_NAME", "Gadget",
                    "GadgetInstance"),
        "memo": ("ExplorationMemo", "ExplorationRecord", "MEMO_CAPACITY",
                 "MEMO_WINDOW_FLOOR", "MemoizedSpeculationExplorer",
                 "exploration_signature", "record_exploration"),
        "report": ("LeakReport", "ScanRow"),
        "scanner": ("DEFAULT_SCAN_SEED", "SCAN_CATEGORY", "ScanConfig",
                    "execute_scan_cell", "full_config_names",
                    "quick_config_names", "run_scan", "scan_config_for",
                    "scan_gadget", "scan_grid", "scan_specs"),
        "taint": ("TaintState",),
    },
}


def _owners(package: str) -> dict[str, str | None]:
    return {name: owner for owner, names in LAZY_EXPORTS[package].items()
            for name in names}


@pytest.mark.parametrize("package", sorted(LAZY_EXPORTS))
class TestLazyPackages:
    def test_public_names_unchanged(self, package):
        module = importlib.import_module(package)
        assert sorted(module.__all__) == sorted(_owners(package))
        assert set(module.__all__) <= set(dir(module))

    def test_names_resolve_to_defining_module(self, package):
        module = importlib.import_module(package)
        for name, owner in _owners(package).items():
            if owner is None:  # defined by the package itself
                value = getattr(module, name)
                assert getattr(value, "__module__", package) == package, name
                continue
            defining = importlib.import_module(f"{package}.{owner}")
            assert getattr(module, name) is getattr(defining, name), name
            assert name in vars(module), f"{name} not cached"

    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(_owners(package)) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError):
            getattr(module, "no_such_name")


def _runtime_imports(tree: ast.Module):
    """:func:`_module_level_imports` minus ``if TYPE_CHECKING:`` bodies,
    which never run."""
    body = [node for node in tree.body
            if not (isinstance(node, ast.If)
                    and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING")]
    return _module_level_imports(ast.Module(body=body, type_ignores=[]))


def test_package_inits_import_no_submodules():
    """An AST rule: a package ``__init__`` binds its public names through
    ``repro.common.lazy_exports`` and imports no other ``repro`` module
    when it runs.  The one exception is ``repro.crypto.sha256``, the
    submodule whose name is also its function's (see its ``__init__``)."""
    eager = set()
    for path in sorted((SRC / "repro").rglob("__init__.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _runtime_imports(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, path
                targets = [node.module or ""]
            else:
                targets = [alias.name for alias in node.names]
            eager |= {(path.relative_to(SRC).parent.as_posix(), target)
                      for target in targets
                      if target.split(".")[0] == "repro"
                      and target != "repro.common"}
    assert eager == {("repro/crypto", "repro.crypto.sha256")}


def test_leaf_reexports_are_the_same_objects():
    from repro.attacks import base, knobs, result, suites
    assert base.AttackCategory is result.AttackCategory
    assert base.AttackResult is result.AttackResult
    assert suites.MatrixKnobs is knobs.MatrixKnobs
    assert suites.PRIOR_ATTRS is knobs.PRIOR_ATTRS
    assert tuple(suites.SUITES) == knobs.FIGURE1_CATEGORIES


class TestInvariants:
    """Values the layering must not move: each is cache-key or job-id
    material, so a change would silently orphan every cached result."""

    def test_version(self):
        assert repro.__version__ == "1.9.0"

    def test_knob_keys(self):
        from repro.attacks.knobs import MatrixKnobs
        assert MatrixKnobs.quick().as_key() == (
            ("fr_samples", 12), ("fr_values", 8), ("rsa_bits", 64),
            ("secret_len", 4), ("sweep_instances", 12), ("sweep_iters", 48),
            ("timing_bits", 8), ("timing_samples", 600), ("traces", 300))
        assert MatrixKnobs.full().as_key() == (
            ("fr_samples", 12), ("fr_values", 8), ("rsa_bits", 96),
            ("secret_len", 8), ("sweep_instances", 64),
            ("sweep_iters", 160), ("timing_bits", 16),
            ("timing_samples", 1200), ("traces", 1000))

    def test_smoke_job_id(self):
        from repro.service import JobSpec
        assert JobSpec.matrix(quick=True).job_id == "job-77b62816dd3e193e"
        assert JobSpec.matrix(quick=False).job_id == "job-9e5bff66d201132e"

    def test_cache_keys(self):
        """Every cell key of the quick and full matrices and scans."""
        from repro.runner import cache_key_for
        from repro.service import JobSpec
        from repro.spec.scanner import scan_specs
        keys = []
        for quick in (True, False):
            keys += [cache_key_for(spec)
                     for spec in JobSpec.matrix(quick=quick).cells()]
            keys += [cache_key_for(spec) for spec in scan_specs(quick=quick)]
        assert len(keys) == 51
        assert keys[0] == ("4252b9de07bbcea34188a41f679e1673"
                           "e24e16205e2adde7b050537e1bf4085e")
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
            "9c982ccc5709e671060350727ad16c64f4ab3a9f47601cf28940a7bf198ac2ac")
