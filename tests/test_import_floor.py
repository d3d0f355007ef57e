"""The import floor: each command loads only the layers it runs.

A warm ``figure1`` render reads 15 cached cells and aggregates them; it
must not pay for attack kernels or numpy, and only ``cache`` (TAB-S41)
among the table commands runs cache attacks.  These checks run each command
in a fresh interpreter and assert on its ``sys.modules`` afterwards, pin
which modules may import numpy at module level, and pin the lazy package
namespaces to the public names they always had.  The invariants at the
end (version, cache keys, job id, knob keys) are what a layering change
must leave untouched.
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

#: The kernels: the only modules allowed a module-level numpy import.
NUMPY_KERNELS = {
    "repro/attacks/batch.py",
    "repro/attacks/cache_sca.py",
    "repro/attacks/dpa.py",
    "repro/cache/ensemble.py",
    "repro/cpu/ensemble.py",
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

    def test_cold_figure1_loads_only_kernel_architectures(self, tmp_path):
        """``repro.arch`` is lazy: a cold render loads the three
        architectures the batched kernels model, not all eight."""
        cold = _probe(tmp_path, "figure1")
        assert "cache: 0 hits / 15 misses" in cold["stdout"]
        assert {m for m in cold["modules"] if m.startswith("repro.arch.")} \
            == {"repro.arch.base", "repro.arch.null", "repro.arch.sanctuary",
                "repro.arch.sgx", "repro.arch.trustzone"}

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

    def test_submit_loads_no_numpy(self, tmp_path):
        submit = _probe(tmp_path, "submit", "--queue",
                        str(tmp_path / "queue"))
        assert submit["code"] == 0
        assert "submitted job-77b62816dd3e193e" in submit["stdout"]
        assert "numpy" not in submit["modules"]

    def test_package_imports_are_lazy(self, tmp_path):
        """The benchmark's ``setup_s`` import: the package namespaces
        themselves load none of their submodules."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, repro.attacks, repro.core, repro.runner\n"
             "print(json.dumps(sorted(sys.modules)))"],
            env=_env(tmp_path), capture_output=True, text=True, check=True)
        loaded = set(json.loads(proc.stdout))
        assert "numpy" not in loaded
        assert not {m for m in loaded
                    if m.startswith(("repro.attacks.", "repro.core."))}


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


#: Every public name of the two lazy packages and the module that
#: defines it (the names each package exported when it was eager).
LAZY_EXPORTS = {
    "repro.attacks": {
        "AESLastRoundDFA": "fault_attacks",
        "AttackCategory": "result",
        "AttackResult": "result",
        "AttackerProcess": "base",
        "BellcoreRSAAttack": "fault_attacks",
        "BranchShadowingAttack": "tlb_btb",
        "ClkscrewAttack": "clkscrew_attack",
        "CodeInjectionAttack": "software",
        "ControlledChannelAttack": "controlled_channel",
        "DMAAttack": "software",
        "EvictTimeAttack": "cache_sca",
        "FlushReloadAttack": "cache_sca",
        "ForeshadowAttack": "foreshadow",
        "KernelMemoryProbeAttack": "software",
        "KocherTimingAttack": "timing",
        "MeltdownAttack": "meltdown",
        "PagedModExpVictim": "controlled_channel",
        "PrimeProbeAttack": "cache_sca",
        "RowhammerAttack": "rowhammer",
        "SpectreBTBAttack": "spectre",
        "SpectreV1Attack": "spectre",
        "TLBContentionAttack": "tlb_btb",
        "cpa_attack": "dpa",
        "cpa_recover_key": "dpa",
        "dpa_attack": "dpa",
        "dpa_recover_key": "dpa",
    },
    "repro.core": {
        "Advice": "advisor",
        "AdversaryModel": "taxonomy",
        "CellResult": "matrix",
        "EvaluationMatrix": "matrix",
        "Figure1": "figure1",
        "Importance": "taxonomy",
        "PlatformProfile": "platforms",
        "Requirements": "advisor",
        "STANDARD_PLATFORMS": "platforms",
        "architecture_feature_table": "comparison",
        "cache_defence_table": "comparison",
        "generate_figure1": "figure1",
        "importance_from_score": "taxonomy",
        "recommend_architecture": "advisor",
        "reference_workload": "platforms",
        "render_table": "comparison",
        "transient_applicability_table": "comparison",
    },
}


@pytest.mark.parametrize("package", sorted(LAZY_EXPORTS))
class TestLazyPackages:
    def test_public_names_unchanged(self, package):
        module = importlib.import_module(package)
        assert sorted(module.__all__) == sorted(LAZY_EXPORTS[package])
        assert set(module.__all__) <= set(dir(module))

    def test_names_resolve_to_defining_module(self, package):
        module = importlib.import_module(package)
        for name, owner in LAZY_EXPORTS[package].items():
            defining = importlib.import_module(f"{package}.{owner}")
            assert getattr(module, name) is getattr(defining, name), name
            assert name in vars(module), f"{name} not cached"

    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(LAZY_EXPORTS[package]) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError):
            getattr(module, "no_such_name")


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
