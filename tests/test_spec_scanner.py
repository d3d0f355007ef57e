"""The Spectre scanner: grid sweep, report artifact, and determinism.

The scan gates CI, so these tests pin down the properties the gate
relies on: zero expectation violations across the grid, a byte-stable
JSON artifact, runner-backed caching, and — the regression test for the
fork-queue ordering bugfix — byte-identical reports from interpreters
with different hash salts.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runner import SCAN_CATEGORY, ExperimentRunner, ResultCache
from repro.spec import (
    CORPUS_REV,
    GADGETS,
    LeakReport,
    full_config_names,
    quick_config_names,
    run_scan,
    scan_config_for,
    scan_specs,
)


@pytest.fixture(scope="module")
def quick_report() -> LeakReport:
    # The reference explorer: tests comparing the default (memoized)
    # lane against this fixture then cross-check the two lanes.
    return run_scan(quick=True, runner=ExperimentRunner(reference=True))


class TestGrid:
    def test_quick_grid_excludes_only_the_narrow_window_column(self):
        assert set(full_config_names()) - set(quick_config_names()) \
            == {"narrow-window-4"}

    def test_unknown_config_raises(self):
        with pytest.raises(KeyError, match="no-such-config"):
            scan_config_for("no-such-config")

    def test_knob_summaries_match_built_socs(self):
        # expects_leak reads the summary booleans; they must describe
        # the SoC the builder actually returns.
        for name in full_config_names():
            config = scan_config_for(name)
            soc = config.build()
            assert config.dram_base == soc.dram_base, name
            assert config.speculative == soc.config.speculative, name
            if config.speculative:
                spec = soc.config.spec
                assert config.window == spec.transient_window, name
                assert config.fault_at_retirement \
                    == spec.fault_at_retirement, name
                assert config.l1tf_forwarding == spec.l1tf_forwarding, name
                assert config.btb_tagged \
                    == spec.predictor.btb_tag_with_asid, name

    def test_grid_builds_no_soc(self, monkeypatch):
        """Knobs and DRAM bases come from configs: building the grid
        constructs no SoC."""
        from repro.cpu.soc import SoC
        from repro.spec.scanner import _build_grid

        def no_soc(*_args, **_kwargs):
            raise AssertionError("the scan grid built a SoC")

        monkeypatch.setattr(SoC, "__init__", no_soc)
        assert tuple(_build_grid()) == full_config_names()

    def test_grid_and_memo_signatures_pinned(self):
        """The knob summaries and every memo signature of the full grid,
        as computed when each config was probed by building its SoC."""
        from repro.spec.memo import exploration_signature
        configs = [scan_config_for(name) for name in full_config_names()]
        summaries = [(c.name, c.kind, c.description, c.speculative,
                      c.window, c.fault_at_retirement, c.l1tf_forwarding,
                      c.btb_tagged) for c in configs]
        signatures = [exploration_signature(c, g)
                      for c in configs for g in GADGETS]
        assert len(signatures) == 143
        assert signatures[0] == ("spec", CORPUS_REV, "v1-bounds-bypass",
                                 0x8000_0000, True, True, False)
        assert hashlib.sha256(repr(summaries).encode()).hexdigest() == (
            "920454e6161100af291b32055ae977fc953dea3f2cbd0149f20f2a92b90b0504")
        assert hashlib.sha256(repr(signatures).encode()).hexdigest() == (
            "541e725a25234c09d2c271ece101b4febbe98083735abac2c7b143112f03d35e")


class TestVerdicts:
    def test_no_expectation_violations_on_the_quick_grid(self, quick_report):
        assert quick_report.violations() == []

    def test_every_config_scans_the_whole_corpus(self, quick_report):
        per_config = {}
        for row in quick_report.rows:
            per_config.setdefault(row.config, set()).add(row.gadget)
        expected = {g.name for g in GADGETS}
        assert set(per_config) == set(quick_config_names())
        for name, gadgets in per_config.items():
            assert gadgets == expected, name

    def test_commodity_flags_exactly_the_vulnerable_gadgets(
            self, quick_report):
        flagged = {row.gadget for row in quick_report.rows
                   if row.config == "commodity-speculative" and row.leaked}
        assert flagged == {g.name for g in GADGETS if g.vulnerable}

    def test_no_window_config_is_fully_clean(self, quick_report):
        assert not any(row.leaked for row in quick_report.rows
                       if row.config == "no-window")

    def test_architecture_hosts_track_their_core_knobs(self, quick_report):
        # The paper's point: a TEE on a speculative host keeps the
        # speculative host's transient-execution column.
        by_config = {}
        for row in quick_report.rows:
            by_config.setdefault(row.config, {})[row.gadget] = row.leaked
        for host in ("sgx-server", "sanctum-server", "trustzone-mobile"):
            assert by_config[host] == by_config["commodity-speculative"], host
        assert by_config["embedded-inorder"] == by_config["in-order"]


class TestReportArtifact:
    def test_json_round_trip(self, quick_report):
        doc = quick_report.to_json()
        again = LeakReport.from_json(doc)
        assert again.rows == quick_report.rows
        assert again.to_json() == doc

    def test_json_is_byte_identical_across_runs(self, quick_report):
        assert run_scan(quick=True).to_json() == quick_report.to_json()

    def test_render_marks_violations(self, quick_report):
        assert "VIOLATION" not in quick_report.render()
        assert "0 expectation violation(s)" in quick_report.render()


class TestRunnerIntegration:
    def test_scan_specs_use_the_scan_category(self):
        specs = scan_specs(quick=True)
        assert [s.platform for s in specs] == list(quick_config_names())
        for spec in specs:
            assert spec.category == SCAN_CATEGORY
            assert dict(spec.knobs)["corpus_rev"] == CORPUS_REV
        # Per-cell seeds derive from the coordinates: all distinct.
        assert len({s.seed for s in specs}) == len(specs)

    def test_runner_run_matches_serial_and_caches(self, tmp_path,
                                                  quick_report):
        cache = ResultCache(tmp_path / "cells")
        runner = ExperimentRunner(cache=cache)
        report = run_scan(quick=True, runner=runner)
        assert report.to_json() == quick_report.to_json()
        assert runner.stats.cache_misses == len(quick_config_names())
        rerun = ExperimentRunner(cache=ResultCache(tmp_path / "cells"))
        cached = run_scan(quick=True, runner=rerun)
        assert cached.to_json() == quick_report.to_json()
        assert rerun.stats.cache_hits == len(quick_config_names())
        assert rerun.stats.cache_misses == 0

    def test_memoized_runner_shares_cache_entries_with_reference(
            self, tmp_path, quick_report):
        # The lane is strategy, not measurement: a memoized run's cached
        # payloads (integrity digests included) must satisfy a later
        # reference-configured runner wholesale.
        memo_runner = ExperimentRunner(cache=ResultCache(tmp_path / "cells"))
        report = run_scan(quick=True, runner=memo_runner)
        assert report.to_json() == quick_report.to_json()
        assert memo_runner.stats.cache_misses == len(quick_config_names())
        reference = ExperimentRunner(cache=ResultCache(tmp_path / "cells"),
                                     reference=True)
        cached = run_scan(quick=True, runner=reference)
        assert cached.to_json() == quick_report.to_json()
        assert reference.stats.cache_hits == len(quick_config_names())
        assert reference.stats.cache_misses == 0


_SCAN_SCRIPT = """
import sys
from repro.runner import ExperimentRunner
from repro.spec import run_scan
runner = ExperimentRunner(reference=True)
sys.stdout.write(run_scan(quick=True, runner=runner).to_json())
"""

_FULL_SCAN_SCRIPT = """
import sys
from repro.runner import ExperimentRunner
from repro.spec import run_scan
runner = ExperimentRunner(reference=True)
sys.stdout.write(run_scan(quick=False, runner=runner).to_json())
"""

_FULL_MEMO_SCAN_SCRIPT = """
import sys
from repro.spec import run_scan
sys.stdout.write(run_scan(quick=False).to_json())
"""


def _scan_json_in_subprocess(hashseed: str,
                             script: str = _SCAN_SCRIPT) -> str:
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = hashseed
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True,
                          check=True)
    return proc.stdout


class TestHashSeedInvariance:
    def test_scan_identical_across_hash_randomisation(self):
        """Two fresh interpreters with different hash salts must emit
        byte-identical scan reports (fork queue and dedup must not
        iterate in hash order)."""
        first = _scan_json_in_subprocess("1")
        second = _scan_json_in_subprocess("2")
        assert first == second
        rows = json.loads(first)["rows"]
        assert len(rows) == len(GADGETS) * len(quick_config_names())

    def test_memoized_full_scan_identical_across_hash_randomisation(self):
        """The memoized lane's extra machinery (signature keys, visited
        sets, recording replay) must be as hash-salt-proof as the
        reference: byte-identical --full reports across interpreters,
        and byte-identical to the reference lane's report."""
        first = _scan_json_in_subprocess("1", script=_FULL_MEMO_SCAN_SCRIPT)
        second = _scan_json_in_subprocess("2", script=_FULL_MEMO_SCAN_SCRIPT)
        assert first == second
        reference = _scan_json_in_subprocess("3", script=_FULL_SCAN_SCRIPT)
        assert first == reference
        rows = json.loads(first)["rows"]
        assert len(rows) == len(GADGETS) * len(full_config_names())
