"""TAB-S41 on the supervised runner: one runner cell per table row.

Rows are ``CACHE_DEFENCE_CATEGORY`` cells, so the table gets what every
other artefact gets from :class:`~repro.runner.ExperimentRunner`: pool
fan-out, the result cache with its integrity digests, and the
``reference`` lane (checked in ``tests/test_lane_routing.py``).
"""

from __future__ import annotations

import json

import pytest

import repro.__main__ as cli
from repro.core.comparison import (
    cache_defence_table,
    render_cache_defence_table,
)
from repro.obs.manifest import RunManifest
from repro.runner import (
    CACHE_DEFENCE_CATEGORY,
    INTEGRITY_KEY,
    NO_RETRY,
    ExperimentRunner,
    ResultCache,
    cache_key_for,
    payload_fingerprint,
)
from repro.service import JobSpec

HOSTS = ["none", "sgx", "sanctum", "trustzone", "sanctuary"]


@pytest.fixture(scope="module")
def serial_rows():
    runner = ExperimentRunner()
    rows = cache_defence_table(runner=runner)
    assert runner.stats.mode == "serial"
    assert sorted(runner.stats.outcomes) \
        == sorted((host, CACHE_DEFENCE_CATEGORY) for host in HOSTS)
    return rows


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory, serial_rows):
    """A cache root holding the five quick rows."""
    root = tmp_path_factory.mktemp("tab-s41-cells")
    runner = ExperimentRunner(cache=ResultCache(root))
    assert cache_defence_table(runner=runner) == serial_rows
    assert runner.stats.cache_misses == 5
    assert len(list(root.glob("*.json"))) == 5
    return root


def test_rows_in_presentation_order(serial_rows):
    assert [row.architecture for row in serial_rows] == HOSTS
    assert [row.protected for row in serial_rows] \
        == [False, False, True, False, True]


def test_pool_rows_equal_serial_rows(serial_rows):
    runner = ExperimentRunner(jobs=2)
    assert cache_defence_table(runner=runner) == serial_rows
    assert runner.stats.mode == "process-pool"
    assert runner.stats.cells_executed == 5


def test_warm_rerender_reads_five_cache_hits(warm_root, serial_rows):
    runner = ExperimentRunner(cache=ResultCache(warm_root))
    assert cache_defence_table(runner=runner) == serial_rows
    assert (runner.stats.cache_hits, runner.stats.cache_misses) == (5, 0)


def test_tampered_row_is_quarantined_and_recomputed(
        warm_root, serial_rows, tmp_path):
    for entry in warm_root.glob("*.json"):
        (tmp_path / entry.name).write_bytes(entry.read_bytes())
    victim = next(path for path in sorted(tmp_path.glob("*.json"))
                  if json.loads(path.read_text(encoding="utf-8"))
                  ["row"]["architecture"] == "sanctum")
    payload = json.loads(victim.read_text(encoding="utf-8"))
    assert payload[INTEGRITY_KEY] == payload_fingerprint(payload)
    # Valid JSON, stale digest: Sanctum's defence "broken".
    payload["row"]["prime_probe"] = 1.0
    victim.write_text(json.dumps(payload), encoding="utf-8")

    runner = ExperimentRunner(cache=ResultCache(tmp_path))
    assert cache_defence_table(runner=runner) == serial_rows
    assert (runner.stats.cache_hits, runner.stats.cache_misses) == (4, 1)
    assert runner.stats.corrupt_entries == 1
    restored = json.loads(victim.read_text(encoding="utf-8"))
    assert restored[INTEGRITY_KEY] == payload_fingerprint(restored)
    assert restored["row"]["prime_probe"] == 0.0


def test_failed_row_raises(monkeypatch):
    import repro.core.comparison as comparison

    def boom(spec, reference=False):
        raise RuntimeError("attack harness down")

    monkeypatch.setattr(comparison, "execute_cache_defence_cell", boom)
    runner = ExperimentRunner(retry=NO_RETRY)
    with pytest.raises(RuntimeError, match="TAB-S41 rows failed"):
        cache_defence_table(runner=runner)
    assert runner.stats.outcomes[("sgx", CACHE_DEFENCE_CATEGORY)].error \
        == "raised: RuntimeError: attack harness down"


def test_evict_time_column_on_the_fast_lane():
    rows = cache_defence_table(include_evict_time=True)
    assert [row.evict_time for row in rows] == [1.0, 1.0, 0.0, 1.0, 0.0]
    assert "evict+time" in render_cache_defence_table(rows)


class TestCLI:
    def test_cache_command_runs_on_the_result_cache(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
        manifest = tmp_path / "manifest.json"
        assert cli.main(["cache", "--manifest", str(manifest)]) == 0
        cold = capsys.readouterr().out
        assert cli.main(["cache"]) == 0
        warm = capsys.readouterr().out
        assert cold == warm + f"wrote {manifest}\n"
        assert len(list((tmp_path / "cells").glob("*.json"))) == 5
        written = json.loads(manifest.read_text(encoding="utf-8"))
        assert written["seed"] == 0x41
        assert sorted(written["outcomes"]) \
            == sorted(f"{host}/{CACHE_DEFENCE_CATEGORY}" for host in HOSTS)
        # The manifest names the five cells exactly: a service job
        # rebuilt from it (cold resume) addresses the cached rows.
        job = JobSpec.from_manifest(RunManifest.read(manifest))
        assert {cache_key_for(spec) for spec in job.cells()} \
            == {path.stem for path in (tmp_path / "cells").glob("*.json")}

    def test_traced_run_records_in_cell_spans_and_declines(
            self, tmp_path, capsys):
        """Rows run under the per-cell tracer: the trace holds every
        row's Prime+Probe byte spans, the gate that turned each declined
        kernel away and each TEE's refusal of Flush+Reload's first
        probe, and the metrics hold the rows' caches."""
        trace = tmp_path / "tab-s41.json"
        metrics = tmp_path / "tab-s41.prom"
        assert cli.main(["cache", "--no-cache", "--trace", str(trace),
                         "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in trace.with_suffix(
            ".jsonl").read_text(encoding="utf-8").splitlines()]
        # Five rows x two target bytes.
        assert sum(r["name"] == "prime+probe:byte" for r in records) == 10
        declined = sorted(
            (r["scope"].partition("/")[0], r["args"]["kernel"],
             r["args"]["reason"])
            for r in records if r["name"] == "attack.batch_declined")
        assert declined == [("sanctum", "prime+probe", "bus-controller")]
        # Flush+Reload's probe runs before any lane choice: a TEE's
        # refusal never reaches the kernel.
        blocked = sorted(r["scope"].partition("/")[0] for r in records
                         if r["name"] == "flush+reload.blocked")
        assert blocked == ["sanctuary", "sanctum", "sgx", "trustzone"]
        prom = metrics.read_text(encoding="utf-8")
        for host in HOSTS:
            assert (f'repro_cache_hit_rate{{cell="{host}/'
                    f'{CACHE_DEFENCE_CATEGORY}",level="llc"}}') in prom

    def test_all_applies_one_shot_flags_to_figure1_only(self, monkeypatch):
        seen = []

        def recorder(name):
            return lambda args: seen.append(
                (name, args.clear_cache, args.trace, args.metrics,
                 args.manifest))

        monkeypatch.setattr(cli, "_COMMANDS", {
            "figure1": recorder("figure1"), "cache": recorder("cache")})
        assert cli.main(["all", "--clear-cache", "--trace", "t.json",
                         "--metrics", "m.prom",
                         "--manifest", "man.json"]) == 0
        assert seen == [("figure1", True, "t.json", "m.prom", "man.json"),
                        ("cache", False, None, None, None)]
