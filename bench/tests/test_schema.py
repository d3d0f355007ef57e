"""``BENCHMARK.json`` is well formed and agrees with the benchmark code."""

import json
import re
from pathlib import Path

import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/")
               and ".." not in part for part in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and ".." not in path
        assert (ROOT / path).is_dir()


def test_names_units_and_counts():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert UNIT.fullmatch(metric["unit"])
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_setup_time_has_the_largest_bound():
    by_name = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert tuple(WORKLOADS) == layers.ALL_WORKLOADS


def test_every_layer_metric_names_an_e2e_metric_and_a_workload():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert e2e == set(layers.E2E)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.LAYER_METRICS)
    for metric in SPEC["per_layer"]:
        definition = layers.LAYER_METRICS[metric["name"]]
        assert (metric["unit"], metric["better"]) == \
            (definition["unit"], definition["better"])
        assert definition["moves"], metric["name"]
        for e2e_name, workloads in definition["moves"].items():
            assert e2e_name in e2e
            assert workloads and set(workloads) <= set(WORKLOADS)


def test_traced_run_computes_every_per_layer_metric():
    computed = set(layers.layer_metrics(layers.rollup([])))
    computed |= set(layers.STARTUP_MODULES) | {"trace.overhead"}
    assert computed == set(layers.LAYER_METRICS)
