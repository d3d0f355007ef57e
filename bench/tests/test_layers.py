"""Self-time arithmetic and hot-counter attribution."""

import pytest

import layers
from tracing import Recorder


def span(sid, start, dur, parent=None, scope="s", name=None, **args):
    return {"kind": "span", "name": name or sid, "id": sid,
            "parent": parent, "scope": scope, "ts_us": start,
            "dur_us": dur, "args": args}


def test_nested_spans_subtract_only_the_child():
    records = [span("outer", 0, 1000), span("inner", 200, 300, "outer"),
               span("leaf", 250, 100, "inner")]
    selfs = layers.self_times(records)
    assert selfs[("s", "outer")] == pytest.approx(700e-6)
    assert selfs[("s", "inner")] == pytest.approx(200e-6)
    assert selfs[("s", "leaf")] == pytest.approx(100e-6)


def test_sibling_spans_are_each_subtracted_once():
    records = [span("root", 0, 1000), span("a", 100, 200, "root"),
               span("b", 400, 300, "root")]
    assert layers.self_times(records)[("s", "root")] == \
        pytest.approx(500e-6)


def test_overlapping_children_count_their_union():
    # Children from concurrent threads may overlap; only the covered
    # part of the parent's interval is not self time.
    records = [span("root", 0, 1000), span("a", 100, 400, "root"),
               span("b", 300, 400, "root"), span("c", 900, 300, "root")]
    assert layers.self_times(records)[("s", "root")] == \
        pytest.approx(300e-6)


def test_same_ids_in_other_scopes_are_not_children():
    records = [span("root", 0, 1000, scope="parent"),
               span("child", 0, 900, parent="root", scope="worker")]
    assert layers.self_times(records)[("parent", "root")] == \
        pytest.approx(1000e-6)


def test_hot_self_time_leaves_the_enclosing_span():
    records = [span("root", 0, 1000,
                    hot={"cache.access": [10, 0.0003, 0.0002, {"l1": 4}]})]
    assert layers.self_times(records)[("s", "root")] == \
        pytest.approx(800e-6)
    hot = layers.rollup(records)["hot"]["cache.access"]
    assert hot["calls"] == 10
    assert hot["tally"] == {"l1": 4}


def approx(seconds):
    """Span records keep whole microseconds."""
    return pytest.approx(seconds, abs=2e-6)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_recorder_attributes_nested_hot_calls():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def access():
        clock.tick(0.002)
        return "l1"

    access = rec.hot("cache.access", access, tally=lambda level: level)

    def encrypt():
        clock.tick(0.001)
        access()
        access()
        clock.tick(0.001)

    encrypt = rec.hot("crypto.aes_block", encrypt)

    def attack():
        clock.tick(0.003)
        encrypt()
        access()

    rec.coarse("attacks.flush_reload", attack)()
    roll = layers.rollup(rec.records())
    hot = roll["hot"]
    assert hot["cache.access"]["calls"] == 3
    assert hot["cache.access"]["s"] == approx(0.006)
    assert hot["cache.access"]["self_s"] == approx(0.006)
    assert hot["cache.access"]["tally"] == {"l1": 3}
    assert hot["crypto.aes_block"]["calls"] == 1
    assert hot["crypto.aes_block"]["s"] == approx(0.006)
    assert hot["crypto.aes_block"]["self_s"] == approx(0.002)
    span_roll = roll["spans"]["attacks.flush_reload"]
    assert span_roll["s"] == approx(0.011)
    assert span_roll["self_s"] == approx(0.003)


def test_hot_calls_attach_to_the_innermost_coarse_span():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def access():
        clock.tick(0.001)

    access = rec.hot("cache.access", access)
    inner = rec.coarse("cpu.run", access)
    outer = rec.coarse("runner.execute", lambda: (access(), inner()))
    outer()
    by_name = {r["name"]: r for r in rec.records()}
    assert by_name["cpu.run"]["args"]["hot"]["cache.access"][0] == 1
    assert by_name["runner.execute"]["args"]["hot"]["cache.access"][0] == 1
    spans = layers.rollup(rec.records())["spans"]
    assert spans["runner.execute"]["self_s"] == approx(0.0)


def test_layer_metrics_derive_ratios_and_per_call_costs():
    records = [
        span("w", 0, 10_000, name="service.worker", computed=2),
        span("x1", 1000, 3000, "w", name="runner.execute"),
        span("x2", 5000, 3000, "w", name="runner.execute"),
        span("l1", 0, 100, "w", name="service.lease_acquire", acquired=1),
        span("l2", 200, 300, "w", name="service.lease_acquire", acquired=0),
        span("r", 9000, 100, name="runner.run", hits=3, misses=1,
             instret=600),
    ]
    metrics = layers.layer_metrics(layers.rollup(records))
    assert metrics["service.cell_protocol_us"] == pytest.approx(2000.0)
    assert metrics["service.lease_acquire.us"] == pytest.approx(200.0)
    assert metrics["service.lease_lost"] == 1
    assert metrics["runner.cache_hit_ratio"] == pytest.approx(0.75)
    assert metrics["cpu.instr_per_s"] == pytest.approx(100_000.0)


def test_startup_metrics_take_cumulative_time_at_the_slowest_process():
    logs = ["import time: self [us] | cumulative | imported package\n"
            "import time:       100 |     150000 |   numpy\n"
            "import time:       300 |     200000 | repro.core\n",
            "import time:       100 |     170000 | numpy\n"]
    metrics = layers.startup_metrics(logs)
    assert metrics["startup.numpy_s"] == pytest.approx(0.17)
    assert metrics["startup.repro_core_s"] == pytest.approx(0.2)
    assert metrics["startup.repro_spec_s"] == 0.0
