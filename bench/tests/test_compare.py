"""``compare.py`` verdicts on synthetic result files."""

import json

from compare import compare, fail_verdict, main, verdict

BOUND = 0.10


def test_same_when_medians_agree_within_the_bound():
    assert verdict([1.00, 1.01, 0.99, 1.00], [1.03, 1.04, 1.02, 1.03],
                   BOUND) == "same"


def test_worse_and_better_beyond_the_bound():
    base = [1.00, 1.01, 0.99, 1.00]
    assert verdict(base, [1.20, 1.21, 1.19, 1.20], BOUND) == "worse"
    assert verdict(base, [0.80, 0.81, 0.79, 0.80], BOUND) == "better"


def test_direction_follows_better():
    base = [1.00, 1.01, 0.99, 1.00]
    higher = [1.20, 1.21, 1.19, 1.20]
    assert verdict(base, higher, BOUND, lower_is_better=False) == "better"


def test_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [0.7, 1.0, 1.3, 1.0, 0.8, 1.2]
    assert verdict([1.0, 1.0, 1.01, 0.99], noisy, BOUND) == "unresolved"
    assert verdict(noisy, [1.0, 1.0, 1.01, 0.99], BOUND) == "unresolved"


def test_wide_spread_still_better_when_every_run_wins():
    assert verdict([2.0, 2.6, 3.2], [0.5, 0.8, 1.1], BOUND) == "better"


def test_any_increase_in_failures_is_worse():
    assert fail_verdict((0, 40), (1, 40)) == "worse"
    assert fail_verdict((0, 40), (0, 35)) == "same"
    assert fail_verdict((2, 40), (0, 40)) == "better"


def _results(wall, failed=0):
    runs = [{"metrics": {"wall_s": w, "cpu_s": w, "peak_rss_mb": 40.0,
                         "setup_s": 0.3},
             "attempted": 10, "failed": failed} for w in wall]
    return {"workloads": {"fig1-quick": {"runs": runs}}}


def test_compare_rows_and_exit_code(tmp_path, capsys):
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    rows = compare(_results([1.0, 1.0, 1.01]), _results([1.3, 1.3, 1.31], 1),
                   spec)
    verdicts = {(w, m): v for w, m, _, _, _, v in rows}
    assert verdicts == {("fig1-quick", "wall_s"): "worse",
                        ("fig1-quick", "setup_s"): "same",
                        ("fig1-quick", "fail_frac"): "worse"}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_results([1.0, 1.0, 1.01])))
    b.write_text(json.dumps(_results([1.02, 1.0, 1.01])))
    assert main([str(a), str(b)]) == 0
    b.write_text(json.dumps(_results([1.5, 1.5, 1.5])))
    assert main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
