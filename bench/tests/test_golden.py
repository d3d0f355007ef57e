"""Outputs are checked against the goldens, traced runs included."""

import copy
import shutil

import pytest

from run import Run
from workloads import WORKLOADS, load_golden


@pytest.fixture
def golden():
    return load_golden()


def test_tampered_golden_fails_every_invocation(golden):
    tampered = copy.deepcopy(golden)
    tampered["scan_full"]["report_sha256"] = "0" * 64
    result = Run(WORKLOADS["scan-full"], 901, tampered).measure(
        seconds=0, trace=False)
    assert result["attempted"] >= 3
    assert result["failed"] == result["attempted"]  # fail_frac = 1
    assert result["errors"] == ["scan report differs from the golden"]


def test_tracing_is_output_neutral(golden):
    run = Run(WORKLOADS["fig1-quick"], 902, golden)
    try:
        metrics, errors = run.traced(wall_median=1.0)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    # The traced run's 15 payload fingerprints and Figure 1 text match
    # the goldens an untraced run produced.
    assert errors == []
    assert metrics["runner.execute.calls"] == 15
    assert metrics["cache.access.calls"] > 0
