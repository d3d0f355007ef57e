"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cpu.soc import (
    make_embedded_soc,
    make_mobile_soc,
    make_server_soc,
)
from repro.crypto.rng import XorShiftRNG
from repro.memory.bus import SystemBus
from repro.memory.phys import PhysicalMemory
from repro.memory.regions import standard_layout

def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--run-chaos", action="store_true", default=False,
        help="run the chaos-harness fault-injection suite "
             "(crashes/hangs/corrupts runner workers; wall-clock heavy)")
    parser.addoption(
        "--run-diff", action="store_true", default=False,
        help="run the slow fast-vs-reference checks (make diff)")


def pytest_collection_modifyitems(config: pytest.Config,
                                  items: list[pytest.Item]) -> None:
    """``chaos``- and ``diff``-marked tests are opt-in, like the
    ``bench`` marker: chaos tests wait out real per-cell timeouts and
    diff tests run slow scalar oracles, so tier 1 skips them."""
    for marker, reason in (("chaos", "chaos-harness test"),
                           ("diff", "slow differential check")):
        if config.getoption(f"--run-{marker}"):
            continue
        skip = pytest.mark.skip(reason=f"{reason}; pass --run-{marker}")
        for item in items:
            if item.get_closest_marker(marker) is not None:
                item.add_marker(skip)


@pytest.fixture(autouse=True)
def _private_repro_dirs(monkeypatch, tmp_path_factory) -> None:
    """Point the default result cache and service queue at a private
    directory, so no test reads or writes the user's
    ``~/.cache/repro``.  Subprocesses inherit the variables."""
    root = tmp_path_factory.mktemp("repro-dirs")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root / "cells"))
    monkeypatch.setenv("REPRO_QUEUE_DIR", str(root / "queue"))


#: FIPS-197 appendix key/plaintext/ciphertext (used all over the suite).
AES_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
AES_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
AES_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

#: The FIPS-197 example cipher key (different expansion test vector).
AES_KEY2 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture
def memory() -> PhysicalMemory:
    return PhysicalMemory(size=1 << 34)


@pytest.fixture
def bus(memory) -> SystemBus:
    return SystemBus(memory, standard_layout())


@pytest.fixture
def hierarchy() -> CacheHierarchy:
    return CacheHierarchy(HierarchyConfig(num_cores=2))


@pytest.fixture
def rng() -> XorShiftRNG:
    return XorShiftRNG(0x7E57ED)


@pytest.fixture
def server_soc():
    return make_server_soc()


@pytest.fixture
def mobile_soc():
    return make_mobile_soc()


@pytest.fixture
def embedded_soc():
    return make_embedded_soc()
