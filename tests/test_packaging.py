"""Packaging metadata: the version has one source, ``repro.__version__``.

The version is cache-key material (``tests/test_import_floor.py`` pins
it), so the installed distribution must report the same string rather
than a second literal in ``pyproject.toml`` that drifts from it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_takes_the_version_from_the_package():
    config = tomllib.loads(PYPROJECT.read_text())
    project = config["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"}
