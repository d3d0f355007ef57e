"""CLI entry point and table rendering."""

import hashlib

import pytest

from repro.__main__ import main
from repro.core.comparison import render_table


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "bbbb"], [["xxxx", "y"]])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].index("|") == lines[2].index("|")

    def test_handles_non_strings(self):
        text = render_table(["n"], [[42], [3.5]])
        assert "42" in text and "3.5" in text

    def test_empty_rows(self):
        text = render_table(["only", "headers"], [])
        assert "only" in text


#: sha256 of each deterministic table command's whole stdout.  TAB-S41's
#: is ``tab_s41`` in ``bench/golden.json``; these pin the others, which
#: no benchmark workload runs.
TABLE_STDOUT_SHA256 = {
    "architectures":
        "44c9e1774360d310f596ff5c915bb34a3da8017f00b96a61bfcbbb653bc7b6c3",
    "transient":
        "d69fc23648aee17a35401aa4a9ada730780cbcbd50d9444966724412a23ceb53",
    "advisor":
        "8f8555ff942e11813787853e401fcd704f55651e03ca357ac435104b7ad5176f",
}


@pytest.mark.parametrize("command", sorted(TABLE_STDOUT_SHA256))
def test_table_command_stdout_pinned(capsys, command):
    assert main([command]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == TABLE_STDOUT_SHA256[command], out


class TestCLI:
    def test_advisor_command(self, capsys):
        assert main(["advisor"]) == 0
        out = capsys.readouterr().out
        assert "sanctum" in out
        assert "sanctuary" in out

    def test_architectures_command(self, capsys):
        assert main(["architectures"]) == 0
        out = capsys.readouterr().out
        assert "sgx" in out and "tytan" in out
        assert "LLC partitioning" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_figure1_command(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "remote attacks" in out
        assert "agreement" in out
