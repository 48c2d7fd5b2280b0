"""The package surface: the export list, and enumeration caps that exit 3 at any
size, before any per-agent work."""

from __future__ import annotations

import time

import pytest

import signalgame
from signalgame import cli


def test_every_exported_name_resolves():
    missing = [name for name in signalgame.__all__ if not hasattr(signalgame, name)]
    assert missing == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--N", "5000"],
    ["verify", "--sweep", "--N", "5000"],
    ["replicator", "--m", "1500", "--n", "1500"],
    ["simulate", "--m", "1500", "--n", "1500"],
], ids=["sweep-labelled", "verify-sweep-labelled", "replicator-languages", "simulate-languages"])
def test_cap_with_a_huge_count_exits_3(tmp_path, capsys, argv):
    """16^5000 and 1500^1500 * 1500^1500 have more digits than str() converts."""
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cap" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dynamic", ["imitation", "localized"])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_state_cap_checked_before_the_parameters(tmp_path, capsys, monkeypatch, command, dynamic):
    """Checking N x N neighbour probabilities one by one took minutes at this N."""
    def make_params(*args, **kwargs):
        raise AssertionError("parameters built before the state cap was checked")

    monkeypatch.setattr(cli, "_make_params", make_params)
    argv = [command, "--dynamic", dynamic, "--N", "100000", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--N", "100000000"],
    ["replicator", "--m", "300000", "--n", "300000"],
], ids=["sweep-labelled", "replicator-languages"])
def test_cap_refuses_in_constant_time(tmp_path, capsys, argv):
    """Forming 16^(10^8), or 300000^300000 twice, alone takes seconds; the caps stop
    at the first partial count above them."""
    start = time.perf_counter()
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - start < 0.5
    assert "cap" in capsys.readouterr().err
