from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from signalgame import chain, cli
from signalgame.chain import VerifyReport


def _perfbench(name: str = "workloads"):
    """A benchmark module by path; workloads and tracing import nothing from signalgame."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_and_restores():
    """The benchmark's tracer patches signalgame names through vars(owner)[attr],
    so a renamed or deleted name fails here rather than in a traced run."""
    recorder = _perfbench("tracing").Recorder()
    try:
        recorder.install()
        patched = list(recorder._patched)
        assert patched
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    finally:
        recorder.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)


EXPECTED_PRESETS = {
    "fig2": {
        "dynamic": "imitation",
        "m": 3,
        "n": 3,
        "N": 20,
        "revision_prob": 0.3,
        "epsilon": 0.01,
        "d": 3,
        "horizon": 300,
        "record_every": 1,
    },
    "fig3": {
        "dynamic": "localized",
        "m": 3,
        "n": 3,
        "N": 20,
        "epsilon": 0.01,
        "neighbor_prob": "uniform_random",
        "horizon": 1000,
        "record_every": 1,
    },
    "fig4": {
        "dynamic": "imitation",
        "m": 3,
        "n": 3,
        "N": 10,
        "revision_prob": 0.3,
        "epsilon": 0.2,
        "d": 3,
        "horizon": 50000,
        "record_every": 1,
    },
}


def test_preset_snapshot():
    assert cli.PRESETS == EXPECTED_PRESETS


def test_presets_command(capsys):
    assert cli.main(["presets"]) == 0
    assert json.loads(capsys.readouterr().out) == EXPECTED_PRESETS


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        args = ["simulate", "--m", "2", "--n", "2", "--N", "4", "--horizon", "40",
                "--seed", "3,4", "--eps", "0.05", "--d", "2", "--p", "0.4"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        for name in ("traj_seed3.csv", "traj_seed4.csv", "summary.json", "metadata.json"):
            assert (out_a / name).exists()
        assert (out_a / "traj_seed3.csv").read_bytes() == (out_b / "traj_seed3.csv").read_bytes()
        assert (out_a / "traj_seed3.csv").read_bytes() != (out_a / "traj_seed4.csv").read_bytes()

    def test_csv_schema_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["simulate", "--m", "2", "--n", "2", "--N", "3", "--horizon",
                         "20", "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        header = (out / "traj_seed0.csv").read_text().splitlines()[0]
        assert header == "t,frac_aligned,avg_fitness,majority_lang_id,count_5,count_10"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tail_window_start"] == 10
        assert len(summary["seeds"]) == 1
        assert "terminal_majority_lang_id" in summary["seeds"][0]
        metadata = json.loads((out / "metadata.json").read_text())
        assert metadata["config"]["seeds"] == [0]
        assert "PCG64" in metadata["prng"]
        assert metadata["signalgame_version"]

    def test_snapshots(self, tmp_path, capsys):
        out = tmp_path / "snap"
        assert cli.main(["simulate", "--m", "2", "--n", "2", "--N", "3", "--horizon",
                         "5", "--seed", "0", "--snapshots", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "profiles_seed0.jsonl").read_text().splitlines()
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert set(first) == {"t", "ids"} and len(first["ids"]) == 3

    def test_localized_random_neighbors(self, tmp_path, capsys):
        out = tmp_path / "fig3ish"
        assert cli.main(["simulate", "--preset", "fig3", "--N", "5", "--horizon", "20",
                         "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "traj_seed1.csv").exists()

    def test_fig4_matches_benchmark_reference(self, tmp_path, capsys):
        refs = json.loads((_perfbench().REFS / "fig4.json").read_text())
        for seed in range(3):
            out = tmp_path / str(seed)
            argv = ["simulate", "--preset", "fig4", "--seed", str(seed), "--out", str(out)]
            assert cli.main(argv) == 0
            capsys.readouterr()
            sha = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in (f"traj_seed{seed}.csv", "summary.json")}
            ref = refs[str(seed)]
            assert sha == {f"traj_seed{seed}.csv": ref["csv_sha256"],
                           "summary.json": ref["summary_sha256"]}

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"m": 2, "n": 2, "N": 3, "horizon": 10, "epsilon": 0.2}))
        out = tmp_path / "cfgrun"
        assert cli.main(["simulate", "--config", str(config), "--horizon", "7",
                         "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        metadata = json.loads((out / "metadata.json").read_text())
        assert metadata["config"]["horizon"] == 7  # flag wins
        assert metadata["config"]["epsilon"] == 0.2  # file survives


class TestVerifyCommand:
    def test_degenerate_instance_exits_zero(self, tmp_path, capsys):
        code = cli.main(["verify", "--m", "2", "--n", "2", "--N", "2", "--d", "2",
                         "--out", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "degenerate"
        assert (tmp_path / "verify_report.json").exists()

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        code = cli.main(["verify", "--m", "2", "--n", "3", "--N", "3", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "cap" in err

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        report = VerifyReport(
            params={}, state_count=1, classes=[0], class_states=[[0]],
            classes_homogeneous=True, resistances=[], gamma={"0": 0},
            stable_set=[0], optimal_set=[1], epsilon_sweep=[], verdict="fail", notes=[],
        )
        monkeypatch.setattr(cli, "verify_stability", lambda *a, **k: report)
        code = cli.main(["verify", "--m", "2", "--n", "2", "--N", "3", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_report_matches_benchmark_reference(self, tmp_path, capsys, dynamic):
        workloads = _perfbench()
        argv = ["verify", *workloads.VERIFY_ARGS[dynamic], "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        expected = (workloads.REFS / f"verify_{dynamic}.json").read_bytes()
        assert (tmp_path / "verify_report.json").read_bytes() == expected

    def test_kernel_memory_checked_before_the_search(self, tmp_path, capsys, monkeypatch):
        def least_resistance(self):
            raise AssertionError("search ran before the kernel memory check")

        monkeypatch.setattr(chain, "_physical_memory", lambda: 2 * 256**2 * 8 - 1)
        monkeypatch.setattr(chain._ChainModel, "least_resistance", least_resistance)
        code = cli.main(["verify", "--m", "2", "--n", "2", "--N", "2", "--sweep",
                         "--eps-list", "0.1", "--out", str(tmp_path)])
        assert code == 3
        assert "physical memory" in capsys.readouterr().err

    def test_non_uniform_probabilities_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"m": 2, "n": 2, "N": 3, "revision_prob": [0.2, 0.3, 0.4]}))
        assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert "one probability" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["verify", "--m", "two"]) == 1
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        # command, preset and max_states are set by the command line, the --preset
        # flag and the environment only, so a config file cannot claim them
        config = tmp_path / "bad.json"
        for bad in ({"mm": 2}, {"command": "sweep"}, {"preset": "fig2"}, {"max_states": 5}):
            config.write_text(json.dumps(bad))
            for command in ("simulate", "verify"):
                assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 1
                assert "unknown configuration field" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify", "replicator"])
def test_language_cap_exit_code(tmp_path, capsys, command):
    code = cli.main([command, "--m", "4", "--n", "4", "--out", str(tmp_path)])
    assert code == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify", "replicator"])
def test_degenerate_shape_exit_code(tmp_path, capsys, command):
    assert cli.main([command, "--m", "1", "--n", "2", "--out", str(tmp_path)]) == 1
    assert "need m >= 2 and n >= 2" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


@pytest.mark.parametrize("argv", [["sweep", "--eps-list", ","], ["sweep", "--eps-list", ""],
                                  ["verify", "--sweep", "--eps-list", ","],
                                  ["sweep", "--config", "CONFIG"],
                                  ["verify", "--sweep", "--config", "CONFIG"]])
def test_empty_epsilon_list_exit_code(tmp_path, capsys, argv):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"epsilons": []}))
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "at least one epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def test_csv_and_symmetry(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--m", "2", "--n", "2", "--N", "2", "--d", "2",
                         "--eps-list", "0.1,0.05", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "eps,optimal_mass,top_state_id,top_state_mass"
        assert len(lines) == 3
        eps_col = [float(line.split(",")[0]) for line in lines[1:]]
        assert eps_col == [0.1, 0.05]

    def test_kernel_above_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(chain, "_physical_memory", lambda: 2 * 256**2 * 8 - 1)
        code = cli.main(["sweep", "--m", "2", "--n", "2", "--N", "2", "--d", "2",
                         "--eps-list", "0.1", "--out", str(tmp_path / "sweep")])
        assert code == 3
        assert "physical memory" in capsys.readouterr().err


class TestReplicatorCommand:
    def test_vertex_constant(self, tmp_path, capsys):
        out = tmp_path / "vertex"
        code = cli.main(["replicator", "--m", "2", "--n", "2", "--x0", "vertex:5",
                         "--steps", "50", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = (out / "replicator.csv").read_text().splitlines()
        assert lines[0].startswith("t,W,x_0,")
        w_values = {line.split(",")[1] for line in lines[1:]}
        assert w_values == {"4.0"}

    def test_uniform_monotone(self, tmp_path, capsys):
        out = tmp_path / "uniform"
        assert cli.main(["replicator", "--m", "2", "--n", "2", "--x0", "uniform",
                         "--steps", "500", "--record-every", "50", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "replicator.csv").read_text().splitlines()[1:]
        w = [float(line.split(",")[1]) for line in lines]
        assert all(b >= a - 1e-9 for a, b in zip(w, w[1:]))

    def test_fixture_suboptimal(self, tmp_path, capsys):
        out = tmp_path / "fixture"
        assert cli.main(["replicator", "--m", "2", "--n", "2", "--x0", "fixture",
                         "--steps", "20000", "--record-every", "20000",
                         "--out", str(out)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["terminal_W"] < 4.0
        assert result["terminal_rhs_inf"] < 1e-8

    def test_x0_from_file(self, tmp_path, capsys):
        vec = tmp_path / "x0.json"
        vec.write_text(json.dumps([1.0 / 16] * 16))
        out = tmp_path / "filerun"
        assert cli.main(["replicator", "--m", "2", "--n", "2", "--x0", str(vec),
                         "--steps", "10", "--out", str(out)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value", [("--record-every", "0"), ("--record-every", "-2"),
                                            ("--dt", "nan"), ("--dt", "-0.5")])
    def test_bad_step_params_exit_code(self, tmp_path, capsys, flag, value):
        assert cli.main(["replicator", "--m", "2", "--n", "2", "--steps", "10", flag, value,
                         "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {flag[2:].replace('-', '_')} must be")

    def test_bad_vertex(self, tmp_path, capsys):
        assert cli.main(["replicator", "--m", "2", "--n", "2", "--x0", "vertex:99",
                         "--out", str(tmp_path)]) == 1
        capsys.readouterr()
