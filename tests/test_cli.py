from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from signalgame import chain, cli
from signalgame.chain import VerifyReport
from signalgame.dynamics import random_profile_ids, run
from signalgame.languages import get_table


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


def test_parser_reads_the_terminal_width_once(monkeypatch):
    # argparse's own formatter reads it each time one is made: 49 times for this parser
    real, calls = shutil.get_terminal_size, []
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or real(*a))
    cli.build_parser()
    assert len(calls) <= 1


@pytest.mark.parametrize("columns", ["60", "200"])
def test_help_is_argparse_s_own_at_the_terminal_width(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = [parser, *subparsers.choices.values()]
    texts = [p.format_help() for p in parsers]
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    assert texts == [p.format_help() for p in parsers]


# The RunConfig fields each command reads, and so accepts from a flag, a preset or a file.
COMMAND_FIELDS = {
    "simulate": {"m", "n", "N", "dynamic", "epsilon", "d", "revision_prob", "neighbor_prob",
                 "horizon", "record_every", "seeds", "snapshots", "out"},
    "verify": {"m", "n", "N", "dynamic", "d", "revision_prob", "neighbor_prob", "sweep",
               "epsilons", "out"},
    "sweep": {"m", "n", "N", "dynamic", "d", "revision_prob", "neighbor_prob", "epsilons", "out"},
    "replicator": {"m", "n", "dt", "steps", "record_every", "x0", "out"},
}


def test_every_flag_sets_a_config_field(tmp_path, capsys):
    """resolve_config copies each flag to the field named by its dest (--p to both
    probabilities), so a command's flags are the fields it reads; metadata.json
    records those fields, the command and, on simulate, the preset."""
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    quick = {"simulate": ["--horizon", "2"], "verify": ["--N", "2"],
             "sweep": ["--N", "2", "--eps-list", "0.1"], "replicator": ["--steps", "2"]}
    assert set(subparsers.choices) == {*COMMAND_FIELDS, "presets"}
    for name, read in COMMAND_FIELDS.items():
        sub = subparsers.choices[name]
        dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert dests <= fields | {"config", "p"}, name
        probs = {"revision_prob", "neighbor_prob"} if "p" in dests else set()
        assert dests - {"config", "p", "preset"} | probs == read, name
        out = tmp_path / name
        assert cli.main([name, *quick[name], "--out", str(out)]) == 0
        config = json.loads((out / "metadata.json").read_text())["config"]
        assert set(config) == read | {"command"} | ({"preset"} & dests), name
    capsys.readouterr()


@pytest.mark.parametrize("command,flag,key", [
    ("simulate", ["--dt", "0.1"], {"x0": "fixture"}),
    ("verify", ["--preset", "fig2"], {"horizon": 5}),
    ("sweep", ["--eps", "0.05"], {"sweep": True}),
    ("replicator", ["--N", "9"], {"epsilon": 0.1}),
], ids=["simulate", "verify", "sweep", "replicator"])
def test_field_the_command_does_not_read(tmp_path, capsys, command, flag, key):
    """A flag or a config key outside the command's fields exits 1 before any output;
    --eps is not taken for an abbreviation of --eps-list."""
    out = tmp_path / "out"
    assert cli.main([command, *flag, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: ")
    assert lines[-1].endswith(f": error: unrecognized arguments: {' '.join(flag)}")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(key))
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
    field = next(iter(key))
    assert capsys.readouterr().err == f"error: unknown configuration field {field!r} for {command}\n"
    assert not out.exists()


@pytest.mark.parametrize("file_cfg", [None, {"epsilons": [0.1]}, {"sweep": False, "epsilons": [0.1]}],
                         ids=["flag", "file", "file-sweep-false"])
def test_verify_reads_epsilons_only_with_sweep(tmp_path, capsys, file_cfg):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(file_cfg))
    argv = ["--eps-list", "0.1"] if file_cfg is None else ["--config", str(config)]
    assert cli.main(["verify", *argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: verify reads epsilons only with sweep\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["simulate", "--seed", "0,0"],
                                  ["simulate", "--seed", "0", "--seed", "0"],
                                  ["simulate", "--config", "CONFIG"],
                                  ["sweep", "--eps-list", "0.1,0.1"],
                                  ["verify", "--sweep", "--eps-list", "0.1,0.10"]],
                         ids=["seed-list", "seed-flags", "seeds-file", "sweep-eps", "verify-eps"])
def test_repeated_seed_or_epsilon(tmp_path, capsys, argv):
    """A repeated seed would count twice in the summary mean; a repeated epsilon
    would pay for a second stationary solve."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seeds": [1, 1]}))
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "must not repeat" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,code", [
    (["simulate", "--m", "2", "--n", "2", "--N", "1", "--horizon", "3"], 1),
    (["verify", "--m", "2", "--n", "3", "--N", "4"], 3),
    (["simulate", "--m", "2", "--n", "2", "--N", "3", "--horizon", "-1", "--snapshots"], 1),
    # refused before seed 0 runs and writes its trajectory
    (["simulate", "--preset", "fig4", "--horizon", "100", "--seed", "0,-1"], 1),
], ids=["simulate-exit-1", "verify-exit-3", "simulate-refused-horizon", "simulate-negative-seed"])
def test_failed_run_removes_only_the_directory_it_made(tmp_path, capsys, argv, code):
    # mkdir(parents=True) may make several levels; each goes, up to the first that existed
    assert cli.main(argv + ["--out", str(tmp_path / "made" / "b" / "c")]) == code
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / "kept"
    (kept / "other").mkdir(parents=True)
    for out in (kept / "other", kept / "x" / "y"):
        assert cli.main(argv + ["--out", str(out)]) == code
        assert sorted(kept.iterdir()) == [kept / "other"]
    capsys.readouterr()


@pytest.mark.parametrize("bad", [{"revision_prob": "uniform_random"},
                                 {"dynamic": "localized", "neighbor_prob": "uniform"}],
                         ids=["imitation-uniform_random", "localized-uniform"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_string_probability(tmp_path, capsys, command, bad):
    """The one string probability is localized "uniform_random"; the error names
    the field and the forms it takes."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bad))
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    field, value = list(bad.items())[-1]
    assert capsys.readouterr().err == (f'error: {field} must be a number, a list or '
                                       f'"uniform_random" (localized only), got {value!r}\n')


@pytest.mark.parametrize("command,bad,err", [
    ("simulate", {"revision_prob": ["0.3", "0.3", "0.3"]}, "entries must be numbers, got ["),
    ("simulate", {"revision_prob": [True, 0.3, 0.3]}, "entries must be numbers, got ["),
    ("verify", {"revision_prob": [0.3, None, 0.3]}, "entries must be numbers, got ["),
    ("simulate", {"dynamic": "localized", "neighbor_prob": [[0.5] * 3, [0.5] * 3, [0.5, 0.5, "1"]]},
     "entries must be numbers, got ["),
    ("sweep", {"dynamic": "localized", "neighbor_prob": [[0.5] * 3, [0.5, False, 0.5], [0.5] * 3]},
     "entries must be numbers, got ["),
    ("simulate", {"revision_prob": True}, "must list N=3 entries, got True"),
    ("verify", {"dynamic": "localized", "neighbor_prob": False}, "must list N=3 entries, got False"),
], ids=["strings", "bool", "null", "localized-string", "localized-bool", "scalar-bool",
        "localized-scalar-bool"])
def test_probabilities_must_be_numbers(tmp_path, capsys, command, bad, err):
    """A string or a bool is refused, in a list or alone: float() would take "0.3",
    and float(True) would pass as a probability of 1.0."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"N": 3, **bad}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {list(bad)[-1]} {err}")
    assert not out.exists()


def test_commands_run_without_scipy(tmp_path):
    """The package needs numpy alone: verify, sweep, simulate and replicator runs in a
    fresh interpreter leave no scipy module loaded."""
    script = """
import sys
from signalgame import cli
runs = [["verify", "--m", "2", "--n", "2", "--N", "3"],
        ["sweep", "--m", "2", "--n", "2", "--N", "2", "--eps-list", "0.1"],
        ["simulate", "--m", "2", "--n", "2", "--N", "3", "--horizon", "20"],
        ["replicator", "--m", "2", "--n", "2", "--steps", "20"]]
for k, argv in enumerate(runs):
    assert cli.main(argv + ["--out", f"{sys.argv[1]}/{k}"]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv,code,err", [
    (["presets"], 0, None),
    (["verify", "--m", "two"], 1, "signalgame verify: error: argument --m: invalid int value"),
    (["verify", "--m", "2", "--n", "3", "--N", "4"], 3, "error: "),
    (["replicator", "--m", "2", "--n", "2", "--x0", "fixture", "--dt", "1e200",
      "--steps", "10"], 1, "error: state left the simplex at step 1"),
], ids=["presets", "usage", "cap", "overflow"])
def test_entry_point_process(tmp_path, argv, code, err):
    """``python -m signalgame`` in a child process, which sees all that reaches stderr:
    one error line, after the usage text on a usage error, and nothing else."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "signalgame", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    if err is None:
        assert lines == []
    else:
        assert lines[-1].startswith(err)
        assert len(lines) == 1 or lines[0].startswith("usage: "), proc.stderr


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

    def test_fig4_tail_means_fold_left_to_right(self, tmp_path, capsys):
        # Plain left-to-right sums, the same on every Python: from 3.12 on, builtin
        # sum() compensates its rounding and gives 0.7915083396664133 for seed 0.
        assert cli.main(["simulate", "--preset", "fig4", "--seed", "0,1,2",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "summary.json").read_text())
        means = [s["tail_mean_frac_aligned"] for s in summary["seeds"]]
        assert means == [0.7915083396663876, 0.8014479420822908, 0.7815287388504105]
        assert summary["mean_tail_frac_aligned"] == 0.7914950068663629

    @pytest.mark.parametrize("argv", [
        ["--preset", "fig4", "--horizon", "61"],
        ["--preset", "fig3", "--N", "5", "--horizon", "61"],
    ], ids=["imitation", "localized"])
    def test_streamed_outputs_equal_the_in_memory_run(self, tmp_path, capsys, argv):
        argv = ["simulate", *argv, "--record-every", "3", "--seed", "4,7", "--snapshots"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        capsys.readouterr()
        cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        table = get_table(cfg.m, cfg.n)
        summary = json.loads((tmp_path / "summary.json").read_text())
        for seed, got in zip(cfg.seeds, summary["seeds"]):
            rng = np.random.default_rng(seed)
            params = cli._make_params(cfg, rng)
            initial = random_profile_ids(table, cfg.N, rng)
            traj = run(initial, cfg.dynamic, params, cfg.horizon, cfg.record_every,
                       rng=rng, table=table)
            assert (tmp_path / f"traj_seed{seed}.csv").read_bytes() == traj.to_csv().encode()
            snapshots = "".join(json.dumps({"t": rec.t, "ids": list(rec.ids)}) + "\n"
                                for rec in traj.records)
            assert (tmp_path / f"profiles_seed{seed}.jsonl").read_text() == snapshots
            tail = [rec.n_aligned / cfg.N for rec in traj.records if rec.t >= cfg.horizon // 2]
            fold = 0.0
            for frac in tail:
                fold += frac
            assert got == {"seed": seed, "tail_mean_frac_aligned": fold / len(tail),
                           "terminal_majority_lang_id": traj.records[-1].majority_id,
                           "terminal_frac_aligned": traj.records[-1].n_aligned / cfg.N}

    def test_peak_memory_does_not_grow_with_the_horizon(self, tmp_path, capsys):
        # Rows stream to disk as they are recorded: 10x the steps, the same peak.
        peaks = {}
        for horizon in (10, 20000, 200000):  # the first run warms the table caches
            tracemalloc.start()
            try:
                assert cli.main(["simulate", "--m", "2", "--n", "2", "--N", "2", "--horizon",
                                 str(horizon), "--out", str(tmp_path / str(horizon))]) == 0
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[200000] <= peaks[20000] + 2**20

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

    def test_repeated_seed_flags_extend(self, tmp_path, capsys):
        out = tmp_path / "seeds"
        assert cli.main(["simulate", "--m", "2", "--n", "2", "--N", "3", "--horizon", "4",
                         "--seed", "1", "--seed", "2,3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "metadata.json").read_text())["config"]["seeds"] == [1, 2, 3]


class TestVerifyCommand:
    def test_degenerate_instance_exits_zero(self, tmp_path, capsys):
        code = cli.main(["verify", "--m", "2", "--n", "2", "--N", "2", "--d", "2",
                         "--out", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "degenerate"
        assert (tmp_path / "verify_report.json").exists()

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        code = cli.main(["verify", "--m", "2", "--n", "3", "--N", "4", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "cap" in err
        assert not (tmp_path / "metadata.json").exists()

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
        metadata = json.loads((tmp_path / "metadata.json").read_text())
        assert metadata["config"]["command"] == "verify"

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_report_matches_benchmark_reference(self, tmp_path, capsys, dynamic):
        workloads = _perfbench()
        argv = ["verify", *workloads.VERIFY_ARGS[dynamic], "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        expected = (workloads.REFS / f"verify_{dynamic}.json").read_bytes()
        assert (tmp_path / "verify_report.json").read_bytes() == expected

    def test_zero_neighbour_diagonal_is_ignored(self, tmp_path, capsys):
        # Each agent always compares itself, so the diagonal is never read.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"neighbor_prob": [[0, 0.5, 0.5], [0.5, 0, 0.5],
                                                        [0.5, 0.5, 0]]}))
        for name, argv in (("zero", ["--config", str(config)]), ("flag", ["--p", "0.5"])):
            assert cli.main(["verify", "--dynamic", "localized", "--m", "2", "--n", "2", "--N", "3",
                             *argv, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        report = (tmp_path / "zero" / "verify_report.json").read_bytes()
        assert report == (tmp_path / "flag" / "verify_report.json").read_bytes()

    def test_kernel_memory_checked_before_the_search(self, tmp_path, capsys, monkeypatch):
        def least_resistance(self):
            raise AssertionError("search ran before the kernel memory check")

        need = (256**2 + 16 * 256 + 160 * 96) * 8  # the kernel and the GTH scratch buffer
        monkeypatch.setattr(chain, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(chain._ChainModel, "least_resistance", least_resistance)
        code = cli.main(["verify", "--m", "2", "--n", "2", "--N", "2", "--sweep",
                         "--eps-list", "0.1", "--out", str(tmp_path)])
        assert code == 3
        assert "physical memory" in capsys.readouterr().err

    def test_unlumpable_matrix_refused_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def kernel(self, eps):
            raise AssertionError("the sweep ran before the refusal")

        monkeypatch.setattr(chain._ChainModel, "kernel", kernel)
        config = tmp_path / "cfg.json"  # p_01 = 1 but p_10 < 1
        config.write_text(json.dumps({"dynamic": "localized", "m": 2, "n": 2, "N": 3,
                                      "neighbor_prob": [[0, 1, 0.5], [0.35, 0, 0.5],
                                                        [0.5, 0.5, 0]]}))
        assert cli.main(["verify", "--config", str(config), "--sweep", "--eps-list", "0.1",
                         "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "agents alike" in lines[0]

    def test_non_uniform_probabilities_exit_code(self, tmp_path, capsys):
        # Probabilities below 1 all give the probe of the uniform chain, so per-agent
        # revision probabilities and random p_ij report what the uniform references do,
        # but for params, which record them as given.
        refs, config = _perfbench().REFS, tmp_path / "cfg.json"
        matrix = np.random.default_rng(3).uniform(0.05, 0.95, (3, 3)).tolist()
        for dynamic, field, probs in (("imitation", "revision_prob", [0.2, 0.3, 0.4]),
                                      ("localized", "neighbor_prob", matrix)):
            config.write_text(json.dumps({"dynamic": dynamic, "m": 2, "n": 2, "N": 3,
                                          field: probs}))
            assert cli.main(["verify", "--config", str(config), "--out",
                             str(tmp_path / dynamic)]) == 0
            report = json.loads((tmp_path / dynamic / "verify_report.json").read_text())
            expected = json.loads((refs / f"verify_{dynamic}.json").read_text())
            assert report.pop("params")[field] == probs
            del expected["params"]
            assert report == expected
        capsys.readouterr()
        # p_01 = 1 but p_10 < 1: the probe does not treat the agents alike
        config.write_text(json.dumps({"dynamic": "localized", "m": 2, "n": 2, "N": 3,
                                      "neighbor_prob": [[0, 1, 0.5], [0.35, 0, 0.5],
                                                        [0.5, 0.5, 0]]}))
        assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path / "forced")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "agents alike" in lines[0]

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["verify", "--m", "two"]) == 1
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        # command and preset are set by the command line and the --preset flag
        # only, and the state cap is a constant, so a config file cannot claim them
        config = tmp_path / "bad.json"
        for bad in ({"mm": 2}, {"command": "sweep"}, {"preset": "fig2"}, {"max_states": 5}):
            config.write_text(json.dumps(bad))
            for command in ("simulate", "verify"):
                assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 1
                assert "unknown configuration field" in capsys.readouterr().err


@pytest.mark.parametrize("bad,err", [
    ({"N": 3, "revision_prob": [0.3, 0.3]}, "revision_prob must list N=3 entries"),
    ({"N": 3, "revision_prob": [0.3, 0.3, 0.3, 0.3]}, "revision_prob must list N=3 entries"),
    ({"N": 3, "dynamic": "localized", "neighbor_prob": [[0.5, 0.5], [0.5, 0.5]]},
     "neighbor_prob must list N=3 entries"),
    ({"N": 3, "dynamic": "localized", "neighbor_prob": [[0.5] * 3, [0.5] * 3, [0.5] * 2]},
     "neighbor_prob must be a square matrix, N=3 rows of 3, got the row [0.5, 0.5]"),
    ({"N": 3, "d": 2.5}, "configuration field 'd' must be int"),
    ({"N": 3, "d": 2.0}, "configuration field 'd' must be int"),
], ids=["short-list", "long-list", "small-matrix", "ragged-matrix", "fractional-d", "float-d"])
@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
def test_config_disagreeing_with_n(tmp_path, capsys, bad, err, command):
    # each command's file holds only fields that command reads
    extra = {"simulate": {"horizon": 5}, "verify": {}, "sweep": {"epsilons": [0.1]}}[command]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": 2, "n": 2, **extra, **bad}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and err in lines[0]
    assert not (out / "metadata.json").exists()


@pytest.mark.parametrize("command,bad", [
    ("verify", {"sweep": "no", "epsilons": [0.1]}),
    ("simulate", {"snapshots": "false"}),
    ("simulate", {"record_every": 2.5, "horizon": 5}),
    ("simulate", {"m": True}),
    ("simulate", {"dynamic": None}),
    ("replicator", {"dt": "0.01"}),
    ("simulate", {"seeds": 5}),
    ("simulate", {"seeds": [1.5]}),
    ("sweep", {"epsilons": ["0.1"]}),
], ids=["sweep-str", "snapshots-str", "record_every-float", "m-bool", "dynamic-null", "dt-str",
        "seeds-int", "seeds-float", "epsilons-str"])
def test_config_value_of_wrong_type(tmp_path, capsys, command, bad):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": 2, "n": 2, **bad}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
    key = next(iter(bad))
    assert capsys.readouterr().err.startswith(f"error: configuration field {key!r} must be")
    assert not (out / "metadata.json").exists()


def test_float_field_takes_an_int(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": 2, "n": 2, "dt": 1}))
    out = tmp_path / "out"
    assert cli.main(["replicator", "--config", str(config), "--x0", "vertex:5",
                     "--steps", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "metadata.json").read_text())["config"]["dt"] == 1
    # sweep reads epsilons; an int passes the type check (the sweep then refuses 1 itself)
    config.write_text(json.dumps({"epsilons": [1, 0.5]}))
    args = cli.build_parser().parse_args(["sweep", "--config", str(config)])
    assert cli.resolve_config(args).epsilons == [1, 0.5]


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
        need = (256**2 + 16 * 256 + 160 * 96) * 8  # the kernel and the GTH scratch buffer
        monkeypatch.setattr(chain, "_physical_memory", lambda: need - 1)
        code = cli.main(["sweep", "--m", "2", "--n", "2", "--N", "2", "--d", "2",
                         "--eps-list", "0.1", "--out", str(tmp_path / "sweep")])
        assert code == 3
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sweep"], ["verify", "--sweep"],
                                      ["sweep", "--eps-list", "2"]],
                             ids=["sweep", "verify-sweep", "sweep-bad-eps"])
    def test_labelled_space_above_the_cap_exit_code(self, tmp_path, capsys, argv):
        # 15,504 multisets pass the command's check; the chain refuses the 16^5 labelled
        # states, before any epsilon is read and before a kernel is built.
        start = time.monotonic()
        code = cli.main([*argv, "--m", "2", "--n", "2", "--N", "5", "--out", str(tmp_path / "out")])
        elapsed = time.monotonic() - start
        assert code == 3
        assert "labelled state space has 1048576 states" in capsys.readouterr().err
        assert elapsed < 1.0
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,eps", [(["sweep"], "1e-320"), (["verify", "--sweep"], "5e-324")],
                             ids=["sweep", "verify-sweep"])
    def test_underflowing_epsilon_exit_code(self, tmp_path, capsys, argv, eps):
        # The stationary solve fails at an epsilon whose kernel underflows float64:
        # one error line naming it, exit 1, and no directory left behind.
        code = cli.main([*argv, "--m", "2", "--n", "2", "--N", "2", "--eps-list", eps,
                         "--out", str(tmp_path / "new" / "run")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: eps {eps}: kernel is reducible")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0,flags", [("NAN_FILE", []), ("fixture", ["--dt", "1e200"])],
                             ids=["nan-x0", "overflowing-dt"])
    def test_nan_exit_code(self, tmp_path, capsys, x0, flags):
        vec = tmp_path / "x0.json"
        vec.write_text("[NaN" + ", 0.0625" * 15 + "]")
        x0 = str(vec) if x0 == "NAN_FILE" else x0
        assert cli.main(["replicator", "--m", "2", "--n", "2", "--x0", x0, "--steps", "10",
                         *flags, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not (tmp_path / "out" / "replicator.csv").exists()

    def test_bad_vertex(self, tmp_path, capsys):
        assert cli.main(["replicator", "--m", "2", "--n", "2", "--x0", "vertex:99",
                         "--out", str(tmp_path)]) == 1
        capsys.readouterr()
