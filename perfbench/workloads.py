"""The three benchmark workloads: their set-up, their operations and the output checks.

An operation is one call of the public CLI entry point ``signalgame.cli.main``
with one argument vector. A pass is the short, fixed list of operations a run
repeats; operations of one *kind* do identical work whatever the seed. Inputs
derive only from the benchmark seed and the pass number, so the same seed
gives the same inputs.

Importing this module imports nothing from ``signalgame``; the caller puts the
checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFS = Path(__file__).resolve().parent / "refs"

VERIFY_ARGS = {
    "imitation": ["--m", "2", "--n", "2", "--N", "3", "--d", "2",
                  "--dynamic", "imitation", "--p", "0.3"],
    "localized": ["--m", "2", "--n", "2", "--N", "3", "--d", "2",
                  "--dynamic", "localized", "--p", "0.5"],
}
# The two ends of the CLI's default sweep list.
SWEEP_EPS = ("0.1", "0.003")
FIG4_SEEDS_PER_BENCH_SEED = 5
# fig4 seeds 0 .. FIG4_REF_SEEDS-1 have SHA-256 references in refs/fig4.json.
FIG4_REF_SEEDS = 80
REPLICATOR_ARGS = ["--m", "2", "--n", "2", "--x0", "fixture", "--steps", "10000"]


@dataclass
class Op:
    """One CLI call plus the check of what it wrote and printed."""

    kind: str  # operations of one kind do identical work, whatever the seed
    label: str
    argv: list[str]
    out: Path
    outputs: tuple[str, ...]  # files the call must (re)write under ``out``
    check: Callable[["Op", int, str], list[str]]


@dataclass
class Named:
    """A workload's own name for its operation time: the mean over ``kinds`` of
    their median seconds, or ``work`` units divided by it when ``work`` is set."""

    name: str
    unit: str
    kinds: tuple[str, ...]
    work: int = 0


@dataclass
class Workload:
    name: str
    setup_argvs: list[list[str]]
    # (seed, pass number, output root) -> the operations of that pass
    make_pass: Callable[[int, int, Path], list[Op]]
    named: tuple[Named, ...]


def _read_ref(name: str):
    return json.loads((REFS / name).read_text())


# -- verify-223 ----------------------------------------------------------------


def _check_verify(op: Op, rc: int, stdout: str) -> list[str]:
    dynamic = op.label.split(":")[1]
    errors = [] if rc == 0 else [f"exit code {rc}"]
    got = (op.out / "verify_report.json").read_bytes()
    if got != (REFS / f"verify_{dynamic}.json").read_bytes():
        errors.append("verify_report.json differs from the reference")
    report = json.loads(got)
    if report["verdict"] != "pass":
        errors.append(f"verdict {report['verdict']!r}")
    if report["stable_set"] != report["optimal_set"]:
        errors.append("stable_set != optimal_set")
    return errors


def _verify_pass(seed: int, k: int, root: Path) -> list[Op]:
    order = ["imitation", "localized"] if (seed + k) % 2 == 0 else ["localized", "imitation"]
    ops = []
    for dynamic in order:
        out = root / f"verify_{dynamic}"
        argv = ["verify", *VERIFY_ARGS[dynamic], "--out", str(out)]
        ops.append(Op(f"verify:{dynamic}", f"verify:{dynamic}", argv, out, ("verify_report.json",),
                      _check_verify))
    return ops


# -- sweep-223 -----------------------------------------------------------------


def _rel_close(a: float, b: float, rtol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _check_sweep(op: Op, rc: int, stdout: str) -> list[str]:
    _, dynamic, eps = op.label.split(":")
    errors = [] if rc == 0 else [f"exit code {rc}"]
    with open(op.out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ref = _read_ref("sweep.json")[dynamic][eps]
    if len(rows) != 1:
        return errors + [f"{len(rows)} sweep rows, expected 1"]
    row = rows[0]
    if int(row["top_state_id"]) != ref["top_state_id"]:
        errors.append(f"top_state_id {row['top_state_id']} != {ref['top_state_id']}")
    for key in ("eps", "optimal_mass", "top_state_mass"):
        if not _rel_close(float(row[key]), ref[key]):
            errors.append(f"{key} {row[key]} != {ref[key]!r} (rtol 1e-12)")
    return errors


def _sweep_pass(seed: int, k: int, root: Path) -> list[Op]:
    # One imitation and one localized row per pass; the seed and pass number
    # choose which of them gets which epsilon, so every pass costs the same.
    first = (seed + k) % 2
    pairs = [("imitation", SWEEP_EPS[first]), ("localized", SWEEP_EPS[1 - first])]
    ops = []
    for dynamic, eps in pairs:
        out = root / f"sweep_{dynamic}"
        ops.append(Op(f"sweep:{dynamic}", f"sweep:{dynamic}:{eps}",
                      ["sweep", *VERIFY_ARGS[dynamic], "--eps-list", eps, "--out", str(out)],
                      out, ("sweep.csv",), _check_sweep))
    return ops


# -- simulate-replicator -------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_fig4(op: Op, rc: int, stdout: str) -> list[str]:
    seed = op.label.split(":")[1]
    errors = [] if rc == 0 else [f"exit code {rc}"]
    traj = op.out / f"traj_seed{seed}.csv"
    ref = _read_ref("fig4.json").get(seed)
    if ref is not None:
        if _sha256(traj) != ref["csv_sha256"]:
            errors.append(f"traj_seed{seed}.csv differs from the reference")
        if _sha256(op.out / "summary.json") != ref["summary_sha256"]:
            errors.append("summary.json differs from the reference")
        return errors
    # A seed without a stored reference: structural checks only.
    with open(traj, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 50001:
        errors.append(f"{len(rows)} trajectory rows, expected 50001")
    counts = [key for key in rows[0] if key.startswith("count_")] if rows else []
    bad = sum(float(r["frac_aligned"]) != sum(int(r[c]) for c in counts) / 10 for r in rows)
    if bad:
        errors.append(f"{bad} rows with frac_aligned != sum(count_*)/N")
    summary = json.loads((op.out / "summary.json").read_text())
    if [s["seed"] for s in summary["seeds"]] != [int(seed)]:
        errors.append("summary.json lists the wrong seeds")
    return errors


def fig4_seed(seed: int, k: int) -> int:
    return FIG4_SEEDS_PER_BENCH_SEED * seed + k


def _check_replicator(op: Op, rc: int, stdout: str) -> list[str]:
    errors = [] if rc == 0 else [f"exit code {rc}"]
    got = json.loads(stdout.strip().splitlines()[-1])
    ref = _read_ref("replicator.json")
    for key in ("terminal_W", "max_sum_err"):
        if got[key] != ref[key]:
            errors.append(f"{key} {got[key]!r} != {ref[key]!r}")
    return errors


def _simulate_replicator_pass(seed: int, k: int, root: Path) -> list[Op]:
    # The replicator fixture is a fixed initial condition: the seed changes nothing there.
    s = fig4_seed(seed, k)
    fig4, rep = root / "fig4", root / "replicator"
    return [
        Op("simulate", f"simulate:{s}",
           ["simulate", "--preset", "fig4", "--seed", str(s), "--out", str(fig4)],
           fig4, (f"traj_seed{s}.csv", "summary.json"), _check_fig4),
        Op("replicator", "replicator", ["replicator", *REPLICATOR_ARGS, "--out", str(rep)],
           rep, ("replicator.csv",), _check_replicator),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-223", [["verify", *VERIFY_ARGS["imitation"]]], _verify_pass,
                 (Named("verify_s", "s", ("verify:imitation", "verify:localized")),)),
        Workload("sweep-223", [["sweep", *VERIFY_ARGS["imitation"]]], _sweep_pass,
                 (Named("solve_s", "s", ("sweep:imitation", "sweep:localized")),)),
        Workload("simulate-replicator", [["simulate", "--preset", "fig4"], ["replicator", *REPLICATOR_ARGS]],
                 _simulate_replicator_pass,
                 (Named("sim_steps_per_s", "1/s", ("simulate",), 50000),
                  Named("rk4_steps_per_s", "1/s", ("replicator",), 10000))),
    )
}


def setup(name: str) -> None:
    """The work a user pays before the first operation: import, config, tables."""
    from signalgame import cli
    from signalgame.languages import get_table
    from signalgame.replicator import payoff_matrix

    for argv in WORKLOADS[name].setup_argvs:
        cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        if cfg.command == "replicator":
            payoff_matrix(cfg.m, cfg.n)
        else:
            table = get_table(cfg.m, cfg.n)
            if cfg.dynamic == "imitation":
                table.disks(cfg.d)
