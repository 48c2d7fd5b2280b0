"""Capture the reference outputs the benchmark checks against.

Run from the root of a checkout of the commit whose outputs are the
reference (the parent of any change being measured):

    python3 perfbench/capture_refs.py

It writes ``perfbench/refs/``: both verify reports byte for byte, the four
sweep rows, SHA-256 digests of the fig4 trajectory CSV and summary.json of
single-seed runs for seeds 0 .. FIG4_REF_SEEDS-1, and the replicator terminal
values. Scratch output goes to ``.perfbench_out/capture``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from signalgame import cli  # noqa: E402
from workloads import FIG4_REF_SEEDS, REFS, REPLICATOR_ARGS, SWEEP_EPS, VERIFY_ARGS  # noqa: E402


def _main(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"signalgame {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def main() -> int:
    work = ROOT / ".perfbench_out" / "capture"
    shutil.rmtree(work, ignore_errors=True)
    REFS.mkdir(exist_ok=True)

    sweep: dict = {}
    for dynamic, args in VERIFY_ARGS.items():
        _main(["verify", *args, "--out", str(work / "verify")])
        shutil.copyfile(work / "verify" / "verify_report.json", REFS / f"verify_{dynamic}.json")
        sweep[dynamic] = {}
        for eps in SWEEP_EPS:
            _main(["sweep", *args, "--eps-list", eps, "--out", str(work / "sweep")])
            with open(work / "sweep" / "sweep.csv", newline="") as fh:
                (row,) = list(csv.DictReader(fh))
            sweep[dynamic][eps] = {
                "eps": float(row["eps"]),
                "optimal_mass": float(row["optimal_mass"]),
                "top_state_id": int(row["top_state_id"]),
                "top_state_mass": float(row["top_state_mass"]),
            }
    (REFS / "sweep.json").write_text(json.dumps(sweep, indent=1, sort_keys=True) + "\n")

    rep = json.loads(_main(["replicator", *REPLICATOR_ARGS, "--out", str(work / "rep")]).splitlines()[-1])
    (REFS / "replicator.json").write_text(
        json.dumps({k: rep[k] for k in ("terminal_W", "max_sum_err")}, sort_keys=True) + "\n"
    )

    fig4 = {}
    for seed in range(FIG4_REF_SEEDS):
        out = work / "fig4"
        _main(["simulate", "--preset", "fig4", "--seed", str(seed), "--out", str(out)])
        fig4[str(seed)] = {
            "csv_sha256": hashlib.sha256((out / f"traj_seed{seed}.csv").read_bytes()).hexdigest(),
            "summary_sha256": hashlib.sha256((out / "summary.json").read_bytes()).hexdigest(),
        }
    (REFS / "fig4.json").write_text(json.dumps(fig4, indent=1) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
