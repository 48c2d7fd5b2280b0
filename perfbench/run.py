"""signalgame benchmark: run one workload (or all three) and check every output.

    python3 perfbench/run.py --workload verify-223 --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of one traced pass instead. A full record (environment,
every operation time, spans) goes to ``<results>/<workload>_seed<n>_trace<t>.json``.
The exit code is 0 only if every output check passed. ``--workload all`` runs
each workload in a fresh process and prints the named end-to-end metrics.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads here or in any child process.
_NPROC = len(os.sched_getaffinity(0))
os.environ["OPENBLAS_NUM_THREADS"] = str(min(_NPROC, int(os.environ.get("OPENBLAS_NUM_THREADS", _NPROC))))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
from compare import tail, times_by_kind  # noqa: E402
from hostspeed import reference_s  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS, Op, Workload, fig4_seed, setup  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_op(op: Op) -> dict:
    from signalgame import cli

    for name in op.outputs:
        (op.out / name).unlink(missing_ok=True)
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
    except Exception:  # an operation that crashes is counted as failed, the run goes on
        seconds = perf_counter() - start
        return {"kind": op.kind, "label": op.label, "seconds": seconds,
                "errors": [traceback.format_exc(limit=3)]}
    seconds = perf_counter() - start
    try:
        errors = op.check(op, rc, buf.getvalue())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors = [f"check could not read the outputs: {exc!r}"]
    return {"kind": op.kind, "label": op.label, "seconds": seconds, "errors": errors}


def run_pass(w: Workload, seed: int, k: int) -> dict:
    """One pass, each operation preceded by a reference loop (see ``by_kind``)."""
    ops = []
    for op in w.make_pass(seed, k, OUT / w.name):
        ref_s = reference_s()
        ops.append({**run_op(op), "ref_s": ref_s})
    return {"pass": k, "ops": ops}


def measure(w: Workload, seed: int, seconds: float) -> tuple[list[dict], float]:
    """Closed loop: whole passes, one operation at a time, while they fit in ``seconds``.

    Returns the passes and one last reference time, which closes the bracket
    around the final operation.
    """
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(w, seed, len(passes)))
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return passes, reference_s()


def by_kind(passes: list[dict], final_ref_s: float) -> tuple[dict, dict]:
    """Per operation kind: the median seconds, and the median seconds in reference units.

    Each operation's time is divided by the mean of the reference loops timed
    just before and just after it. On a shared 2-vCPU VM, the speed at which
    the same operation ran varied by up to 1.8x, in phases of seconds to
    minutes. A wall time follows the phase; the ratio mostly does not, because
    the reference slows down with the operation.
    """
    ops = [o for p in passes for o in p["ops"]]
    refs = [o["ref_s"] for o in ops] + [final_ref_s]
    seconds: dict[str, list[float]] = {}
    relative: dict[str, list[float]] = {}
    for i, o in enumerate(ops):
        seconds.setdefault(o["kind"], []).append(o["seconds"])
        relative.setdefault(o["kind"], []).append(o["seconds"] / ((refs[i] + refs[i + 1]) / 2))
    median = statistics.median
    return ({k: median(v) for k, v in seconds.items()}, {k: median(v) for k, v in relative.items()})


def setup_probes(name: str) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        # No timeout: with one, subprocess polls the child and rounds the wait up to 50 ms steps.
        subprocess.run([sys.executable, str(HERE / "probe.py"), name], check=True)
        samples.append(perf_counter() - start)
    return samples


def _per_layer(setup_rec, rec, sparse, untraced: list[dict], traced: dict) -> dict:
    """Per-layer metrics of one traced pass: totals per pass unless stated."""
    s = rec.summary()

    def get(name: str, key: str = "self_s") -> float:
        return s.get(name, {}).get(key, 0)

    states = max(rec.attr_values("chain.kernel", "states")
                 + rec.attr_values("chain.resistance_matrix", "states"), default=0)
    has_kernel = bool(get("chain.kernel", "calls"))
    has_resistance = bool(get("chain.resistance_matrix", "calls"))
    steps = sum(rec.attr_values("replicator.integrate", "steps"))

    step_us = record_us = 0.0
    if sparse is not None:
        sparse_rec, horizon = sparse
        ((sparse_s, sparse_attrs),) = [(e - st, a) for n, st, e, _, a in sparse_rec.spans
                                       if n == "dynamics.run"]
        step_us = sparse_s / horizon * 1e6
        dense = [(e - st, a["records"]) for n, st, e, _, a in rec.spans if n == "dynamics.run"]
        dense_s = statistics.mean(d for d, _ in dense)
        dense_records = statistics.mean(r for _, r in dense)
        record_us = (dense_s - sparse_s) / (dense_records - sparse_attrs["records"]) * 1e6

    table_build = setup_rec.summary().get("languages.table_build", {}).get("total_s", 0.0)
    table_build += get("languages.table_build", "total_s")
    traced_s = sum(o["seconds"] for o in traced["ops"])
    untraced_s = statistics.mean(sum(o["seconds"] for o in p["ops"]) for p in untraced)
    mib = 1024 * 1024
    values = {
        "languages.table_build_s": (table_build, "s"),
        "languages.fitness_calls": (get("languages.fitness", "calls"), "count"),
        "languages.fitness_s": (get("languages.fitness"), "s"),
        "chain.states": (states, "count"),
        "chain.classes": (max(rec.attr_values("chain.recurrent_classes", "classes"), default=0), "count"),
        "chain.recurrent_classes_s": (get("chain.recurrent_classes"), "s"),
        "chain.resistance_matrix_s": (get("chain.resistance_matrix"), "s"),
        "chain.least_resistance_self_s": (get("chain.least_resistance"), "s"),
        "chain.kernel_s": (get("chain.kernel"), "s"),
        "chain.stationary_s": (get("chain.stationary"), "s"),
        "chain.kernel_mb": (states * states * 8 / mib if has_kernel else 0.0, "MiB"),
        "chain.resistance_mb": (states * states * 4 / mib if has_resistance else 0.0, "MiB"),
        "arborescence.calls": (get("arborescence.min_in_arborescence", "calls"), "count"),
        "arborescence.s": (get("arborescence.min_in_arborescence"), "s"),
        "dynamics.step_us": (step_us, "us"),
        "dynamics.record_us": (record_us, "us"),
        "dynamics.to_csv_s": (get("dynamics.to_csv"), "s"),
        "replicator.rk4_step_us": (get("replicator.integrate") / steps * 1e6 if steps else 0.0, "us"),
        "cli.self_s": (sum(v["self_s"] for k, v in s.items() if k.startswith("cli.")), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.unattributed_s": (traced_s - rec.root_seconds(), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _sparse_fig4_run(seed: int):
    """fig4's first seed again, recorded only at t=0 and the horizon, under its own recorder."""
    import numpy as np
    from signalgame import cli, dynamics
    from signalgame.languages import get_table

    p = cli.PRESETS["fig4"]
    table = get_table(p["m"], p["n"])
    params = dynamics.ImitationParams.uniform(p["epsilon"], p["d"], p["N"], p["revision_prob"])
    rng = np.random.default_rng(fig4_seed(seed, 0))
    initial = dynamics.random_profile_ids(table, p["N"], rng)
    rec = Recorder()
    rec.install()
    try:
        dynamics.run(initial, "imitation", params, p["horizon"], p["horizon"], rng=rng, table=table)
    finally:
        rec.uninstall()
    return rec, p["horizon"]


def _traced(w: Workload, seed: int, setup_rec: Recorder) -> tuple[list[dict], dict, dict]:
    """The same pass untraced, traced and untraced again; returns passes, metrics, trace record.

    Untraced passes on both sides of the traced one keep warm-up and drift out
    of ``trace.overhead_s``.
    """
    before = run_pass(w, seed, 0)
    rec = Recorder()
    rec.install()
    try:
        traced = run_pass(w, seed, 0)
    finally:
        rec.uninstall()
    after = run_pass(w, seed, 0)
    sparse = _sparse_fig4_run(seed) if w.name == "simulate-replicator" else None
    summary = rec.summary()
    largest = max(summary, key=lambda k: summary[k]["self_s"], default=None)
    record = {"largest_self_time": largest, "summary": summary, "spans": rec.to_json(),
              "setup_spans": setup_rec.to_json()}
    return [before, traced, after], _per_layer(setup_rec, rec, sparse, [before, after], traced), record


def _untraced(w: Workload, seed: int, seconds: float, setup_s: list[float]):
    """Measure for ``seconds``; returns passes, the closing reference time, the
    end-to-end metrics and the workload's named metrics."""
    passes, final_ref_s = measure(w, seed, seconds)
    kind_s, kind_ref = by_kind(passes, final_ref_s)
    metrics = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "op_ref": {"value": statistics.geometric_mean(kind_ref.values()), "unit": "ref"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }
    named = {"setup_s": metrics["setup_s"]}
    for n in w.named:
        op_seconds = statistics.mean(kind_s[k] for k in n.kinds)
        named[n.name] = {"value": n.work / op_seconds if n.work else op_seconds, "unit": n.unit}
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    return passes, final_ref_s, metrics, named


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, results: Path) -> int:
    shutil.rmtree(OUT / w.name, ignore_errors=True)
    setup_s = setup_probes(w.name)
    start = perf_counter()
    import signalgame

    if Path(signalgame.__file__).resolve().parent != SRC / "signalgame":
        print(f"error: signalgame imported from {signalgame.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_rec = Recorder()
    if trace:
        setup_rec.install()
    try:
        setup(w.name)
    finally:
        setup_rec.uninstall()
    in_process_setup_s = perf_counter() - start

    if trace:
        passes, metrics, trace_record = _traced(w, seed, setup_rec)
        final_ref_s, named = None, {}
    else:
        passes, final_ref_s, metrics, named = _untraced(w, seed, seconds, setup_s)
        trace_record = None

    ops = [o for p in passes for o in p["ops"]]
    failed = sum(bool(o["errors"]) for o in ops)
    for o in ops:
        for err in o["errors"]:
            print(f"check failed: {o['label']}: {err}", file=sys.stderr)
    if named:
        named["error_rate"] = {"value": failed / len(ops), "unit": "ratio"}
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": envinfo.collect(ROOT),
        "setup_probe_s": setup_s, "in_process_setup_s": in_process_setup_s,
        "passes": passes, "final_ref_s": final_ref_s, "attempted": len(ops), "failed": failed,
        "metrics": metrics, "named_metrics": named, "trace_detail": trace_record,
    }
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    for key, m in (named or metrics).items():
        print(f"{w.name:20s} {key:32s} {m['value']:.6g} {m['unit']}")
    for kind, times in sorted(times_by_kind([passes]).items()):
        print(f"{w.name:20s} {kind} seconds: {tail(times)}")
    if trace_record:
        print(f"{w.name:20s} largest self time: {trace_record['largest_self_time']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool, results: Path) -> int:
    """Each workload in a fresh process, so peak RSS and caches belong to it alone."""
    attempted = failed = 0
    metrics = {}
    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)), "--results", str(results)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {done.returncode})", file=sys.stderr)
            ok = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        ok = ok and done.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok and failed == 0 else 1


def main() -> int:
    if not (SRC / "signalgame" / "__init__.py").is_file():
        print(f"error: no signalgame sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results")
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = opts.seconds if opts.seconds is not None else _spec()["run_seconds"]
    sys.path.insert(0, str(SRC))
    if opts.workload == "all":
        return run_all(opts.seed, seconds, bool(opts.trace), opts.results)
    return run_workload(WORKLOADS[opts.workload], opts.seed, seconds, bool(opts.trace), opts.results)


if __name__ == "__main__":
    sys.exit(main())
