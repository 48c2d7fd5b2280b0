"""Compare two sets of benchmark results: ``python3 perfbench/compare.py BASE NEW``.

BASE and NEW are ``--results`` directories of ``run.py``, each holding untraced
runs (``*_trace0.json``) of the same workloads, ideally ten seeds apiece, run
alternately. Per workload and end-to-end metric it prints each side's median
and quartiles, then applies two rules:

* regression: NEW's median is worse than BASE's by more than the metric's
  bound in BENCHMARK.json. Where BASE's own quartile spread exceeds the bound
  the metric is "unresolved" instead, unless every NEW run beats every BASE run.
* gain: in runs paired by seed, NEW wins at least 9 of every 10 pairs (ties
  count for neither side) and the medians differ by more than BASE's quartile
  spread.

It also pools the operation times of each side per operation kind and prints
the median and the highest percentile with at least ten samples beyond it,
with the sample count.
Exits 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*_trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4g} s"
    for p in TAIL_LADDER:
        if n * (1000 - round(p * 10)) >= 10 * 1000:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"{text}, p{p:g} {value:.4g} s, n={n}"
    return f"{text}, n={n} (too few for a tail percentile)"


def times_by_kind(runs) -> dict[str, list[float]]:
    """Every operation's wall seconds, pooled per kind, from the passes of each run."""
    out: dict[str, list[float]] = {}
    for passes in runs:
        for p in passes:
            for o in p["ops"]:
                out.setdefault(o["kind"], []).append(o["seconds"])
    return out


def verdict(metric: dict, base: dict[int, float], new: dict[int, float]) -> str:
    lower = metric["better"] == "lower"
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nmed = statistics.median(n)
    worse_by = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    spread = bq3 - bq1
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum((nv < bv) if lower else (nv > bv) for bv, nv in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > spread and worse_by < 0:
        return f"gain ({wins}/{len(pairs)} pairs won)"
    all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
    if spread / bmed > metric["bound"] and not all_better:
        return f"unresolved (base spread {spread / bmed:.1%} > bound {metric['bound']:.0%})"
    if worse_by > metric["bound"]:
        return f"REGRESSION (worse by {worse_by:.1%} > bound {metric['bound']:.0%})"
    return f"within bound ({wins}/{len(pairs)} pairs won)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    opts = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_runs, new_runs = load(opts.base), load(opts.new)
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base_runs or workload not in new_runs:
            print(f"{workload}: missing from one side, skipped")
            continue
        print(f"== {workload}: {len(base_runs[workload])} base runs, {len(new_runs[workload])} new runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = {r["seed"]: r["metrics"][name]["value"] for r in base_runs[workload]}
            new = {r["seed"]: r["metrics"][name]["value"] for r in new_runs[workload]}
            row = []
            for side in (base, new):
                q1, med, q3 = quartiles(list(side.values()))
                row.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            result = verdict(metric, base, new)
            regressed |= result.startswith("REGRESSION")
            print(f"  {name:12s} {metric['unit']:4s} base {row[0]:28s} new {row[1]:28s} {result}")
        for label, runs in (("base", base_runs[workload]), ("new", new_runs[workload])):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"  {label}: error_rate {failed}/{attempted}")
            for kind, times in sorted(times_by_kind(r["passes"] for r in runs).items()):
                print(f"    {kind}: {tail(times)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
