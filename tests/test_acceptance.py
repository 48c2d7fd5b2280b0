"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget (run with ``pytest -s`` to
see the lines)."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from signalgame import cli
from signalgame.chain import ImitationChain, LocalizedChain, sweep_stationary, verify_stability
from signalgame.dynamics import ImitationParams, LocalParams
from signalgame.languages import (
    Language,
    Profile,
    trace_raising_neighbor,
    cross_trace,
    delta_scaled,
    enumerate_languages,
    fitness_scaled,
    get_table,
    hamming_q,
    is_aligned,
    language_count,
    potential_scaled,
)
from signalgame.replicator import integrate, payoff_matrix, replicator_rhs


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} ({name}): {status} [{elapsed:.1f}s / budget {budget:.0f}s] {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget}s"


def test_criterion_01_potential_identity():
    start = time.monotonic()
    checked = 0
    for m, n, N in ((2, 2, 3), (3, 3, 4), (2, 3, 5)):
        langs = enumerate_languages(m, n)
        K = len(langs)
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            ids = rng.integers(0, K, size=N)
            agent = int(rng.integers(N))
            new_id = int(rng.integers(K))
            before = Profile(tuple(langs[i] for i in ids))
            ids[agent] = new_id
            after = Profile(tuple(langs[i] for i in ids))
            lhs = potential_scaled(after) - potential_scaled(before)
            rhs = fitness_scaled(after, agent) - fitness_scaled(before, agent)
            assert lhs == rhs, f"potential identity broken at {(m, n, N)}: {lhs} != {rhs}"
            checked += 1
    _report(1, "potential identity", checked == 30_000,
            f"{checked} deviation pairs, exact integer equality",
            time.monotonic() - start, 5.0)


def test_criterion_02_trace_raising_exhaustive():
    start = time.monotonic()
    checked = failures = 0
    for m, n in ((2, 2), (3, 3), (2, 3), (3, 2)):
        for lang in enumerate_languages(m, n):
            if is_aligned(lang):
                continue
            nb = trace_raising_neighbor(lang)
            ok = (
                cross_trace(nb, nb) == cross_trace(lang, lang) + 1
                and hamming_q(lang, nb) <= 4
                and all(delta_scaled(lang, nb, N) <= 0 for N in (3, 5, 10))
            )
            checked += 1
            failures += not ok
    _report(2, "trace-raising neighbor, exhaustive", failures == 0,
            f"{checked} unaligned languages over four shapes, {failures} failures",
            time.monotonic() - start, 5.0)


def test_criterion_03_stable_set_imitation():
    start = time.monotonic()
    report = verify_stability(
        ImitationChain(get_table(2, 2), ImitationParams.uniform(epsilon=0.01, d=2, N=3, p=0.3))
    )
    aligned = sorted(int(x) for x in get_table(2, 2).aligned_ids)
    ok = (
        report.verdict == "pass"
        and report.state_count == 4096
        and len(report.classes) == 16
        and report.stable_set == aligned
        and len(report.stable_set) == 2
    )
    _report(3, "stable set = aligned homogeneous (imitation)", ok,
            f"stable={report.stable_set} of {len(report.classes)} classes, "
            f"{report.state_count} states",
            time.monotonic() - start, 120.0)


def test_criterion_04_stationary_corroboration():
    start = time.monotonic()
    table = get_table(2, 2)
    chain = ImitationChain(table, ImitationParams.uniform(epsilon=0.003, d=2, N=3, p=0.3))
    rows = sweep_stationary(chain, [0.1, 0.03, 0.01, 0.003])
    masses = [row["optimal_mass"] for row in rows]
    increasing = all(b > a for a, b in zip(masses, masses[1:]))
    final_above_half = masses[-1] > 0.5
    symmetric = all(
        abs(row["optimal_masses"][0] - row["optimal_masses"][1]) <= 1e-8 for row in rows
    )
    ok = increasing and final_above_half and symmetric
    _report(4, "stationary mass concentrates on optimal", ok,
            f"masses={[round(v, 4) for v in masses]}, "
            f"max asymmetry={max(abs(r['optimal_masses'][0] - r['optimal_masses'][1]) for r in rows):.2e}",
            time.monotonic() - start, 120.0)


def test_criterion_05_resistance_calculus():
    start = time.monotonic()
    table = get_table(2, 2)
    chain = ImitationChain(table, ImitationParams.uniform(epsilon=0.01, d=2, N=3, p=0.3))
    sweeps = np.array([1e-1, 1e-2, 1e-3])
    log_eps = np.log(sweeps)

    # 50 sampled one-step edges with finite resistance 0, 1 or 2
    rng = np.random.default_rng(55)
    edges = []
    while len(edges) < 50:
        src = tuple(int(x) for x in rng.integers(0, 16, size=3))
        kind = len(edges) % 3
        dst = list(src)
        if kind == 0:
            pass  # self loop
        elif kind == 1:
            dst[int(rng.integers(3))] = int(rng.integers(16))
        else:
            i, j = rng.choice(3, size=2, replace=False)
            dst[i] = int(rng.integers(16))
            dst[j] = int(rng.integers(16))
        r = chain.step_resistance(src, tuple(dst))
        if np.isfinite(r):
            edges.append((src, tuple(dst), r))
    slope_ok = True
    for src, dst, r in edges:
        probs = [chain.transition_prob(src, dst, e) for e in sweeps]
        slope = float(np.polyfit(log_eps, np.log(probs), 1)[0])
        if abs(slope - r) > 0.1 * max(r, 1.0):
            slope_ok = False
            break

    rg = chain.least_resistance()
    r_matrix = rg.r
    selftrace = np.diagonal(table.cross)
    raising_edges_ok = all(
        r_matrix[lid, trace_raising_neighbor(Language.from_id(2, 2, lid)).id] == 1
        for lid in range(16)
        if not table.aligned_mask[lid]
    )
    aligned_exit_ok = all(
        r_matrix[lid, other] >= 2
        for lid in range(16)
        if table.aligned_mask[lid]
        for other in range(16)
        if other != lid and selftrace[other] < selftrace[lid]
    )
    ok = slope_ok and raising_edges_ok and aligned_exit_ok
    _report(5, "resistance exponents and edge structure", ok,
            f"50 edge slopes within 10%: {slope_ok}; trace-raising edges r=1: "
            f"{raising_edges_ok}; aligned exits r>=2: {aligned_exit_ok}",
            time.monotonic() - start, 60.0)


def test_criterion_06_stable_set_localized():
    start = time.monotonic()
    report = verify_stability(
        LocalizedChain(get_table(2, 2), LocalParams.uniform(epsilon=0.01, N=3, p=0.5))
    )
    aligned = sorted(int(x) for x in get_table(2, 2).aligned_ids)
    ok = report.verdict == "pass" and report.stable_set == aligned
    _report(6, "stable set = aligned homogeneous (localized)", ok,
            f"stable={report.stable_set}",
            time.monotonic() - start, 120.0)


def test_criterion_07_fig2_reproduction(tmp_path):
    """From a mostly unaligned random start, aligned languages arise and then
    predominate, checked on the timescale the fig2 process sets.

    The fig2 preset (N=20, m=n=3, revision 0.3, mutation 0.01, d=3, whose disk
    is all 729 languages) cannot show this in its own 300 steps: a seed draws
    20 x 0.3 x 0.01 x 300 = 18 mutations in that window, and from a
    self-trace-2 society at most 2 of the 729 targets are both weakly viable
    and trace-raising (one for 108 of the 144 such languages, two for 36). So
    the last raise lands in the window with probability at most 18 x 2/729
    (about 5%), and its mean wait is at least 729/(20 x 0.3 x 0.01 x 2) =
    6,075 steps. The horizon is therefore raised to 10,000, above that bound.
    Not every seed aligns even on long horizons: seeds 10, 11 and 15 fall
    into a cycle between two complementary unaligned languages (each reads the
    other with cross-trace 3 both ways, so the minority is always the fitter
    side and synchronous imitation overshoots every step), and none of them
    had aligned after 200,000 steps. The wait is bounded from below only and
    the share of such traps is not computed, so the test asks for one aligned
    seed, not a count read off today's seeds. Once a seed is aligned, leaving
    costs at least 2 mutations (criterion 5), so from its first all-aligned
    record to the horizon its mean aligned fraction must stay above 0.85."""
    start = time.monotonic()
    out = tmp_path / "fig2"
    seeds = ",".join(str(s) for s in range(20))
    horizon = 10_000
    code = cli.main(["simulate", "--preset", "fig2", "--seed", seeds,
                     "--horizon", str(horizon), "--record-every", "10", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    mean_tail = summary["mean_tail_frac_aligned"]
    t0_fracs = []
    first_aligned = {}
    post_means = []
    for seed in range(20):
        rows = [line.split(",") for line in
                (out / f"traj_seed{seed}.csv").read_text().splitlines()[1:]]
        fracs = [float(row[1]) for row in rows]
        t0_fracs.append(fracs[0])
        hit = next((k for k, frac in enumerate(fracs) if frac == 1.0), None)
        if hit is not None:
            first_aligned[seed] = int(rows[hit][0])
            post_means.append(float(np.mean(fracs[hit:])))
    mean_t0 = float(np.mean(t0_fracs))
    min_post = min(post_means, default=float("nan"))
    ok = mean_t0 < 0.25 and bool(first_aligned) and min_post > 0.85
    _report(7, "fig2 qualitative reproduction", ok,
            f"horizon {horizon}: t=0 mean = {mean_t0:.4f} (need < 0.25); "
            f"aligned seeds (seed: first all-aligned step) {first_aligned} (need >= 1); "
            f"lowest post-alignment mean frac_aligned = {min_post:.4f} (need > 0.85); "
            f"mean_tail_frac_aligned = {mean_tail:.4f}",
            time.monotonic() - start, 30.0)


def test_criterion_08_fig4_drift(tmp_path):
    start = time.monotonic()
    out = tmp_path / "fig4"
    code = cli.main(["simulate", "--preset", "fig4", "--seed", "0,1,2,3,4", "--out", str(out)])
    assert code == 0
    aligned_ids = [int(x) for x in get_table(3, 3).aligned_ids]
    per_seed = []
    for seed in range(5):
        lines = (out / f"traj_seed{seed}.csv").read_text().splitlines()
        majority_langs = set()
        for line in lines[1:]:
            cells = line.split(",")
            counts = [int(c) for c in cells[4:]]
            for lid, count in zip(aligned_ids, counts):
                if count > 5:  # strict majority of N=10
                    majority_langs.add(lid)
        per_seed.append(len(majority_langs))
    ok = all(count >= 2 for count in per_seed)
    _report(8, "fig4 drift between aligned majorities", ok,
            f"distinct aligned majority languages per seed: {per_seed}",
            time.monotonic() - start, 60.0)


def test_criterion_09_replicator_properties():
    start = time.monotonic()
    A = payoff_matrix(2, 2)
    vertices_ok = all(
        (replicator_rhs(np.eye(16)[k], A) == 0.0).all() for k in range(16)
    )
    rng = np.random.default_rng(909)
    X0 = rng.dirichlet(np.ones(16), size=100)
    traj = integrate(X0, A, dt=0.01, steps=10_000, record_every=10_000)
    simplex_ok = traj.max_sum_err < 1e-10 and traj.min_entry > -1e-12
    monotone_ok = bool((np.diff(traj.mean_fitness_path, axis=0) >= -1e-9).all())
    ok = vertices_ok and simplex_ok and monotone_ok
    _report(9, "replicator invariants", ok,
            f"vertices exact: {vertices_ok}; |sum-1| max {traj.max_sum_err:.2e}; "
            f"W monotone within 1e-9 on 100 starts x 1e4 steps: {monotone_ok}",
            time.monotonic() - start, 30.0)


def test_criterion_10_determinism(tmp_path):
    start = time.monotonic()
    args = ["simulate", "--m", "3", "--n", "3", "--N", "8", "--horizon", "200",
            "--eps", "0.05", "--d", "3", "--p", "0.3", "--seed", "7"]
    out_a, out_b, out_c = (tmp_path / x for x in "abc")
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    assert cli.main(["simulate", "--m", "3", "--n", "3", "--N", "8", "--horizon", "200",
                     "--eps", "0.05", "--d", "3", "--p", "0.3", "--seed", "8",
                     "--out", str(out_c)]) == 0
    same = (out_a / "traj_seed7.csv").read_bytes() == (out_b / "traj_seed7.csv").read_bytes()
    different = (out_a / "traj_seed7.csv").read_bytes() != (out_c / "traj_seed8.csv").read_bytes()
    ok = same and different
    _report(10, "seeded determinism", ok,
            f"identical config+seed byte-identical: {same}; distinct seeds differ: {different}",
            time.monotonic() - start, 60.0)
