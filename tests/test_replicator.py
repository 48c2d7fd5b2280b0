from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from signalgame.errors import CapExceededError
from signalgame.languages import get_table
from signalgame.replicator import SUBOPTIMAL_REST_X0, integrate, payoff_matrix

from reference import cross_trace, enumerate_languages, mean_fitness, permute, replicator_rhs


@pytest.fixture(scope="module")
def A22():
    return payoff_matrix(2, 2)


class TestPayoffMatrix:
    def test_shape_symmetry_bounds(self, A22):
        assert A22.shape == (16, 16)
        assert (A22 == A22.T).all()
        assert A22.max() == 4 and A22.min() >= 0

    def test_diagonal_is_twice_self_trace(self, A22):
        langs = enumerate_languages(2, 2)
        for k, lang in enumerate(langs):
            assert A22[k, k] == 2 * cross_trace(lang, lang)

    def test_matches_cross_trace_pairs(self):
        for m, n in ((2, 2), (3, 3), (2, 3), (3, 2)):
            A = payoff_matrix(m, n)
            langs = enumerate_languages(m, n)
            rng = np.random.default_rng(0)
            for _ in range(100):
                i, j = rng.integers(0, len(langs), 2)
                assert A[i, j] == cross_trace(langs[i], langs[j]) + cross_trace(langs[j], langs[i])

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_float64_equals_table_payoff(self, m, n):
        # the matrix integrate multiplies in, so it is not copied again there
        A = payoff_matrix(m, n)
        assert A.dtype == np.float64
        assert np.array_equal(A, get_table(m, n).payoff)

    def test_built_without_an_int16_copy(self):
        # the float64 matrix comes straight from the table's traces: a fresh (3,3) table
        # plus the matrix peak at its 729^2 doubles and half a MiB, with no int16 payoff
        get_table.cache_clear()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            A = payoff_matrix(3, 3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= len(A) ** 2 * 8 + 2**19
        assert np.array_equal(A, get_table(3, 3).payoff.astype(np.float64))

    def test_object_permutation_symmetry(self, A22):
        langs = enumerate_languages(2, 2)
        mapped = [permute(lang, (1, 0)).id for lang in langs]
        assert (A22[np.ix_(mapped, mapped)] == A22).all()

    def test_cap(self):
        with pytest.raises(CapExceededError):
            payoff_matrix(4, 4)


class TestRhs:
    def test_vertices_exactly_stationary(self, A22):
        for k in range(16):
            x = np.zeros(16)
            x[k] = 1.0
            assert (replicator_rhs(x, A22) == 0.0).all()

    def test_equal_payoff_mixture_is_a_rest_point(self, A22):
        # the 50/50 mix of the two aligned languages gives both of them the
        # same payoff against the mix, so the field vanishes there
        x = np.zeros(16)
        x[5] = x[10] = 0.5
        assert (replicator_rhs(x, A22) == 0.0).all()

    def test_components_sum_to_zero(self, A22):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.dirichlet(np.ones(16))
            assert abs(replicator_rhs(x, A22).sum()) < 1e-12

    def test_mean_fitness_values(self, A22):
        aligned = np.zeros(16)
        aligned[5] = 1.0
        assert mean_fitness(aligned, A22) == 4.0
        crossed = np.zeros(16)
        crossed[6] = 1.0  # speak=(0,1), hear=(1,0): zero self-trace
        assert mean_fitness(crossed, A22) == 0.0
        both = np.zeros(16)
        both[5] = both[10] = 0.5
        assert mean_fitness(both, A22) == 2.0


class TestIntegrate:
    def test_vertex_start_is_constant(self, A22):
        x0 = np.zeros(16)
        x0[3] = 1.0
        traj = integrate(x0, A22, dt=0.01, steps=200)
        assert (traj.states[-1] == x0).all()
        assert traj.terminal_rhs_inf == 0.0

    def test_uniform_start_monotone(self, A22):
        traj = integrate(np.full(16, 1 / 16), A22, dt=0.01, steps=2000, record_every=100)
        diffs = np.diff(traj.mean_fitness_path)
        assert (diffs >= -1e-9).all()
        assert traj.max_sum_err < 1e-10

    def test_random_starts_monotone_and_on_simplex(self, A22):
        rng = np.random.default_rng(2)
        X0 = rng.dirichlet(np.ones(16), size=20)
        traj = integrate(X0, A22, dt=0.01, steps=2000, record_every=2000)
        assert (np.diff(traj.mean_fitness_path, axis=0) >= -1e-9).all()
        assert traj.max_sum_err < 1e-10
        assert traj.min_entry > -1e-12

    def test_suboptimal_rest_fixture(self, A22):
        traj = integrate(np.asarray(SUBOPTIMAL_REST_X0), A22, dt=0.01, steps=20000,
                         record_every=20000)
        assert traj.mean_fitness_path[-1] < 4.0 - 1e-6
        assert traj.terminal_rhs_inf < 1e-8

    def test_off_simplex_start_rejected(self, A22):
        with pytest.raises(ValueError):
            integrate(np.full(16, 1.0), A22, dt=0.01, steps=1)

    def test_record_every(self, A22):
        traj = integrate(np.full(16, 1 / 16), A22, dt=0.05, steps=10, record_every=5)
        assert traj.times.tolist() == [0.0, 0.25, 0.5]
        assert len(traj.mean_fitness_path) == 11
        # the terminal step is recorded even when record_every does not divide steps
        every = integrate(np.full(16, 1 / 16), A22, dt=0.05, steps=10, record_every=1)
        traj = integrate(np.full(16, 1 / 16), A22, dt=0.05, steps=10, record_every=3)
        assert traj.times.tolist() == [t * 0.05 for t in (0, 3, 6, 9, 10)]
        assert np.array_equal(traj.states, every.states[[0, 3, 6, 9, 10]])

    def test_nan_start_rejected(self, A22):
        x0 = np.full(16, 1 / 16)
        x0[3] = float("nan")
        with pytest.raises(ValueError, match="x0 must lie on the simplex"):
            integrate(x0, A22, dt=0.01, steps=1)
        with pytest.raises(ValueError, match="x0 must lie on the simplex"):
            integrate(np.stack([np.full(16, 1 / 16), x0]), A22, dt=0.01, steps=1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_step_rejected(self, A22):
        # a step this large overflows to inf and NaN, which no check may let through;
        # the ValueError is the only report: numpy's RuntimeWarnings stay silent
        with pytest.raises(ValueError, match="left the simplex at step 1"):
            integrate(np.asarray(SUBOPTIMAL_REST_X0), A22, dt=1e200, steps=10)

    def test_bad_step_params(self, A22):
        x0 = np.full(16, 1 / 16)
        for dt in (0.0, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                integrate(x0, A22, dt=dt, steps=10)
        with pytest.raises(ValueError):
            integrate(x0, A22, dt=0.01, steps=-1)
        for every in (0, -2):
            with pytest.raises(ValueError, match="record_every must be >= 1"):
                integrate(x0, A22, dt=0.01, steps=10, record_every=every)


def _oracle_integrate(x0, payoff, dt, steps, record_every):
    """The RK4 loop as it was before the end-of-step product was shared."""
    x = np.asarray(x0, dtype=float)
    batched = x.ndim == 2
    X = x if batched else x[None, :]
    A = np.asarray(payoff, dtype=float)

    def rhs(Y):
        fit = Y @ A
        mean = (Y * fit).sum(axis=1, keepdims=True)
        return Y * (fit - mean)

    n_records = -(-steps // record_every) + 1
    times = np.empty(n_records)
    states = np.empty((n_records,) + X.shape)
    w_path = np.empty((steps + 1, X.shape[0]))
    times[0] = 0.0
    states[0] = X
    w_path[0] = (X * (X @ A)).sum(axis=1)
    max_sum_err = float(np.abs(X.sum(axis=1) - 1.0).max())
    min_entry = float(X.min())
    rec = 1
    for step in range(1, steps + 1):
        k1 = rhs(X)
        k2 = rhs(X + 0.5 * dt * k1)
        k3 = rhs(X + 0.5 * dt * k2)
        k4 = rhs(X + dt * k3)
        X = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sums = X.sum(axis=1)
        max_sum_err = max(max_sum_err, float(np.abs(sums - 1.0).max()))
        min_entry = min(min_entry, float(X.min()))
        X = X / sums[:, None]
        w_path[step] = (X * (X @ A)).sum(axis=1)
        if step % record_every == 0 or step == steps:
            times[rec] = step * dt
            states[rec] = X
            rec += 1
    terminal_rhs = float(np.abs(rhs(X)).max())
    if not batched:
        states = states[:, 0, :]
        w_path = w_path[:, 0]
    return {"times": times[:rec], "states": states[:rec], "mean_fitness_path": w_path,
            "max_sum_err": max_sum_err, "min_entry": min_entry, "terminal_rhs_inf": terminal_rhs}


class TestMatchesOracle:
    """The fused RK4 step reproduces the unfused one bit for bit."""

    def _assert_identical(self, traj, oracle):
        for key in ("times", "states", "mean_fitness_path"):
            got, want = getattr(traj, key), oracle[key]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), key
        for key in ("max_sum_err", "min_entry", "terminal_rhs_inf"):
            assert getattr(traj, key) == oracle[key], key

    def test_fixture(self, A22):
        x0 = np.asarray(SUBOPTIMAL_REST_X0)
        traj = integrate(x0, A22, dt=0.01, steps=10000)
        self._assert_identical(traj, _oracle_integrate(x0, A22, 0.01, 10000, 1))

    def test_dirichlet_batch(self, A22):
        X0 = np.random.default_rng(5).dirichlet(np.ones(16), size=8)
        traj = integrate(X0, A22, dt=0.01, steps=1000, record_every=7)
        self._assert_identical(traj, _oracle_integrate(X0, A22, 0.01, 1000, 7))

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_cli_csv(self, A22, tmp_path, capsys, record_every):
        from signalgame import cli

        steps = 1000
        assert cli.main(["replicator", "--m", "2", "--n", "2", "--x0", "fixture",
                         "--steps", str(steps), "--record-every", str(record_every),
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        oracle = _oracle_integrate(np.asarray(SUBOPTIMAL_REST_X0), A22, 0.01, steps, record_every)
        w_path = oracle["mean_fitness_path"]
        lines = ["t,W," + ",".join(f"x_{k}" for k in range(16))]
        for idx, t in enumerate(oracle["times"]):
            w = w_path[min(idx * record_every, len(w_path) - 1)]
            state = ",".join(repr(float(v)) for v in oracle["states"][idx])
            lines.append(f"{float(t)!r},{float(w)!r},{state}")
        assert (tmp_path / "replicator.csv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv,sha256", [
    (["--m", "2", "--n", "2", "--x0", "fixture", "--steps", "10000"],
     "980deb3c787827fcf22b28b900fe06121febb552b31458d82ea831e1168de88a"),
    (["--m", "2", "--n", "3", "--x0", "uniform", "--steps", "2000"],
     "95cc98a270046cde2bf2ddebf870d63462743616449a661ec20b3e4347a66e6e"),
], ids=["fixture-22", "uniform-23"])
def test_cli_csv_bytes(tmp_path, capsys, argv, sha256):
    # Captured while payoff_matrix returned int64 and integrate converted it to float64:
    # the float64 matrix gives the same products. Another BLAS may round its matmul
    # differently, as it may the replicator terminal values that perfbench pins.
    from signalgame import cli

    assert cli.main(["replicator", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "replicator.csv").read_bytes()).hexdigest() == sha256
