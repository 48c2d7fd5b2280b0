from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalgame.dynamics import (
    CsvRows,
    ImitationParams,
    LocalParams,
    Trajectory,
    TrajectoryRecord,
    _BLOCK,
    _Replay,
    _below,
    _score,
    _step_imitation_ids,
    _step_localized_ids,
    random_profile_ids,
    run,
)
from signalgame.languages import get_table

from reference import Language, Profile, trace_raising_neighbor

ALIGNED = Language(2, 2, (0, 1), (0, 1))
SWAPPED = Language(2, 2, (1, 0), (1, 0))
POOLING = Language(2, 2, (0, 0), (0, 0))


def _step(step, ids, table, params, draws):
    """One step of ``step`` from the id vector ``ids``, scored as ``run`` scores it."""
    ids = [int(a) for a in ids]
    _, lf = _score(ids, lambda a: table.payoff[a].tolist())
    assert [lf[a] for a in ids] == table.fitness_scaled_ids(np.array(ids)).tolist()
    return np.array(step(ids, lf, table, params, draws))


class TestParams:
    def test_imitation_validation(self):
        ImitationParams(0.0, 1, (0.3, 0.3))
        with pytest.raises(ValueError):
            ImitationParams(1.0, 1, (0.3, 0.3))
        with pytest.raises(ValueError):
            ImitationParams(0.1, 0, (0.3, 0.3))
        for d in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="must be an integer"):
                ImitationParams(0.01, d, (0.3,) * 3)
        with pytest.raises(ValueError):
            ImitationParams(0.1, 1, (0.3, 1.0))

    def test_local_validation(self):
        LocalParams(0.1, ((0.5, 1.0), (1.0, 0.5)))
        with pytest.raises(ValueError):
            LocalParams(0.1, ((0.5, 0.0), (1.0, 0.5)))
        with pytest.raises(ValueError):
            LocalParams(0.1, ((0.5,), (1.0,)))
        LocalParams(0.1, ((0.0, 0.5), (0.5, 0.0)))  # the ignored diagonal may be 0
        with pytest.raises(ValueError, match="diagonal in"):
            LocalParams(0.1, ((1.5, 0.5), (0.5, 0.5)))


class TestStepImitation:
    def test_homogeneous_absorbing_without_mutation(self):
        table = get_table(2, 2)
        params = ImitationParams.uniform(epsilon=0.0, d=2, N=4, p=0.5)
        ids = np.full(4, POOLING.id)
        draws = _Replay(np.random.default_rng(0))
        for _ in range(200):
            assert _step(_step_imitation_ids, ids, table, params, draws).tolist() == ids.tolist()

    def test_reaches_homogeneous_from_any_start(self):
        table = get_table(2, 2)
        params = ImitationParams.uniform(epsilon=0.0, d=2, N=5, p=0.5)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ids = random_profile_ids(table, 5, rng)
            draws = _Replay(rng)
            for _ in range(200):
                ids = _step(_step_imitation_ids, ids, table, params, draws)
                if len(set(ids.tolist())) == 1:
                    break
            assert len(set(ids.tolist())) == 1

    def test_changed_agents_copy_an_argmax_language(self):
        table = get_table(3, 3)
        params = ImitationParams.uniform(epsilon=0.0, d=3, N=6, p=0.5)
        rng = np.random.default_rng(1)
        ids = random_profile_ids(table, 6, rng)
        draws = _Replay(rng)
        for _ in range(60):
            fit = table.fitness_scaled_ids(ids)
            argmax_langs = set(ids[fit == fit.max()].tolist())
            new = _step(_step_imitation_ids, ids, table, params, draws)
            for old, fresh in zip(ids, new):
                if fresh != old:
                    assert int(fresh) in argmax_langs
            ids = new

    def test_two_aligned_one_mute_agent(self):
        # the zero-trace agent is strictly less fit; whenever every agent
        # revises and nobody mutates, the next profile is homogeneous aligned
        table = get_table(2, 2)
        crossed = Language(2, 2, (0, 1), (1, 0))
        profile = Profile((ALIGNED, ALIGNED, crossed))
        ids = np.asarray(profile.ids())
        fit = table.fitness_scaled_ids(ids)
        assert list(fit == fit.max()) == [True, True, False]
        params = ImitationParams.uniform(epsilon=0.0, d=2, N=3, p=0.9)
        draws = _Replay(np.random.default_rng(2))
        outcomes = set()
        for _ in range(300):
            outcomes.add(tuple(_step(_step_imitation_ids, ids, table, params, draws).tolist()))
        aligned_id = ALIGNED.id
        assert (aligned_id,) * 3 in outcomes
        for out in outcomes:
            for agent, lid in enumerate(out):
                assert lid in (ids[agent], aligned_id)

    def test_mutation_support_is_the_disk(self):
        table = get_table(2, 2)
        params = ImitationParams.uniform(epsilon=0.999, d=1, N=2, p=0.9)
        draws = _Replay(np.random.default_rng(3))
        start = np.array([POOLING.id, ALIGNED.id])
        seen: dict[int, set[int]] = {0: set(), 1: set()}
        for _ in range(4000):
            out = _step(_step_imitation_ids, start, table, params, draws)
            for agent in (0, 1):
                if out[agent] != start[agent]:
                    seen[agent].add(int(out[agent]))
        disks = table.disks(1)
        for agent in (0, 1):
            support = set(int(x) for x in disks[start[agent]])
            assert seen[agent] <= support
            # the argmax language is also adoptable without mutating
            assert support <= seen[agent] | set(start.tolist())

    def test_one_mutation_transition_structure(self):
        # a lone weakly-fitter mutant joins the argmax set and some
        # unperturbed continuation carries it to fixation; a strictly less
        # fit mutant never spreads under the unperturbed dynamics
        table = get_table(2, 2)
        better = trace_raising_neighbor(POOLING)
        ids = np.array([POOLING.id] * 2 + [better.id])
        fit = table.fitness_scaled_ids(ids)
        assert fit[2] == fit.max()
        params = ImitationParams.uniform(epsilon=0.0, d=2, N=3, p=0.5)
        fixed = set()
        for seed in range(40):
            draws = _Replay(np.random.default_rng(seed))
            state = ids.copy()
            for _ in range(60):
                state = _step(_step_imitation_ids, state, table, params, draws)
                if len(set(state.tolist())) == 1:
                    break
            fixed.add(int(state[0]))
        assert better.id in fixed

        crossed = Language(2, 2, (0, 1), (1, 0))  # delta > 0 against ALIGNED
        ids = np.array([ALIGNED.id] * 2 + [crossed.id])
        fit = table.fitness_scaled_ids(ids)
        assert fit[2] < fit.max()
        params = ImitationParams.uniform(epsilon=0.0, d=2, N=3, p=0.5)
        draws = _Replay(np.random.default_rng(4))
        state = ids.copy()
        for _ in range(100):
            state = _step(_step_imitation_ids, state, table, params, draws)
        assert state.tolist() == [ALIGNED.id] * 3


class TestStepLocalized:
    def test_homogeneous_absorbing(self):
        table = get_table(2, 2)
        params = LocalParams.uniform(epsilon=0.0, N=3, p=0.5)
        ids = np.full(3, SWAPPED.id)
        draws = _Replay(np.random.default_rng(5))
        for _ in range(200):
            assert _step(_step_localized_ids, ids, table, params, draws).tolist() == ids.tolist()

    def test_full_neighbourhoods_imitate_global_argmax(self):
        # with p_ij = 1 and a unique fittest agent, one step conforms everyone
        table = get_table(2, 2)
        crossed = Language(2, 2, (0, 1), (1, 0))
        ids = np.array([ALIGNED.id, ALIGNED.id, crossed.id])
        params = LocalParams.uniform(epsilon=0.0, N=3, p=1.0)
        out = _step(_step_localized_ids, ids, table, params, _Replay(np.random.default_rng(6)))
        assert out.tolist() == [ALIGNED.id] * 3

    def test_mutation_support_is_everything(self):
        table = get_table(2, 2)
        params = LocalParams.uniform(epsilon=0.999, N=2, p=0.5)
        draws = _Replay(np.random.default_rng(7))
        start = np.array([POOLING.id, POOLING.id])
        seen = set()
        for _ in range(3000):
            out = _step(_step_localized_ids, start, table, params, draws)
            seen.update(out.tolist())
        assert seen == set(range(table.size))

    def test_less_fit_mutant_never_copied(self):
        table = get_table(2, 2)
        crossed = Language(2, 2, (0, 1), (1, 0))
        ids = np.array([ALIGNED.id] * 3 + [crossed.id])
        params = LocalParams.uniform(epsilon=0.0, N=4, p=0.5)
        draws = _Replay(np.random.default_rng(8))
        for _ in range(300):
            out = _step(_step_localized_ids, ids, table, params, draws)
            assert all(lid == ALIGNED.id for lid in out[:3])


def _initial_record(profile: Profile) -> tuple[Trajectory, TrajectoryRecord]:
    """A run of horizon 0 from ``profile``: its trajectory and its one record."""
    table = get_table(profile.m, profile.n)
    params = ImitationParams.uniform(epsilon=0.1, d=1, N=profile.n_agents, p=0.5)
    traj = run(np.array(profile.ids()), "imitation", params, horizon=0, rng=0, table=table)
    return traj, traj.records[0]


class TestMetrics:
    def test_fraction_aligned(self):
        assert _initial_record(Profile((ALIGNED,) * 4))[1].n_aligned == 4
        assert _initial_record(Profile((POOLING,) * 4))[1].n_aligned == 0
        traj, rec = _initial_record(Profile((ALIGNED,) * 6 + (POOLING,) * 4))
        assert Fraction(rec.n_aligned, traj.n_agents) == Fraction(3, 5)
        assert traj.to_csv().splitlines()[1].split(",")[1] == "0.6"

    def test_csv_line_follows_every_field(self):
        # Hand-built records of one profile: a line tail is shared only while every
        # field after t agrees.
        traj = Trajectory(2, (5, 10))
        fields = [(1, 4, 5, (1, 1)), (1, 4, 5, (1, 1)), (1, 4, 10, (1, 1)),
                  (1, 2, 10, (1, 1)), (2, 2, 10, (1, 1)), (2, 2, 10, (2, 0))]
        traj.records = [TrajectoryRecord(t, (5, 10), *f) for t, f in enumerate(fields)]
        assert traj.to_csv().splitlines()[1:] == [
            "0,0.5,2.0,5,1,1", "1,0.5,2.0,5,1,1", "2,0.5,2.0,10,1,1",
            "3,0.5,1.0,10,1,1", "4,1.0,1.0,10,1,1", "5,1.0,1.0,10,2,0"]

    def test_census_domain(self):
        ident = Language(3, 3, (0, 1, 2), (0, 1, 2))
        traj, rec = _initial_record(Profile((ident,) * 4))
        census = dict(zip(traj.aligned_ids, rec.aligned_counts))
        assert len(census) == 6
        assert census[ident.id] == 4
        assert sum(census.values()) == 4 == rec.n_aligned

    def test_census_all_zero(self):
        _, rec = _initial_record(Profile((POOLING,) * 3))
        assert set(rec.aligned_counts) == {0}


class TestRun:
    def test_zero_horizon_records_initial_only(self):
        profile = Profile((ALIGNED, POOLING))
        params = ImitationParams.uniform(epsilon=0.1, d=1, N=2, p=0.5)
        traj = run(np.array(profile.ids()), "imitation", params, horizon=0, rng=0,
                   table=get_table(2, 2))
        assert [rec.t for rec in traj.records] == [0]
        assert traj.records[0].ids == profile.ids()

    def test_record_every_includes_final(self):
        profile = Profile((ALIGNED, POOLING))
        params = ImitationParams.uniform(epsilon=0.1, d=1, N=2, p=0.5)
        traj = run(np.array(profile.ids()), "imitation", params, horizon=7, record_every=3,
                   rng=0, table=get_table(2, 2))
        assert [rec.t for rec in traj.records] == [0, 3, 6, 7]

    def test_deterministic_and_seed_sensitive(self):
        table = get_table(2, 2)
        params = ImitationParams.uniform(epsilon=0.05, d=2, N=4, p=0.4)
        initial = random_profile_ids(table, 4, np.random.default_rng(99))
        a = run(initial.copy(), "imitation", params, 50, rng=11, table=table)
        b = run(initial.copy(), "imitation", params, 50, rng=11, table=table)
        c = run(initial.copy(), "imitation", params, 50, rng=12, table=table)
        assert a.to_csv() == b.to_csv()
        assert a.to_csv() != c.to_csv()

    def test_localized_run_and_csv_schema(self):
        table = get_table(2, 2)
        params = LocalParams.uniform(epsilon=0.05, N=3, p=0.5)
        initial = random_profile_ids(table, 3, np.random.default_rng(0))
        traj = run(initial, "localized", params, 20, rng=1, table=table)
        header = traj.to_csv().splitlines()[0]
        assert header == "t,frac_aligned,avg_fitness,majority_lang_id,count_5,count_10"

    def test_wrong_params_type(self):
        ids = np.array(Profile((ALIGNED, POOLING)).ids())
        table = get_table(2, 2)
        with pytest.raises(TypeError):
            run(ids, "imitation", LocalParams.uniform(0.1, 2, 0.5), 5, rng=0, table=table)
        with pytest.raises(ValueError):
            run(ids, "annealing", ImitationParams.uniform(0.1, 1, 2, 0.5), 5, rng=0, table=table)

    def test_rejects_ids_outside_the_table(self):
        params = ImitationParams.uniform(0.1, 1, 2, 0.5)
        for ids in ([0, 16], [-1, 3]):
            with pytest.raises(ValueError, match="language ids"):
                run(np.array(ids), "imitation", params, 5, rng=0, table=get_table(2, 2))

    def test_rejects_generators_outside_the_contract(self):
        # the replay reproduces PCG64's draws only
        ids = np.array(Profile((ALIGNED, POOLING)).ids())
        params = ImitationParams.uniform(0.1, 1, 2, 0.5)
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match="PCG64"):
            run(ids, "imitation", params, 5, rng=rng, table=get_table(2, 2))
        assert rng.random() == np.random.Generator(np.random.MT19937(0)).random()  # untouched


# -- the raw replay against the live Generator -------------------------------------------

# Lemire's method rejects about a quarter of the 32-bit draws for this bound.
_REJECTING_K = 3 * 2**30 + 1


def _probabilities():
    """p = 0, p = 1, dyadic j / 2**53 and arbitrary floats in [0, 1], with their neighbours."""
    dyadic = st.integers(0, 2**53).map(lambda j: j * 2.0**-53)
    base = st.one_of(st.sampled_from([0.0, 1.0]), dyadic, st.floats(0.0, 1.0))
    return base.flatmap(lambda p: st.sampled_from(
        [p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, 1.0))]))


_OPS = st.lists(st.one_of(
    st.tuples(st.just("random"), st.lists(_probabilities(), min_size=1, max_size=4)),
    st.tuples(st.just("vector"), st.integers(1, 12)),
    st.tuples(st.just("integers"),
              st.one_of(st.sampled_from([1, 2, 3, 10, 729, _REJECTING_K, 2**32]),
                        st.integers(1, 2**32))),
), max_size=60)


class TestReplay:
    @given(p=_probabilities(), offset=st.integers(-2**12, 2**12))
    def test_threshold_is_exact(self, p, offset):
        x = min(max(_below(p) + offset, 0), 2**64 - 1)
        assert (x < _below(p)) == ((x >> 11) * 2.0**-53 < p)

    @given(seed=st.integers(0, 2**64 - 1), primer=st.integers(0, 3), ops=_OPS)
    @settings(max_examples=300, deadline=None)
    def test_matches_generator(self, seed, primer, ops):
        # primer 1 and 3 leave a buffered high half; 2 leaves a consumed, stale one
        live = np.random.default_rng(seed)
        replayed = np.random.default_rng(seed)
        for rng in (live, replayed):
            rng.integers(5, size=primer)
        draws = _Replay(replayed)
        for op, arg in ops:
            if op == "random":
                pos = draws.reserve(1)
                x = draws.raw[pos]
                draws.pos = pos + 1
                u = live.random()
                assert (x >> 11) * 2.0**-53 == u
                assert [x < _below(p) for p in arg] == [u < p for p in arg]
            elif op == "vector":
                pos = draws.reserve(arg)
                xs = draws.raw[pos:pos + arg]
                draws.pos = pos + arg
                assert [(x >> 11) * 2.0**-53 for x in xs] == live.random(arg).tolist()
            else:
                value, draws.pos = draws.integers(arg, draws.reserve(1))
                assert value == live.integers(arg)
        draws.release()
        assert replayed.bit_generator.state == live.bit_generator.state
        assert replayed.random() == live.random()

    def test_rejections_fire(self):
        # about a quarter of the draws at this bound are rejected and redrawn
        draws = _Replay(np.random.default_rng(0))
        for _ in range(200):
            _, draws.pos = draws.integers(_REJECTING_K, draws.reserve(1))
        assert len(draws.raw) - _BLOCK > 20  # one value appended per rejection


# -- oracle: the step, record and CSV code as it was before fitness was shared ----------
# Each step and each record evaluated the fitness itself, and records held
# Fractions. ``run`` must keep writing the same CSV bytes and profiles.


def _oracle_step_imitation_ids(ids, table, params, rng):
    fit = table.fitness_scaled_ids(ids)
    argmax_agents = np.flatnonzero(fit == fit.max())
    disks = table.disks(params.d)
    probs = params.revision_probs
    eps = params.epsilon
    new = ids.copy()
    for i in range(ids.size):
        if rng.random() >= probs[i]:
            continue
        if rng.random() >= eps:
            new[i] = ids[argmax_agents[rng.integers(argmax_agents.size)]]
        else:
            support = disks[ids[i]]
            new[i] = support[rng.integers(support.size)]
    return new


def _oracle_step_localized_ids(ids, table, params, rng):
    fit = table.fitness_scaled_ids(ids)
    probs = np.asarray(params.neighbor_probs)
    eps = params.epsilon
    new = ids.copy()
    for i in range(ids.size):
        include = rng.random(ids.size) < probs[i]
        include[i] = True
        neighbors = np.flatnonzero(include)
        if rng.random() >= eps:
            local_fit = fit[neighbors]
            best = neighbors[local_fit == local_fit.max()]
            new[i] = ids[best[rng.integers(best.size)]]
        else:
            new[i] = rng.integers(table.size)
    return new


def _oracle_record(table, t, ids, N):
    counts = np.bincount(ids, minlength=table.size)
    aligned_counts = tuple(int(counts[lid]) for lid in table.aligned_ids)
    fit = table.fitness_scaled_ids(ids)
    return {
        "t": t,
        "ids": tuple(int(x) for x in ids),
        "frac_aligned": Fraction(int(np.isin(ids, table.aligned_ids).sum()), N),
        "avg_fitness": Fraction(int(fit.sum()), N * (N - 1)),
        "majority_id": int(counts.argmax()),
        "aligned_counts": aligned_counts,
    }


def _oracle_run(initial, dynamic, params, horizon, record_every, seed, table):
    step = _oracle_step_imitation_ids if dynamic == "imitation" else _oracle_step_localized_ids
    rng = np.random.default_rng(seed)
    ids = np.asarray(initial, dtype=np.int64)
    N = ids.size
    records = [_oracle_record(table, 0, ids, N)]
    for t in range(1, horizon + 1):
        ids = step(ids, table, params, rng)
        if t % record_every == 0 or t == horizon:
            records.append(_oracle_record(table, t, ids, N))
    return records


def _oracle_csv(aligned_ids, records):
    counts = ",".join(f"count_{lid}" for lid in aligned_ids)
    lines = [f"t,frac_aligned,avg_fitness,majority_lang_id,{counts}"]
    for rec in records:
        counts = ",".join(str(c) for c in rec["aligned_counts"])
        lines.append(
            f"{rec['t']},{float(rec['frac_aligned'])!r},{float(rec['avg_fitness'])!r},"
            f"{rec['majority_id']},{counts}"
        )
    return "\n".join(lines) + "\n"


class TestMatchesOracle:
    """The shared-fitness run writes the oracle's bytes, seed for seed."""

    N = 6
    HORIZON = 150

    def _params(self, dynamic, seed, N=N):
        if dynamic == "imitation":
            return ImitationParams.uniform(epsilon=0.2, d=2, N=N, p=0.4)
        # a non-uniform p_ij matrix, so each agent reads its own row
        matrix = np.random.default_rng(1000 + seed).uniform(0.05, 1.0, (N, N))
        return LocalParams(0.2, tuple(tuple(row) for row in matrix.tolist()))

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("mn", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_csv_and_profiles(self, dynamic, mn, record_every):
        table = get_table(*mn)
        for seed in range(3):
            params = self._params(dynamic, seed)
            initial = random_profile_ids(table, self.N, np.random.default_rng(seed))
            traj = run(initial.copy(), dynamic, params, self.HORIZON, record_every,
                       rng=seed, table=table)
            oracle = _oracle_run(initial, dynamic, params, self.HORIZON, record_every, seed, table)
            assert [rec.ids for rec in traj.records] == [rec["ids"] for rec in oracle]
            assert traj.to_csv() == _oracle_csv(traj.aligned_ids, oracle)

    @pytest.mark.parametrize("N", [5, 7])
    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_shared_generator_odd_n(self, dynamic, N):
        # as in cmd_simulate, the initial profile and the run share one generator;
        # an odd N leaves the high half of a 32-bit draw buffered for the run
        table = get_table(3, 3)
        for seed in range(3):
            params = self._params(dynamic, seed, N)
            rng = np.random.default_rng(seed)
            initial = random_profile_ids(table, N, rng)
            assert rng.bit_generator.state["has_uint32"] == 1
            oracle_rng = np.random.default_rng(seed)
            assert random_profile_ids(table, N, oracle_rng).tolist() == initial.tolist()
            traj = run(initial.copy(), dynamic, params, self.HORIZON, 1, rng=rng, table=table)
            oracle = _oracle_run(initial, dynamic, params, self.HORIZON, 1, oracle_rng, table)
            assert [rec.ids for rec in traj.records] == [rec["ids"] for rec in oracle]
            assert traj.to_csv() == _oracle_csv(traj.aligned_ids, oracle)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert rng.integers(table.size) == oracle_rng.integers(table.size)

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_csv_sink(self, dynamic):
        # a CsvRows sink writes the oracle's bytes as run hands it each record
        table = get_table(3, 3)
        params = self._params(dynamic, 0)
        initial = random_profile_ids(table, self.N, np.random.default_rng(0))
        parts = []
        sink = CsvRows(parts.append, self.N, tuple(table.aligned_ids.tolist()))
        traj = run(initial.copy(), dynamic, params, self.HORIZON, 3, rng=0, table=table, sink=sink)
        assert traj.records is sink and len(sink) == self.HORIZON // 3 + 1
        oracle = _oracle_run(initial, dynamic, params, self.HORIZON, 3, 0, table)
        assert "".join(parts) == _oracle_csv(traj.aligned_ids, oracle)
