from __future__ import annotations

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from signalgame import chain as chain_module
from signalgame.chain import (
    ImitationChain,
    LocalizedChain,
    MultisetSpace,
    ResistanceGraph,
    StateSpace,
    _ChainModel,
    _codes,
    _gth_stationary,
    _ids,
    _outer,
    make_chain,
    optimal_state_indices,
    stationary,
    stochastic_potential,
    sweep_stationary,
    verify_stability,
)
from signalgame.dynamics import (
    ImitationParams,
    LocalParams,
    _Replay,
    _score,
    _step_imitation_ids,
    _step_localized_ids,
)
from signalgame.errors import CapExceededError, ConvergenceError
from signalgame.languages import get_table, language_count

from reference import Language, permute, reference_localized_dists, reference_resistances


@pytest.fixture(scope="module")
def table22():
    return get_table(2, 2)


@pytest.fixture(scope="module")
def imitation223(table22):
    params = ImitationParams.uniform(epsilon=0.01, d=2, N=3, p=0.3)
    return ImitationChain(table22, params)


@pytest.fixture(scope="module")
def resistance223(imitation223):
    return imitation223.least_resistance()


def imitation_chain(m, n, N):
    """The imitation chain verify builds by default: d=2, revision probability 0.3."""
    return ImitationChain(get_table(m, n), ImitationParams.uniform(epsilon=0.01, d=2, N=N, p=0.3))


def encode(space, ids) -> int:
    """Labelled state index of one joint state (agent 0 most significant)."""
    return int(_codes(np.asarray(ids, dtype=np.int64), space.table.size))


def decode(space, index: int) -> tuple[int, ...]:
    """Joint state of one labelled state index."""
    return tuple(_ids(np.array([index]), space.table.size, space.n_agents)[0].tolist())


def permutation_id_map(table, sigma):
    """Language-id relabeling induced by an object permutation."""
    out = np.empty(table.size, dtype=np.int64)
    for lid in range(table.size):
        out[lid] = permute(Language.from_id(table.m, table.n, lid), sigma).id
    return out


class TestStateSpace:
    def test_roundtrip(self, table22):
        space = StateSpace(table22, 3)
        for index in (0, 1, 255, 4095):
            assert encode(space, decode(space, index)) == index
        ids = space.all_ids()
        assert ids.shape == (4096, 3)
        assert decode(space, 100) == tuple(ids[100])

    def test_cap(self, table22):
        with pytest.raises(CapExceededError):
            StateSpace(table22, 5)  # 16^5 = 1,048,576 states

    def test_chain_owns_the_cap(self, monkeypatch):
        # (2,2,3) has 816 multisets and 4,096 labelled states; each space is
        # checked against the cap when it is built.
        monkeypatch.setattr(chain_module, "MAX_STATES", 815)
        with pytest.raises(CapExceededError, match="multiset space has 816 states"):
            imitation_chain(2, 2, 3).recurrent_classes()
        monkeypatch.setattr(chain_module, "MAX_STATES", 816)
        chain = imitation_chain(2, 2, 3)
        assert verify_stability(chain).verdict == "pass"
        with pytest.raises(CapExceededError, match="labelled state space has 4096 states"):
            chain.kernel(0.1)
        monkeypatch.setattr(chain_module, "MAX_STATES", 4096)
        assert imitation_chain(2, 2, 3).space.size == 4096

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_verify_without_sweep_builds_no_labelled_space(self, table22, monkeypatch, dynamic):
        def refuse(self, table, n_agents):
            raise AssertionError("labelled state space built")

        monkeypatch.setattr(StateSpace, "__init__", refuse)
        chain = (imitation_chain(2, 2, 3) if dynamic == "imitation" else
                 LocalizedChain(table22, LocalParams.uniform(epsilon=0.01, N=3, p=0.5)))
        report = verify_stability(chain)
        assert report.verdict == "pass"
        assert report.state_count == 4096

    def test_operations_above_the_cap(self):
        chain = imitation_chain(2, 3, 4)  # 72^4 labelled states, 1,215,450 multisets
        state, other = (0, 1, 2, 3), (3, 4, 5, 6)
        for call in (lambda: chain.kernel(0.1), lambda: chain.transition_row(state, 0.1),
                     chain.recurrent_classes, chain.least_resistance,
                     lambda: verify_stability(chain)):
            with pytest.raises(CapExceededError):
                call()
        assert 0.0 <= chain.transition_prob(state, other, 0.1) <= 1.0
        assert chain.step_resistance(state, state) == 0.0

    def test_optimal_indices(self, table22):
        space, aligned_mask = StateSpace(table22, 3), np.isin(np.arange(16), table22.aligned_ids)
        for index in optimal_state_indices(space):
            decoded = decode(space, int(index))
            assert len(set(decoded)) == 1
            assert aligned_mask[decoded[0]]


class TestMultisetSpace:
    @pytest.mark.parametrize("K,N", [(16, 3), (4, 3), (4, 4), (3, 5)])
    def test_rows_are_sorted_unique_representatives(self, K, N):
        rows = MultisetSpace(SimpleNamespace(size=K), N).all_ids()
        assert rows.shape == (math.comb(K + N - 1, N), N)
        assert (np.diff(rows, axis=1) >= 0).all()
        assert np.array_equal(np.unique(rows, axis=0), rows)  # unique, lexicographic

    @staticmethod
    def _check_fold(N, costs):
        # against the brute force: each multiset's least cost over its labelled orbit
        K = costs.shape[2]
        space = MultisetSpace(SimpleNamespace(size=K), N)
        joint = _outer(costs.astype(np.int64), np.add)
        index = {tuple(row): v for v, row in enumerate(space.all_ids().tolist())}
        expected = np.full((len(costs), space.size), np.iinfo(np.int64).max)
        for w, ids in enumerate(StateSpace(SimpleNamespace(size=K), N).all_ids()):
            v = index[tuple(sorted(ids.tolist()))]
            expected[:, v] = np.minimum(expected[:, v], joint[:, w])
        folded = space.expand(costs)
        assert folded.dtype == costs.dtype
        assert np.array_equal(folded, expected)

    @pytest.mark.parametrize("N", [3, 4])
    def test_fold_is_the_orbit_minimum(self, N):
        self._check_fold(N, np.random.default_rng(N).integers(0, 9, size=(20, N, 4)))

    @pytest.mark.parametrize("batch", [1, 20])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_fold_of_search_costs_is_the_orbit_minimum(self, N, batch):
        # What the search passes: the least unsigned type that holds N(N + 1), costs
        # 0..N per move and N + 1 for an impossible one. N = 2 folds a single stage.
        dtype = np.min_scalar_type(N * (N + 1))
        costs = np.random.default_rng(N * batch).integers(0, N + 2, size=(batch, N, 4)).astype(dtype)
        costs[0, N - 1, 0] = N + 1
        self._check_fold(N, costs)


class TestTransitionRows:
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.4])
    def test_rows_sum_to_one(self, table22, eps):
        params = ImitationParams.uniform(epsilon=max(eps, 0.0), d=1, N=2, p=0.35)
        chain = ImitationChain(table22, params)
        rng = np.random.default_rng(0)
        for _ in range(10):
            state = rng.integers(0, 16, size=2)
            row = chain.transition_row(state, eps)
            assert abs(row.sum() - 1.0) < 1e-12
            assert row.min() >= 0.0

    def test_unperturbed_homogeneous_is_absorbing(self, table22):
        params = ImitationParams.uniform(epsilon=0.01, d=2, N=3, p=0.3)
        chain = ImitationChain(table22, params)
        space = StateSpace(table22, 3)
        for lid in (0, 5, 9):
            state = (lid, lid, lid)
            row = chain.transition_row(state, 0.0)
            assert row[encode(space, state)] == 1.0

    def test_support_is_product_of_disks_and_argmax(self, table22):
        params = ImitationParams.uniform(epsilon=0.05, d=1, N=2, p=0.35)
        chain = ImitationChain(table22, params)
        state = np.array([3, 7])
        fit = table22.fitness_scaled_ids(state)
        argmax_langs = set(state[fit == fit.max()].tolist())
        disks = table22.disks(1)
        row = chain.transition_row(state, 0.05)
        space = StateSpace(table22, 2)
        for index in range(space.size):
            new = decode(space, index)
            reachable = all(
                new[i] == state[i]
                or new[i] in argmax_langs
                or new[i] in disks[state[i]]
                for i in range(2)
            )
            assert (row[index] > 0.0) == reachable

    def test_localized_rows_sum_to_one(self, table22):
        params = LocalParams.uniform(epsilon=0.1, N=3, p=0.5)
        chain = LocalizedChain(table22, params)
        rng = np.random.default_rng(1)
        for _ in range(5):
            state = rng.integers(0, 16, size=3)
            row = chain.transition_row(state, 0.1)
            assert abs(row.sum() - 1.0) < 1e-12

    def test_transition_prob_matches_row(self, table22):
        params = ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.4)
        chain = ImitationChain(table22, params)
        space = StateSpace(table22, 2)
        state = (2, 11)
        row = chain.transition_row(state, 0.1)
        for target in ((2, 11), (5, 5), (11, 2), (0, 15)):
            assert chain.transition_prob(state, target, 0.1) == pytest.approx(
                row[encode(space, target)], abs=1e-15
            )


class TestLocalizedHook:
    """The closed-form hook against the comparison-set enumeration it replaced."""

    @pytest.mark.parametrize("space", [StateSpace, MultisetSpace])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.1, 0.003])
    def test_equals_the_enumeration_bitwise_at_one_half(self, table22, space, eps):
        # the sweep-223 localized instance, whose aligned states tie to the last bit
        chain = LocalizedChain(table22, LocalParams.uniform(0.1, 3, 0.5))
        ids = space(table22, 3).all_ids()
        assert np.array_equal(chain.per_agent_dists(ids, eps),
                              reference_localized_dists(table22, np.full((3, 3), 0.5), ids, eps))

    @pytest.mark.parametrize("N,probs,space", [
        (3, np.full((3, 3), 0.3), StateSpace),
        (4, np.full((4, 4), 0.7), MultisetSpace),
        (3, np.array([[0.0, 1.0, 0.4], [0.25, 0.0, 1.0], [1.0, 0.6, 0.0]]), StateSpace),
    ], ids=["223-p0.3", "224-p0.7-multisets", "223-ones-zero-diagonal"])
    def test_equals_the_enumeration_to_roundoff(self, table22, N, probs, space):
        chain = LocalizedChain(table22, LocalParams(0.1, tuple(map(tuple, probs))))
        ids = space(table22, N).all_ids()
        for eps in (0.0, 0.5):
            dists = chain.per_agent_dists(ids, eps)
            expected = reference_localized_dists(table22, probs, ids, eps)
            assert np.abs(dists - expected).max() <= 1e-15
            assert np.array_equal(dists == 0.0, expected == 0.0)  # all the search reads


class TestMutationSupport:
    """One hook call and each dynamic's mutation support give the resistances of the two
    hook probes, at epsilon 0 and 1/2, bit for bit."""

    @staticmethod
    def uniform(table, dynamic, N):
        if dynamic == "imitation":
            return ImitationChain(table, ImitationParams.uniform(0.01, d=1, N=N, p=0.3))
        return LocalizedChain(table, LocalParams.uniform(0.01, N, 0.5))

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    @pytest.mark.parametrize("N,space", [(2, StateSpace), (3, StateSpace), (3, MultisetSpace),
                                         (4, MultisetSpace)],
                             ids=["222", "223", "223-multisets", "224-multisets"])
    def test_uniform_chains(self, table22, dynamic, N, space):
        chain = self.uniform(table22, dynamic, N)
        ids = space(table22, N).all_ids()
        res = chain._resistances(ids)
        assert res.dtype == np.float32
        assert np.array_equal(res, reference_resistances(chain, ids))
        # the imitation disk of radius 1 leaves some languages out of reach
        assert set(res.ravel().tolist()) == ({0, 1, np.inf} if dynamic == "imitation" else {0, 1})

    @pytest.mark.parametrize("chain", [
        lambda t: derived_layer_chains(t)[3],
        lambda t: ImitationChain(t, ImitationParams(0.01, d=1, revision_probs=tuple(
            np.random.default_rng(8).uniform(0.05, 0.95, size=3)))),
        lambda t: LocalizedChain(t, LocalParams(0.01, ((0.0, 1.0, 0.4), (0.25, 0.0, 1.0),
                                                       (1.0, 0.6, 0.0)))),
    ], ids=["localized-forced", "imitation-random-probs", "localized-ones"])
    def test_nonuniform_chains(self, table22, chain):
        chain = chain(table22)
        ids = chain.space.all_ids()
        assert np.array_equal(chain._resistances(ids), reference_resistances(chain, ids))

    @pytest.mark.parametrize("chain", [
        lambda: RaiseTheMinimumChain(), lambda: SwitchChain(True), lambda: SwitchChain(False),
        lambda: GraphChain([[1], [0, 2], [2], [0, 3]]),
    ], ids=["raise-the-minimum", "switch-flip", "switch-stay", "graph"])
    def test_hand_written_chains(self, chain):
        chain = chain()
        ids = StateSpace(chain.table, chain.n_agents).all_ids()
        assert np.array_equal(chain._resistances(ids), reference_resistances(chain, ids))

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_one_hook_call(self, table22, dynamic, monkeypatch):
        chain = self.uniform(table22, dynamic, 3)
        hook, calls = type(chain).per_agent_dists, []

        def counted(model, ids, eps):
            calls.append(eps)
            return hook(model, ids, eps)

        monkeypatch.setattr(type(chain), "per_agent_dists", counted)
        chain._resistances(chain.space.all_ids())
        assert calls == [0.0]


class TestMonteCarloCrossCheck:
    def _compare(self, chain, step, params, state, eps, seed, trials=60000):
        table = chain.table
        space = StateSpace(table, len(state))
        row = chain.transition_row(state, eps)
        draws = _Replay(np.random.default_rng(seed))
        counts = np.zeros(space.size)
        ids = list(state)
        _, lf = _score(ids, lambda a: table.payoff[a].tolist())
        for _ in range(trials):
            counts[encode(space, step(ids, lf, table, params, draws))] += 1
        assert counts[row == 0.0].sum() == 0  # nothing impossible ever sampled
        # three standard errors in count space, plus a small slack that
        # absorbs Poisson discreteness on the near-zero-probability entries
        expected = row * trials
        bound = 3.0 * np.sqrt(expected * (1.0 - row)) + 4.0
        assert (np.abs(counts - expected) <= bound).all()

    def test_imitation(self, table22):
        params = ImitationParams.uniform(epsilon=0.1, d=1, N=2, p=0.4)
        chain = ImitationChain(table22, params)
        self._compare(chain, _step_imitation_ids, params, (3, 9), 0.1, seed=2024)

    def test_localized(self, table22):
        params = LocalParams.uniform(epsilon=0.15, N=2, p=0.6)
        chain = LocalizedChain(table22, params)
        self._compare(chain, _step_localized_ids, params, (3, 9), 0.15, seed=2024)

    # (0, 1, 2): three languages tie at the top; (0, 1, 4): two languages tie above a third
    @pytest.mark.parametrize("state", [(0, 1, 2), (0, 1, 4)])
    def test_localized_three_agents_nonuniform(self, table22, state):
        params = LocalParams(0.15, ((0.0, 0.3, 0.8), (0.6, 1.0, 1.0), (0.45, 0.9, 0.0)))
        chain = LocalizedChain(table22, params)
        fit = table22.fitness_scaled_ids(np.array(state))
        assert (fit == fit.max()).sum() >= 2
        self._compare(chain, _step_localized_ids, params, state, 0.15, seed=77)


class TestRecurrentClasses:
    @pytest.mark.parametrize("N,d", [(2, 1), (2, 2), (3, 2)])
    def test_imitation_classes_are_homogeneous_singletons(self, table22, N, d):
        params = ImitationParams.uniform(epsilon=0.01, d=d, N=N, p=0.3)
        chain = ImitationChain(table22, params)
        space = StateSpace(table22, N)
        classes = chain.recurrent_classes()
        assert len(classes) == language_count(2, 2)
        for cls in classes:
            assert len(cls) == 1
            decoded = decode(space, cls[0])
            assert len(set(decoded)) == 1

    def test_localized_classes(self, table22):
        params = LocalParams.uniform(epsilon=0.01, N=3, p=0.5)
        chain = LocalizedChain(table22, params)
        classes = chain.recurrent_classes()
        assert len(classes) == 16
        assert all(len(cls) == 1 for cls in classes)

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_tiny_probabilities_keep_their_moves(self, table22, dynamic):
        # 5e-324 times a copying share underflows to 0.0, which must not make a move impossible
        chain = (ImitationChain(table22, ImitationParams.uniform(0.01, 2, 3, 5e-324))
                 if dynamic == "imitation" else
                 LocalizedChain(table22, LocalParams.uniform(0.01, 2, 5e-324)))
        assert len(chain.recurrent_classes()) == 16
        assert chain.least_resistance().lang_ids == list(range(16))


_REVISION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_NEIGHBOUR = st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0)


@st.composite
def public_chains(draw):
    """A valid chain of either dynamic at (2,2,2), (2,2,3) or (2,3,2): probabilities
    uniform or per agent (imitation), uniform or per pair (localized), where a
    neighbour probability is often exactly 1."""
    m, n, N = draw(st.sampled_from([(2, 2, 2), (2, 2, 3), (2, 3, 2)]))
    table, per_agent = get_table(m, n), draw(st.booleans())
    if draw(st.booleans()):
        probs = (draw(st.tuples(*[_REVISION] * N)) if per_agent else (draw(_REVISION),) * N)
        return ImitationChain(table, ImitationParams(0.01, draw(st.integers(1, 3)), probs))
    if per_agent:
        probs = tuple(draw(st.tuples(*[_NEIGHBOUR] * N)) for _ in range(N))
    else:
        probs = ((draw(_NEIGHBOUR),) * N,) * N
    return LocalizedChain(table, LocalParams(0.01, probs))


def alike_in_the_probe(chain) -> bool:
    """Whether the probe, every probability below 1 set to 1/2, treats all agents alike:
    not for a localized chain with some off-diagonal p_ij = 1 and some below 1."""
    if chain.dynamic == "imitation":
        return True
    ones = np.array(chain.params.neighbor_probs)[~np.eye(chain.n_agents, dtype=bool)] == 1.0
    return ones.all() or not ones.any()


def assert_search_refused(chain):
    for search in (chain.recurrent_classes, chain.least_resistance):
        with pytest.raises(ValueError, match="agents alike"):
            search()


@given(chain=public_chains())
@settings(max_examples=30, deadline=None)
def test_public_chains_rest_only_in_homogeneous_states(chain):
    """The classes of either dynamic are exactly the K homogeneous states, so each has
    its language id; the search refuses a chain whose probe does not treat agents alike."""
    if not alike_in_the_probe(chain):
        return assert_search_refused(chain)
    K, N = chain.table.size, chain.n_agents
    homogeneous = sum(K**i for i in range(N))
    assert chain.recurrent_classes() == [[lid * homogeneous] for lid in range(K)]
    assert chain.least_resistance().lang_ids == list(range(K))


class TestStepResistance:
    def test_self_loop_is_free(self, imitation223):
        assert imitation223.step_resistance((4, 4, 4), (4, 4, 4)) == 0

    def test_single_mutation_inside_disk(self, table22):
        params = ImitationParams.uniform(epsilon=0.01, d=1, N=3, p=0.3)
        chain = ImitationChain(table22, params)
        lid = 0
        near = int(table22.disks(1)[lid][1])
        far = int(np.setdiff1d(np.arange(16), table22.disks(1)[lid])[0])  # Hamming q above 4
        assert chain.step_resistance((lid,) * 3, (lid, lid, near)) == 1
        assert chain.step_resistance((lid,) * 3, (lid, lid, far)) == float("inf")

    def test_costs_add_over_agents(self, table22):
        params = ImitationParams.uniform(epsilon=0.01, d=2, N=3, p=0.3)
        chain = ImitationChain(table22, params)
        assert chain.step_resistance((0, 0, 0), (0, 3, 3)) == 2
        assert chain.step_resistance((0, 0, 0), (3, 3, 3)) == 3

    def test_copying_the_argmax_is_free(self, table22):
        params = ImitationParams.uniform(epsilon=0.01, d=2, N=3, p=0.3)
        chain = ImitationChain(table22, params)
        crossed = Language(2, 2, (0, 1), (1, 0)).id
        aligned = Language(2, 2, (0, 1), (0, 1)).id
        state = (aligned, aligned, crossed)
        assert chain.step_resistance(state, (aligned,) * 3) == 0

    def test_epsilon_exponent_matches_numerics(self, imitation223):
        # fitted log-log slope over a small epsilon sweep approximates the
        # integer exponent for one-step transitions
        sweeps = np.array([1e-1, 1e-2, 1e-3])
        cases = [((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 3)), ((0, 0, 0), (3, 3, 0))]
        for src, dst in cases:
            r = imitation223.step_resistance(src, dst)
            probs = [imitation223.transition_prob(src, dst, e) for e in sweeps]
            slope = np.polyfit(np.log(sweeps), np.log(probs), 1)[0]
            assert abs(slope - r) <= 0.1 * max(r, 1.0)


def derived_layer_chains(table):
    """Both dynamics at N=2, with uniform and with non-uniform parameters."""
    return [
        ImitationChain(table, ImitationParams.uniform(epsilon=0.05, d=2, N=2, p=0.3)),
        ImitationChain(table, ImitationParams(epsilon=0.05, d=1, revision_probs=(0.2, 0.7))),
        LocalizedChain(table, LocalParams.uniform(epsilon=0.05, N=2, p=0.5)),
        LocalizedChain(table, LocalParams(epsilon=0.05, neighbor_probs=((0.5, 1.0), (0.35, 0.5)))),
    ]


class TestDerivedLayer:
    """The dense kernel, resistance matrix and classes against the single-pair
    operations they are derived from, entry by entry."""

    @pytest.fixture(params=range(4), ids=["imitation", "imitation-nonuniform",
                                          "localized", "localized-forced"])
    def chain(self, request, table22):
        return derived_layer_chains(table22)[request.param]

    def _pairs(self, space):
        rng = np.random.default_rng(33)
        sampled = rng.integers(0, space.size, size=(2000, 2))
        homogeneous = encode(space, (7, 7))
        row = np.stack([np.full(space.size, homogeneous), np.arange(space.size)], axis=1)
        return np.vstack([sampled, row])

    def test_kernel_matches_transition_prob(self, chain, table22):
        space = StateSpace(table22, 2)
        kernel = chain.kernel(0.05)
        for v, w in self._pairs(space):
            expected = chain.transition_prob(decode(space, v), decode(space, w), 0.05)
            assert abs(kernel[v, w] - expected) <= 1e-15 * expected

    def test_resistance_matrix_matches_step_resistance(self, chain, table22):
        space = StateSpace(table22, 2)
        R = chain.resistance_matrix()
        for v, w in self._pairs(space):
            assert R[v, w] == chain.step_resistance(decode(space, v), decode(space, w))

    def test_classes_are_closed_communicating_sets(self, chain):
        if not alike_in_the_probe(chain):  # localized-forced: p_01 = 1, p_10 = 0.35
            return assert_search_refused(chain)
        free = chain.resistance_matrix() == 0
        for cls in chain.recurrent_classes():
            inside = np.zeros(free.shape[0], dtype=bool)
            inside[cls] = True
            assert not free[np.ix_(inside, ~inside)].any()
            n_comps, _ = connected_components(free[np.ix_(inside, inside)], connection="strong")
            assert n_comps == 1


def min_plus_least_resistance(chain):
    """Reference classes and least resistances from the dense labelled resistance
    matrix alone."""
    return min_plus_classes(chain.resistance_matrix())


def min_plus_classes(R):
    """Classes and least resistances of a dense resistance matrix. The classes are
    the closed strongly connected components of its zero entries. The resistances
    come from min-plus relaxation to a fixed point, dist <- min(dist, min_w R[:, w]
    + dist[w]), for all classes at once: a pair gets c + t when it has a move of
    resistance exactly c to a state at distance <= t, which one boolean matrix
    product per (c, t) finds."""
    graph = csr_matrix(R == 0)
    n_comps, labels = connected_components(graph, directed=True, connection="strong")
    srcs, dsts = graph.nonzero()
    open_comps = set(labels[srcs[labels[srcs] != labels[dsts]]].tolist())
    classes = sorted((np.flatnonzero(labels == c).tolist() for c in range(n_comps)
                      if c not in open_comps), key=min)
    dist = np.full((R.shape[0], len(classes)), np.inf)
    for j, cls in enumerate(classes):
        dist[cls, j] = 0.0
    moves = [((R == c).astype(np.float32), c) for c in np.unique(R[np.isfinite(R)])]
    while True:
        relaxed = dist.copy()
        for t in np.unique(dist[np.isfinite(dist)]):
            within = (dist <= t).astype(np.float32)
            for move, c in moves:
                relaxed = np.where(move @ within > 0, np.minimum(relaxed, c + t), relaxed)
        if np.array_equal(relaxed, dist):
            return classes, np.array([dist[cls].min(axis=0) for cls in classes])
        dist = relaxed


def assert_matches_oracle(chain):
    classes, r = min_plus_least_resistance(chain)
    rg = chain.least_resistance()
    assert chain.recurrent_classes() == rg.classes == classes
    assert np.array_equal(rg.r, r)


class RaiseTheMinimumChain(_ChainModel):
    """K=4 languages, N=3 agents. Every agent copies the smallest language
    present; with probability eps it instead moves one language up, and
    language 3 never mutates. An agent above the minimum cannot keep its
    language, so most one-step moves are impossible, and raising a
    homogeneous state by one language takes 3 simultaneous mutations."""

    _mutants = np.eye(4, k=1, dtype=bool)  # l -> l + 1 below language 3

    def __init__(self):
        super().__init__(SimpleNamespace(size=4), 3)

    def per_agent_dists(self, ids, eps):
        rows, agents = np.indices(ids.shape)
        copy = np.zeros(ids.shape + (4,))
        copy[rows, agents, ids.min(axis=1, keepdims=True)] = 1.0
        mutate = np.zeros(ids.shape + (4,))
        mutate[rows, agents, np.minimum(ids + 1, 3)] = 1.0
        top = (ids == 3)[..., None]
        return np.where(top, copy, (1.0 - eps) * copy + eps * mutate)


class SwitchChain(_ChainModel):
    """K=2 languages, N=3 agents.

    With ``flip`` every agent flips its language unless a mutation (probability
    eps) keeps it, so {0,0,0} and {1,1,1} form one multiset class of two
    homogeneous states. Without it every agent keeps its language unless a
    mutation flips it, so every multiset is a class, {0,0,1} among them.
    Either way some class is not one homogeneous state.
    """

    def __init__(self, flip: bool):
        super().__init__(SimpleNamespace(size=2), 3)
        self.flip = flip
        self._mutants = np.eye(2, dtype=bool) if flip else ~np.eye(2, dtype=bool)

    def per_agent_dists(self, ids, eps):
        keep = np.eye(2)[ids]
        free, mutate = (1.0 - keep, keep) if self.flip else (keep, 1.0 - keep)
        return (1.0 - eps) * free + eps * mutate


class GraphChain(_ChainModel):
    """One agent whose free moves are the edges of a given graph: it moves to a
    uniform successor, or with probability eps to a uniform state."""

    def __init__(self, successors):
        super().__init__(SimpleNamespace(size=len(successors)), 1)
        self.free = np.zeros((len(successors),) * 2)
        for v, succ in enumerate(successors):
            self.free[v, succ] = 1.0
        self.free /= self.free.sum(axis=1, keepdims=True)
        self._mutants = np.ones(self.free.shape, dtype=bool)

    def per_agent_dists(self, ids, eps):
        return ((1.0 - eps) * self.free[ids[:, 0]] + eps / len(self.free))[:, None, :]


def scipy_closed_classes(successors):
    """Closed strongly connected components from scipy's csgraph, each sorted, by least state."""
    n = len(successors)
    rows = [v for v, succ in enumerate(successors) for _ in succ]
    cols = [w for succ in successors for w in succ]
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_comps, labels = connected_components(graph, directed=True, connection="strong")
    leaving = {labels[v] for v, w in zip(rows, cols) if labels[v] != labels[w]}
    return sorted(np.flatnonzero(labels == c).tolist() for c in range(n_comps) if c not in leaving)


# Directed graphs on 1-12 states in which every state has an out-edge (repeats allowed).
_GRAPHS = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=1, max_size=n), min_size=n, max_size=n))


@given(successors=_GRAPHS)
@settings(max_examples=200, deadline=None)
def test_closed_classes_match_scipy(successors):
    chain = GraphChain(successors)
    assert chain.recurrent_classes() == scipy_closed_classes(successors)
    assert_matches_oracle(chain)


class TestLeastResistance:
    """The search on either space against the labelled oracle, classes included."""

    @pytest.mark.parametrize("index", range(4), ids=["imitation", "imitation-nonuniform",
                                                     "localized", "localized-forced"])
    def test_matches_min_plus_small(self, table22, index):
        chain = derived_layer_chains(table22)[index]
        if not alike_in_the_probe(chain):  # localized-forced: p_01 = 1, p_10 = 0.35
            return assert_search_refused(chain)
        assert_matches_oracle(chain)

    def test_matches_min_plus_imitation223(self, imitation223):
        assert_matches_oracle(imitation223)

    def test_matches_min_plus_localized223(self, table22):
        assert_matches_oracle(LocalizedChain(table22, LocalParams.uniform(epsilon=0.01, N=3, p=0.5)))

    def test_matches_min_plus_imitation232(self):
        assert_matches_oracle(imitation_chain(2, 3, 2))

    def test_matches_min_plus_localized232(self):
        assert_matches_oracle(LocalizedChain(get_table(2, 3), LocalParams.uniform(0.01, 2, 0.5)))

    @pytest.mark.parametrize("m,n,N", [(2, 2, 3), (2, 3, 2)])
    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_matches_min_plus_heterogeneous(self, dynamic, m, n, N):
        # Random per-agent revision probabilities, or p_ij in (0, 1): the multisets of the
        # probe against the labelled oracle, which has no agents to lump.
        table, imitation = get_table(m, n), dynamic == "imitation"
        probs = np.random.default_rng(m * 100 + n * 10 + N).uniform(0.05, 0.95,
                                                                    N if imitation else (N, N))
        chain = (ImitationChain(table, ImitationParams(0.01, 2, tuple(probs))) if imitation
                 else LocalizedChain(table, LocalParams(0.01, tuple(map(tuple, probs)))))
        assert_matches_oracle(chain)
        assert isinstance(chain._search[0], MultisetSpace)

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_uniform_chains_search_multisets(self, table22, monkeypatch, dynamic):
        def refuse(space):
            raise AssertionError("labelled states enumerated")

        monkeypatch.setattr(StateSpace, "all_ids", refuse)
        chain = (imitation_chain(2, 2, 3) if dynamic == "imitation" else
                 LocalizedChain(table22, LocalParams.uniform(epsilon=0.01, N=3, p=0.5)))
        assert chain.recurrent_classes() == [[lid * (1 + 16 + 256)] for lid in range(16)]
        assert chain.least_resistance().lang_ids == list(range(16))

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_row_blocked_search(self, table22, monkeypatch, dynamic):
        # Blocks of 100 of the 816 multisets at (2,2,3), which by default fit one block:
        # every level folds each block of open rows again, and the last block of each
        # level is ragged.
        def make():
            return (imitation_chain(2, 2, 3) if dynamic == "imitation" else
                    LocalizedChain(table22, LocalParams.uniform(epsilon=0.01, N=3, p=0.5)))

        single = make().least_resistance()
        batches, expand = [], MultisetSpace.expand
        monkeypatch.setattr(MultisetSpace, "expand",
                            lambda space, costs: batches.append(len(costs)) or expand(space, costs))
        monkeypatch.setattr(chain_module, "_BLOCK_ENTRIES", 100 * 816 + 7)
        chain = make()
        rg = chain.least_resistance()
        assert max(batches) == 100 and any(b % 100 for b in batches)
        assert rg.classes == single.classes
        assert np.array_equal(rg.r, single.r)
        assert_matches_oracle(chain)

    def test_gaps_above_n_and_impossible_moves(self):
        # Levels 1 and 2 add no state, class 0 is 9 levels from class 3, and
        # no class can move down: the search on multisets must cross idle levels,
        # carry distances above N and stop with infinite entries.
        chain = RaiseTheMinimumChain()
        rg = chain.least_resistance()
        assert rg.classes == [[0], [21], [42], [63]]
        assert np.array_equal(rg.r, self.raise_the_minimum_resistances())
        assert_matches_oracle(chain)

    def test_gaps_above_n_on_multisets(self, monkeypatch):
        # The same chain is searched on its 20 multisets without enumerating
        # its 64 labelled states.
        def refuse(space):
            raise AssertionError("labelled states enumerated")

        monkeypatch.setattr(StateSpace, "all_ids", refuse)
        chain = RaiseTheMinimumChain()
        rg = chain.least_resistance()
        assert isinstance(chain._search[0], MultisetSpace)
        assert rg.classes == [[0], [21], [42], [63]]
        assert np.array_equal(rg.r, self.raise_the_minimum_resistances())

    @staticmethod
    def raise_the_minimum_resistances():
        expected = np.full((4, 4), np.inf)
        for i in range(4):
            expected[i, i:] = 3 * np.arange(4 - i)
        return expected

    @pytest.mark.parametrize("flip,classes", [
        (True, [[0, 7], [1, 3]]),
        (False, [[0], [1], [3], [7]]),
    ], ids=["flip", "stay"])
    def test_multiset_class_without_labelled_image(self, flip, classes):
        # Such a class is searched on multisets all the same, and listed by the labelled
        # indices of its sorted representatives; its resistances are those of the lumped
        # chain: the labelled resistances from each representative, least over each orbit.
        chain = SwitchChain(flip)
        space = MultisetSpace(chain.table, chain.n_agents)
        codes = _codes(space.all_ids(), 2)
        R = chain.resistance_matrix()[codes]
        orbit = _codes(np.sort(StateSpace(chain.table, chain.n_agents).all_ids()), 2)
        lumped = np.stack([R[:, orbit == code].min(axis=1) for code in codes], axis=1)
        expected, r = min_plus_classes(lumped)
        rg = chain.least_resistance()
        assert [codes[cls].tolist() for cls in expected] == classes
        assert chain.recurrent_classes() == rg.classes == classes
        assert np.array_equal(rg.r, r)
        assert rg.lang_ids is None
        assert isinstance(chain._search[0], MultisetSpace)

    def test_nonuniform_chain_labels_labelled_classes(self, table22, resistance223):
        # Agents with different revision probabilities are searched on multisets of the
        # probe, where every revision probability is 1/2, so the classes, listed by their
        # labelled indices, and the resistances are those of the uniform chain.
        params = ImitationParams(epsilon=0.01, d=2, revision_probs=(0.3, 0.4, 0.5))
        chain = ImitationChain(table22, params)
        rg = chain.least_resistance()
        assert isinstance(chain._search[0], MultisetSpace)
        assert rg.classes == resistance223.classes
        assert rg.lang_ids == list(range(16))
        assert np.array_equal(rg.r, resistance223.r)

    def test_diagonal_zero(self, resistance223):
        assert np.all(np.diagonal(resistance223.r) == 0)

    def test_classes_are_languages(self, resistance223):
        assert resistance223.lang_ids == list(range(16))

    def test_exit_and_entry_resistances(self, table22, resistance223):
        from reference import trace_raising_neighbor

        r = resistance223.r
        selftrace = np.diagonal(table22.payoff) // 2
        aligned_mask = np.isin(np.arange(16), table22.aligned_ids)
        for lid in range(16):
            if aligned_mask[lid]:
                # leaving an aligned state toward lower trace costs >= 2
                for other in range(16):
                    if other != lid and selftrace[other] < selftrace[lid]:
                        assert r[lid, other] >= 2
            else:
                nb = trace_raising_neighbor(Language.from_id(2, 2, lid))
                assert r[lid, nb.id] == 1

    def test_all_finite_with_radius_one(self, table22):
        params = ImitationParams.uniform(epsilon=0.01, d=1, N=2, p=0.3)
        chain = ImitationChain(table22, params)
        rg = chain.least_resistance()
        assert np.isfinite(rg.r).all()

    def test_unaligned_roots_cost_more(self, table22, resistance223):
        # rewiring argument made concrete: every unaligned root has a
        # strictly larger stochastic potential than the minimum
        gamma = stochastic_potential(resistance223)
        lang_ids = resistance223.lang_ids
        floor, aligned_mask = gamma.min(), np.isin(np.arange(16), table22.aligned_ids)
        for k, lid in enumerate(lang_ids):
            if not aligned_mask[lid]:
                assert gamma[k] > floor

    def test_minimizers_carry_the_stationary_mass(self, table22, imitation223,
                                                  resistance223):
        # the arborescence minimizers are exactly the states whose mass
        # dominates the exact stationary distribution at small epsilon
        gamma = stochastic_potential(resistance223)
        stable_states = [
            resistance223.classes[k][0] for k in np.flatnonzero(gamma == gamma.min())
        ]
        mu = stationary(imitation223.kernel(0.01))
        assert mu[stable_states].sum() > 0.8
        assert sorted(np.argsort(mu)[-len(stable_states):].tolist()) == sorted(stable_states)


class TestKernelMemoryCheck:
    def test_refuses_a_kernel_above_physical_memory(self, table22, monkeypatch):
        chain = ImitationChain(table22, ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.3))
        # The kernel, and a 16-row group product beside the top block's 160 x 96 panel.
        need = (256**2 + 16 * 256 + 160 * 96) * 8
        monkeypatch.setattr(chain_module, "_physical_memory", lambda: need - 1)
        with pytest.raises(CapExceededError, match="physical memory"):
            chain.kernel(0.1)
        monkeypatch.setattr(chain_module, "_physical_memory", lambda: need)
        assert chain.kernel(0.1).shape == (256, 256)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_rows_filled_in_blocks_equal_one_outer_product(self, table22, dynamic, N):
        params = (ImitationParams.uniform(epsilon=0.1, d=2, N=N, p=0.3) if dynamic == "imitation"
                  else LocalParams.uniform(epsilon=0.1, N=N, p=0.5))
        model = make_chain(table22, params)
        whole = _outer(model.per_agent_dists(model.space.all_ids(), 0.1), np.multiply)
        assert np.array_equal(model.kernel(0.1), whole)

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_kernel_peak_is_the_kernel_and_a_few_mib(self, table22, dynamic):
        # The last agent's factors multiply straight into each 160-row block; filling the
        # block through a whole-width temporary and copying it in peaked 5 MiB above this.
        params = (ImitationParams.uniform(epsilon=0.1, d=2, N=3, p=0.3) if dynamic == "imitation"
                  else LocalParams.uniform(epsilon=0.1, N=3, p=0.5))
        model = make_chain(table22, params)
        model.space  # built before tracing starts, as every sweep row shares it
        tracemalloc.start()
        try:
            model.kernel(0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4096**2 * 8 + 3 * 2**20


def reference_gth_stationary(kernel: np.ndarray, block: int = 160) -> np.ndarray:
    """The blocked GTH solver as it stood before its panel fold and chunked product:
    strided rank-1 updates of the coupling columns and one whole product per block."""
    A = np.array(kernel, dtype=np.float64)
    n = A.shape[0]
    hi = n
    while hi > 1:
        lo = max(1, hi - block)
        b = hi - lo
        U = np.empty((lo, b))
        V = np.empty((b, lo))
        for t in range(b - 1, -1, -1):
            e = lo + t
            s = A[e, :e].sum()
            if not s > 0.0:
                raise ConvergenceError(
                    "kernel is reducible (an eliminated state cannot reach lower states)"
                )
            A[:e, e] /= s
            if t > 0:
                A[lo:e, :e] += A[lo:e, e, None] * A[e, None, :e]
                A[:lo, lo:e] += A[:lo, e, None] * A[e, None, lo:e]
            U[:, t] = A[:lo, e]
            V[t] = A[e, :lo]
        A[:lo, :lo] += U @ V
        hi = lo
    mu = np.empty(n)
    mu[0] = 1.0
    for j in range(1, n):
        mu[j] = mu[:j] @ A[:j, j]
    return mu / mu.sum()


def random_kernel(n: int, seed: int) -> np.ndarray:
    kernel = np.random.default_rng(seed).random((n, n)) ** 3
    kernel /= kernel.sum(axis=1, keepdims=True)
    return kernel


class TestStationary:
    # 700 states: a partial last block, one block and a block larger than n. 2048 states:
    # the first blocks update their leading quadrant in row chunks. 2052 states: no lo is
    # a multiple of 8, so every block keeps one whole product; row chunks would change
    # the last bits of about half the masses here. Groups of 1 and 5 rows leave ragged
    # groups, and a group of 200 is wider than a 160-row block.
    @pytest.mark.parametrize("n,block,group", [
        pytest.param(n, block, group, id=f"{n}-{block}" + (f"-group{group}" if group != 16 else ""))
        for n, block, group in [
            (700, 1, 16), (700, 7, 16), (700, 160, 16), (700, 700, 16), (700, 1000, 16),
            (2048, 160, 16), (2052, 160, 16), (700, 160, 1), (700, 7, 5), (700, 160, 5),
            (2048, 160, 5), (2052, 160, 5), (700, 160, 200), (700, 1000, 200)]])
    def test_matches_reference_bitwise(self, n, block, group, monkeypatch):
        monkeypatch.setattr(chain_module, "_GTH_BLOCK", block)
        monkeypatch.setattr(chain_module, "_GTH_GROUP", group)
        kernel = random_kernel(n, n)
        assert np.array_equal(_gth_stationary(kernel.copy()),
                              reference_gth_stationary(kernel, block))

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_matches_reference_bitwise_222(self, table22, dynamic):
        params = (ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.3) if dynamic == "imitation"
                  else LocalParams.uniform(epsilon=0.1, N=2, p=0.5))
        kernel = make_chain(table22, params).kernel(0.1)
        assert np.array_equal(_gth_stationary(kernel.copy()), reference_gth_stationary(kernel))

    def test_matches_reference_bitwise_223_tied_row(self, imitation223):
        # The sweep row whose top state breaks an exact tie between 1365 and 2730 by roundoff.
        kernel = imitation223.kernel(0.003)
        mu = _gth_stationary(kernel.copy())
        assert np.array_equal(mu, reference_gth_stationary(kernel))
        assert mu.argmax() == 2730

    def test_reducible_kernel_is_refused(self):
        # Two closed blocks of 200 states: eliminating the upper one from the top
        # reaches state 200, which has no way down, in the solver's second block.
        kernel = np.zeros((400, 400))
        for lo in (0, 200):
            kernel[lo:lo + 200, lo:lo + 200] = random_kernel(200, lo)
        with pytest.raises(ConvergenceError, match="kernel is reducible"):
            stationary(kernel)

    def test_peak_memory_stays_below_one_and_a_half_copies(self):
        # One working copy plus panels and a product chunk; a whole lo x lo product
        # beside the copy would take it to about 2.
        n = 2400
        kernel = random_kernel(n, 3)
        tracemalloc.start()
        try:
            stationary(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8

    def test_peak_memory_is_the_counted_scratch(self):
        # The kernel memory check counts _gth_scratch doubles beside the kernel; the
        # solver's other arrays (pivot sums, the vector) are a few rows, and numpy's ufunc
        # iterator holds one buffer per operand (three) while it folds a strided 2-D slice.
        n = 2048
        kernel = random_kernel(n, 4)
        tracemalloc.start()
        try:
            _gth_stationary(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * chain_module._gth_scratch(n) + 64 * 1024 + 3 * 8 * np.getbufsize()

    def test_leaves_its_argument_unchanged(self):
        kernel = random_kernel(700, 5)
        before = kernel.copy()
        stationary(kernel)
        assert kernel.tobytes() == before.tobytes()

    def test_two_state_symmetric(self):
        kernel = np.array([[0.8, 0.2], [0.2, 0.8]])
        assert stationary(kernel).tolist() == [0.5, 0.5]

    def test_doubly_stochastic_uniform(self):
        kernel = np.array([[0.5, 0.2, 0.3], [0.3, 0.5, 0.2], [0.2, 0.3, 0.5]])
        assert np.allclose(stationary(kernel), 1 / 3, atol=1e-14)

    def test_methods_agree(self):
        rng = np.random.default_rng(9)
        kernel = rng.random((40, 40)) + 0.05
        kernel /= kernel.sum(axis=1, keepdims=True)
        gth = stationary(kernel)
        # independent dense solve of mu (K - I) = 0 with sum(mu) = 1
        system = np.vstack([(kernel - np.eye(40)).T, np.ones(40)])
        rhs = np.zeros(41)
        rhs[-1] = 1.0
        dense = np.linalg.lstsq(system, rhs, rcond=None)[0]
        assert np.abs(gth - dense).sum() < 1e-12

    def test_residual_and_normalization(self, imitation223):
        kernel = imitation223.kernel(0.05)
        mu = stationary(kernel)
        assert abs(mu.sum() - 1.0) < 1e-12
        assert np.abs(mu @ kernel - mu).sum() < 1e-12
        assert mu.min() > 0.0


class TestStochasticPotential:
    def test_two_node_example(self):
        rg = ResistanceGraph(classes=[[0], [1]], r=np.array([[0.0, 1.0], [2.0, 0.0]]))
        gamma = stochastic_potential(rg)
        assert gamma.tolist() == [2.0, 1.0]
        assert np.flatnonzero(gamma == gamma.min()).tolist() == [1]

    def test_three_node_cycle(self):
        r = np.zeros((3, 3))
        r[0, 1] = r[1, 2] = r[2, 0] = 1.0
        r[1, 0] = r[2, 1] = r[0, 2] = 2.0
        rg = ResistanceGraph(classes=[[0], [1], [2]], r=r)
        gamma = stochastic_potential(rg)
        assert gamma.tolist() == [2.0, 2.0, 2.0]
        assert np.flatnonzero(gamma == gamma.min()).tolist() == [0, 1, 2]

    def test_non_integer_resistance_rejected(self):
        with pytest.raises(ValueError):
            ResistanceGraph(classes=[[0], [1]], r=np.array([[0.0, 0.5], [1.0, 0.0]]))


class TestPermutationSymmetry:
    def test_resistance_invariant_under_object_permutation(self, table22, imitation223):
        id_map = permutation_id_map(table22, (1, 0))
        rng = np.random.default_rng(21)
        for _ in range(40):
            src = tuple(rng.integers(0, 16, 3).tolist())
            dst = tuple(rng.integers(0, 16, 3).tolist())
            mapped_src = tuple(int(id_map[l]) for l in src)
            mapped_dst = tuple(int(id_map[l]) for l in dst)
            assert imitation223.step_resistance(src, dst) == imitation223.step_resistance(
                mapped_src, mapped_dst
            )

    def test_stationary_invariant_under_object_permutation(self, table22):
        params = ImitationParams.uniform(epsilon=0.05, d=2, N=2, p=0.3)
        chain = ImitationChain(table22, params)
        space = StateSpace(table22, 2)
        mu = stationary(chain.kernel(0.05))
        id_map = permutation_id_map(table22, (1, 0))
        for index in range(space.size):
            mapped = encode(space, [int(id_map[l]) for l in decode(space, index)])
            assert abs(mu[index] - mu[mapped]) < 1e-12


class TestVerify:
    def test_degenerate_two_agents(self):
        report = verify_stability(imitation_chain(2, 2, 2))
        assert report.verdict == "degenerate"
        assert any("N=2" in note for note in report.notes)
        assert report.state_count == 256
        assert report.optimal_set == [5, 10]

    def test_localized_small_instance(self):
        # the diagonal is ignored, so it need not equal the shared probability
        probs = tuple(tuple(1.0 if i == j else 0.5 for j in range(3)) for i in range(3))
        report = verify_stability(LocalizedChain(get_table(2, 2), LocalParams(0.01, probs)))
        assert report.params["neighbor_prob"] == 0.5
        assert report.verdict == "pass"
        assert report.stable_set == [5, 10]

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_four_agents(self, dynamic):
        chain = (imitation_chain(2, 2, 4) if dynamic == "imitation" else
                 LocalizedChain(get_table(2, 2), LocalParams.uniform(0.01, 4, 0.5)))
        report = verify_stability(chain)
        assert report.verdict == "pass"
        assert report.stable_set == [5, 10]
        assert report.state_count == 65_536

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            verify_stability(imitation_chain(3, 3, 2))

    def test_asymmetric_shape_end_to_end(self):
        # smallest shape with more symbols than objects; runs the whole
        # pipeline on 5184 states and flags both caveats
        report = verify_stability(imitation_chain(2, 3, 2))
        assert report.verdict == "degenerate"
        assert report.state_count == 72**2
        assert len(report.classes) == 72
        assert len(report.optimal_set) == 12
        assert any("m != n" in note for note in report.notes)
        assert any("N=2" in note for note in report.notes)

    def test_report_json_fields(self):
        report = verify_stability(imitation_chain(2, 2, 2))
        import json

        payload = json.loads(report.to_json())
        for key in ("params", "classes", "resistances", "gamma", "stable_set",
                    "optimal_set", "epsilon_sweep", "verdict"):
            assert key in payload

    def test_sweep_rejects_zero_epsilon(self, imitation223):
        with pytest.raises(ValueError):
            sweep_stationary(imitation223, [0.0])

    def test_sweep_row_peak_memory_stays_below_1_1_kernels(self, imitation223):
        # The kernel is filled through one 5 MiB row block and GTH eliminates it in place
        # beside one 5 MiB scratch buffer, about 1.05 kernels at the peak; a working copy
        # of the kernel would take the peak to about 2 kernels.
        imitation223.space  # built before tracing starts, as every sweep row shares it
        tracemalloc.start()
        try:
            sweep_stationary(imitation223, [0.1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 4096**2 * 8

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_sweep_row_matches_stationary_bitwise(self, table22, dynamic):
        params = (ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.3) if dynamic == "imitation"
                  else LocalParams.uniform(epsilon=0.1, N=2, p=0.5))
        model = make_chain(table22, params)
        mu = stationary(model.kernel(0.1))
        (row,) = sweep_stationary(model, [0.1])
        assert row["optimal_masses"] == mu[optimal_state_indices(model.space)].tolist()
        assert row["top_state_mass"] == mu.max()

    @pytest.mark.parametrize("params", [
        ImitationParams.uniform(epsilon=0.1, d=2, N=3, p=0.3),
        LocalParams.uniform(epsilon=0.1, N=3, p=0.5),
        ImitationParams(0.1, 2, (0.2, 0.7)),
    ], ids=["imitation-223", "localized-223", "imitation-222-two-probabilities"])
    def test_sweep_residual_image_is_mu_times_the_kernel(self, table22, monkeypatch, params):
        # The solver overwrites the kernel, so the residual contracts mu with the per-agent
        # factors; at N=2 a single agent is folded before the matmul.
        model = make_chain(table22, params)
        mu = np.random.default_rng(5).dirichlet(np.ones(model.space.size))
        seen = []
        monkeypatch.setattr(chain_module, "_gth_stationary", lambda kernel: mu.copy())
        monkeypatch.setattr(chain_module, "_checked", lambda *args: seen.append(args) or args[0])
        sweep_stationary(model, [0.1])
        ((got, image),) = seen
        expected = mu @ model.kernel(0.1)
        assert np.array_equal(got, mu)
        np.testing.assert_allclose(image, expected, rtol=1e-13, atol=0)

    def test_sweep_residual_is_checked_on_the_kernel(self, table22, monkeypatch):
        # The solver overwrites the kernel, so the residual is formed from the factors; a
        # vector off the stationary one by 1e-6 of mass must still be refused.
        def perturbed(kernel):
            mu = solve(kernel)
            mu[mu.argmax()] -= 1e-6
            mu[mu.argmin()] += 1e-6
            return mu

        solve = chain_module._gth_stationary
        monkeypatch.setattr(chain_module, "_gth_stationary", perturbed)
        model = ImitationChain(table22, ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.3))
        with pytest.raises(ConvergenceError, match="residual"):
            sweep_stationary(model, [0.1])

    def test_sweep_refuses_a_nan_vector(self, table22, monkeypatch):
        # An underflowed kernel can leave NaN in the vector; NaN compares false with the
        # tolerance, so the residual check must refuse it rather than pass it.
        monkeypatch.setattr(chain_module, "_gth_stationary",
                            lambda kernel: np.full(len(kernel), np.nan))
        model = ImitationChain(table22, ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.3))
        with pytest.raises(ConvergenceError, match="residual nan"):
            sweep_stationary(model, [0.1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_sweep_names_an_underflowing_epsilon(self, table22, dynamic):
        # Every eps in (0, 1) gives an irreducible chain, but at 1e-320 the kernel's
        # smallest probabilities underflow float64 and GTH finds no way down.
        params = (ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.3) if dynamic == "imitation"
                  else LocalParams.uniform(epsilon=0.1, N=2, p=0.5))
        with pytest.raises(ConvergenceError, match="^eps 1e-320: kernel is reducible .*underflows"):
            sweep_stationary(make_chain(table22, params), [0.1, 1e-320])

    def test_sweep_reads_a_one_shot_iterable(self, table22):
        model = ImitationChain(table22, ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.3))
        rows = sweep_stationary(model, (eps for eps in [0.1, 0.05]))
        assert rows == sweep_stationary(model, [0.1, 0.05])
        assert [row["eps"] for row in rows] == [0.1, 0.05]

    def test_sweep_validates_before_the_first_kernel(self, imitation223, monkeypatch):
        def kernel(eps):
            raise AssertionError("kernel built before every epsilon was checked")

        monkeypatch.setattr(imitation223, "kernel", kernel)
        with pytest.raises(ValueError):
            sweep_stationary(imitation223, [0.1, 1.5])
