from __future__ import annotations

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
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
from signalgame.languages import Language, get_table, language_count, permute


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


def imitation_chain(m, n, N, **kwargs):
    """The imitation chain verify builds by default: d=2, revision probability 0.3."""
    return ImitationChain(get_table(m, n), ImitationParams.uniform(epsilon=0.01, d=2, N=N, p=0.3),
                          **kwargs)


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
            StateSpace(table22, 5, max_states=100_000)

    def test_chain_owns_the_cap(self, table22):
        chain = make_chain(table22, ImitationParams.uniform(0.01, 2, 3, 0.3), max_states=4095)
        with pytest.raises(CapExceededError):
            chain.recurrent_classes()
        assert imitation_chain(2, 2, 3, max_states=4096).space.size == 4096

    def test_operations_above_the_cap(self):
        chain = imitation_chain(2, 3, 3)  # 72^3 = 373,248 states
        state, other = (0, 1, 2), (3, 4, 5)
        for call in (lambda: chain.kernel(0.1), lambda: chain.transition_row(state, 0.1),
                     chain.recurrent_classes, chain.least_resistance,
                     lambda: verify_stability(chain)):
            with pytest.raises(CapExceededError):
                call()
        assert 0.0 <= chain.transition_prob(state, other, 0.1) <= 1.0
        assert chain.step_resistance(state, state) == 0.0

    def test_optimal_indices(self, table22):
        space = StateSpace(table22, 3)
        for index in optimal_state_indices(space):
            decoded = decode(space, int(index))
            assert len(set(decoded)) == 1
            assert table22.aligned_mask[decoded[0]]


class TestMultisetSpace:
    @pytest.mark.parametrize("K,N", [(16, 3), (4, 3), (4, 4), (3, 5)])
    def test_rows_are_sorted_unique_representatives(self, K, N):
        rows = MultisetSpace(SimpleNamespace(size=K), N).all_ids()
        assert rows.shape == (math.comb(K + N - 1, N), N)
        assert (np.diff(rows, axis=1) >= 0).all()
        assert np.array_equal(np.unique(rows, axis=0), rows)  # unique, lexicographic

    @pytest.mark.parametrize("N", [3, 4])
    def test_fold_is_the_orbit_minimum(self, N):
        K = 4
        space = MultisetSpace(SimpleNamespace(size=K), N)
        costs = np.random.default_rng(N).integers(0, 9, size=(20, N, K))
        joint = _outer(costs, np.add)
        index = {tuple(row): v for v, row in enumerate(space.all_ids().tolist())}
        expected = np.full((20, space.size), np.iinfo(np.int64).max)
        for w, ids in enumerate(StateSpace(SimpleNamespace(size=K), N).all_ids()):
            v = index[tuple(sorted(ids.tolist()))]
            expected[:, v] = np.minimum(expected[:, v], joint[:, w])
        assert np.array_equal(space.expand(costs), expected)


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


class TestStepResistance:
    def test_self_loop_is_free(self, imitation223):
        assert imitation223.step_resistance((4, 4, 4), (4, 4, 4)) == 0

    def test_single_mutation_inside_disk(self, table22):
        params = ImitationParams.uniform(epsilon=0.01, d=1, N=3, p=0.3)
        chain = ImitationChain(table22, params)
        lid = 0
        near = int(table22.disks(1)[lid][1])
        far = int(np.flatnonzero(table22.hamming_q[lid] > 4)[0])
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
        free = chain.resistance_matrix() == 0
        for cls in chain.recurrent_classes():
            inside = np.zeros(free.shape[0], dtype=bool)
            inside[cls] = True
            assert not free[np.ix_(inside, ~inside)].any()
            n_comps, _ = connected_components(free[np.ix_(inside, inside)], connection="strong")
            assert n_comps == 1


def min_plus_least_resistance(chain):
    """Reference classes and least resistances from the dense labelled resistance
    matrix alone. The classes are the closed strongly connected components of
    its zero entries. The resistances come from min-plus relaxation to a fixed
    point, dist <- min(dist, min_w R[:, w] + dist[w]), for all classes at once:
    a pair gets c + t when it has a move of resistance exactly c to a state at
    distance <= t, which one boolean matrix product per (c, t) finds."""
    R = chain.resistance_matrix()
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
    """K=2 languages, N=3 alike agents, so the search starts on multisets.

    With ``flip`` every agent flips its language unless a mutation (probability
    eps) keeps it, so {0,0,0} and {1,1,1} form one multiset class of two
    homogeneous states. Without it every agent keeps its language unless a
    mutation flips it, so every multiset is a class, {0,0,1} among them.
    Neither class has an exact labelled image.
    """

    _alike = np.ones(1)

    def __init__(self, flip: bool):
        super().__init__(SimpleNamespace(size=2), 3)
        self.flip = flip

    def per_agent_dists(self, ids, eps):
        keep = np.eye(2)[ids]
        free, mutate = (1.0 - keep, keep) if self.flip else (keep, 1.0 - keep)
        return (1.0 - eps) * free + eps * mutate


class TestLeastResistance:
    """The search on either space against the labelled oracle, classes included."""

    @pytest.mark.parametrize("index", range(4), ids=["imitation", "imitation-nonuniform",
                                                     "localized", "localized-forced"])
    def test_matches_min_plus_small(self, table22, index):
        assert_matches_oracle(derived_layer_chains(table22)[index])

    def test_matches_min_plus_imitation223(self, imitation223):
        assert_matches_oracle(imitation223)

    def test_matches_min_plus_localized223(self, table22):
        assert_matches_oracle(LocalizedChain(table22, LocalParams.uniform(epsilon=0.01, N=3, p=0.5)))

    def test_matches_min_plus_imitation232(self):
        assert_matches_oracle(imitation_chain(2, 3, 2))

    def test_matches_min_plus_localized232(self):
        assert_matches_oracle(LocalizedChain(get_table(2, 3), LocalParams.uniform(0.01, 2, 0.5)))

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_uniform_chains_search_multisets(self, table22, monkeypatch, dynamic):
        def refuse(space):
            raise AssertionError("labelled states enumerated")

        monkeypatch.setattr(StateSpace, "all_ids", refuse)
        chain = (imitation_chain(2, 2, 3) if dynamic == "imitation" else
                 LocalizedChain(table22, LocalParams.uniform(epsilon=0.01, N=3, p=0.5)))
        assert chain.recurrent_classes() == [[lid * (1 + 16 + 256)] for lid in range(16)]
        assert chain.least_resistance().lang_ids == list(range(16))

    def _check_raise_the_minimum(self, chain):
        # Levels 1 and 2 add no state, class 0 is 9 levels from class 3, and
        # no class can move down: the search must cross idle levels, carry
        # distances above N and stop with infinite entries.
        rg = chain.least_resistance()
        assert rg.classes == [[0], [21], [42], [63]]
        expected = np.full((4, 4), np.inf)
        for i in range(4):
            expected[i, i:] = 3 * np.arange(4 - i)
        assert np.array_equal(rg.r, expected)
        assert_matches_oracle(chain)

    def test_gaps_above_n_and_impossible_moves(self):
        self._check_raise_the_minimum(RaiseTheMinimumChain())

    def test_gaps_above_n_on_multisets(self):
        chain = RaiseTheMinimumChain()
        chain._alike = np.ones(1)  # its agents are alike, so multisets are searched
        self._check_raise_the_minimum(chain)
        assert isinstance(chain._search[0], MultisetSpace)

    @pytest.mark.parametrize("flip,classes", [
        (True, [[0, 7], [1, 6], [2, 5], [3, 4]]),
        (False, [[v] for v in range(8)]),
    ], ids=["flip", "stay"])
    def test_multiset_class_without_labelled_image(self, flip, classes):
        chain = SwitchChain(flip)
        assert_matches_oracle(chain)
        assert chain.recurrent_classes() == classes
        assert chain._search[0] is chain.space
        assert chain.least_resistance().lang_ids is None

    def test_nonuniform_chain_labels_labelled_classes(self, table22, resistance223):
        # Agents with different revision probabilities are searched on labelled
        # states; the free moves and the possible moves do not depend on the
        # probabilities, so neither do the classes or which resistances are finite.
        params = ImitationParams(epsilon=0.01, d=2, revision_probs=(0.3, 0.4, 0.5))
        chain = ImitationChain(table22, params)
        rg = chain.least_resistance()
        assert chain._search[0] is chain.space
        assert rg.classes == resistance223.classes
        assert rg.lang_ids == list(range(16))
        assert np.array_equal(np.isfinite(rg.r), np.isfinite(resistance223.r))

    def test_diagonal_zero(self, resistance223):
        assert np.all(np.diagonal(resistance223.r) == 0)

    def test_classes_are_languages(self, resistance223):
        assert resistance223.lang_ids == list(range(16))

    def test_exit_and_entry_resistances(self, table22, resistance223):
        from signalgame.languages import trace_raising_neighbor

        r = resistance223.r
        selftrace = np.diagonal(table22.cross)
        for lid in range(16):
            if table22.aligned_mask[lid]:
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
        result = stochastic_potential(resistance223)
        lang_ids = resistance223.lang_ids
        floor = result.gamma.min()
        for k, lid in enumerate(lang_ids):
            if not table22.aligned_mask[lid]:
                assert result.gamma[k] > floor

    def test_minimizers_carry_the_stationary_mass(self, table22, imitation223,
                                                  resistance223):
        # the arborescence minimizers are exactly the states whose mass
        # dominates the exact stationary distribution at small epsilon
        result = stochastic_potential(resistance223)
        lang_ids = resistance223.lang_ids
        stable_states = [
            resistance223.classes[k][0] for k in result.minimizers
        ]
        mu = stationary(imitation223.kernel(0.01))
        assert mu[stable_states].sum() > 0.8
        assert sorted(np.argsort(mu)[-len(stable_states):].tolist()) == sorted(stable_states)


class TestKernelMemoryCheck:
    def test_refuses_a_kernel_above_physical_memory(self, table22, monkeypatch):
        chain = ImitationChain(table22, ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.3))
        need = 2 * 256**2 * 8
        monkeypatch.setattr(chain_module, "_physical_memory", lambda: need - 1)
        with pytest.raises(CapExceededError, match="physical memory"):
            chain.kernel(0.1)
        monkeypatch.setattr(chain_module, "_physical_memory", lambda: need)
        assert chain.kernel(0.1).shape == (256, 256)


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
    # the last bits of about half the masses here.
    @pytest.mark.parametrize("n,block", [(700, 1), (700, 7), (700, 160), (700, 700), (700, 1000),
                                         (2048, 160), (2052, 160)])
    def test_matches_reference_bitwise(self, n, block):
        kernel = random_kernel(n, n)
        assert np.array_equal(_gth_stationary(kernel, block), reference_gth_stationary(kernel, block))

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_matches_reference_bitwise_222(self, table22, dynamic):
        params = (ImitationParams.uniform(epsilon=0.1, d=2, N=2, p=0.3) if dynamic == "imitation"
                  else LocalParams.uniform(epsilon=0.1, N=2, p=0.5))
        kernel = make_chain(table22, params).kernel(0.1)
        assert np.array_equal(_gth_stationary(kernel), reference_gth_stationary(kernel))

    def test_matches_reference_bitwise_223_tied_row(self, imitation223):
        # The sweep row whose top state breaks an exact tie between 1365 and 2730 by roundoff.
        kernel = imitation223.kernel(0.003)
        mu = _gth_stationary(kernel)
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
        result = stochastic_potential(rg)
        assert result.gamma.tolist() == [2.0, 1.0]
        assert result.minimizers == [1]

    def test_three_node_cycle(self):
        r = np.zeros((3, 3))
        r[0, 1] = r[1, 2] = r[2, 0] = 1.0
        r[1, 0] = r[2, 1] = r[0, 2] = 2.0
        rg = ResistanceGraph(classes=[[0], [1], [2]], r=r)
        result = stochastic_potential(rg)
        assert result.gamma.tolist() == [2.0, 2.0, 2.0]
        assert result.minimizers == [0, 1, 2]

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

    def test_sweep_validates_before_the_first_kernel(self, imitation223, monkeypatch):
        def kernel(eps):
            raise AssertionError("kernel built before every epsilon was checked")

        monkeypatch.setattr(imitation223, "kernel", kernel)
        with pytest.raises(ValueError):
            sweep_stationary(imitation223, [0.1, 1.5])
