from __future__ import annotations

import itertools

import numpy as np
import pytest

from signalgame.chain import (
    ImitationChain,
    LocalizedChain,
    ResistanceGraph,
    _in_tree_weights,
    min_in_arborescence,
    stochastic_potential,
)
from signalgame.dynamics import ImitationParams, LocalParams
from signalgame.languages import get_table

from reference import reference_min_in_arborescence


def brute_force_min(weights: np.ndarray, root: int) -> float:
    """Enumerate every spanning in-tree (each non-root picks one successor)."""
    n = weights.shape[0]
    nodes = [v for v in range(n) if v != root]
    best = float("inf")
    for choice in itertools.product(*[[u for u in range(n) if u != v] for v in nodes]):
        successor = dict(zip(nodes, choice))
        ok = True
        for v in nodes:
            seen = set()
            x = v
            while x != root:
                if x in seen:
                    ok = False
                    break
                seen.add(x)
                x = successor[x]
            if not ok:
                break
        if ok:
            best = min(best, sum(weights[v, successor[v]] for v in nodes))
    return best


def test_two_node_example():
    w = np.array([[np.inf, 1.0], [2.0, np.inf]])
    assert min_in_arborescence(w, 0) == 2.0
    assert min_in_arborescence(w, 1) == 1.0


def test_three_node_cycle_example():
    w = np.full((3, 3), np.inf)
    w[0, 1] = w[1, 2] = w[2, 0] = 1.0
    w[1, 0] = w[2, 1] = w[0, 2] = 2.0
    for root in range(3):
        total = min_in_arborescence(w, root)
        assert total == 2.0
        assert total == brute_force_min(w, root)


@pytest.mark.parametrize("trial", range(60))
def test_matches_brute_force(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(2, 6))
    w = rng.integers(1, 12, size=(n, n)).astype(float)
    w[rng.random((n, n)) < 0.2] = np.inf
    np.fill_diagonal(w, np.inf)
    for root in range(n):
        expected = brute_force_min(w, root)
        if np.isinf(expected):
            with pytest.raises(ValueError):
                min_in_arborescence(w, root)
        else:
            assert min_in_arborescence(w, root) == expected


def test_disconnected_raises():
    w = np.full((3, 3), np.inf)
    w[0, 1] = 1.0  # node 2 has no edges at all
    with pytest.raises(ValueError, match="into node 1"):
        min_in_arborescence(w, 1)


def test_stochastic_potential_matches_exhaustive_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        r = rng.integers(1, 9, size=(n, n)).astype(float)
        np.fill_diagonal(r, 0.0)
        gamma = stochastic_potential(ResistanceGraph(classes=[[i] for i in range(n)], r=r))
        weights = r.copy()
        np.fill_diagonal(weights, np.inf)
        for root in range(n):
            assert gamma[root] == brute_force_min(weights, root)


@pytest.mark.parametrize("trial", range(16))
def test_matches_networkx_edmonds(trial):
    # verify runs Edmonds on 16 to 72 classes, beyond brute-force reach; small
    # integer weights make ties common, and dropping most edges makes the
    # cheapest in-edges form cycles that the contraction has to resolve
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2000 + trial)
    n = int(rng.integers(16, 41))
    w = rng.integers(1, 10, size=(n, n)).astype(float)
    w[rng.random((n, n)) < 0.6] = np.inf
    np.fill_diagonal(w, np.inf)
    for root in rng.choice(n, size=3, replace=False):
        # successor edges v -> u become u -> v, so the in-tree into root is
        # an out-arborescence from root; dropping root's outgoing edges of w
        # leaves root no in-edge in the reversed graph, forcing it as the root
        reversed_graph = nx.DiGraph()
        reversed_graph.add_nodes_from(range(n))
        reversed_graph.add_weighted_edges_from(
            (int(u), int(v), w[v, u]) for v, u in zip(*np.nonzero(np.isfinite(w))) if v != root
        )
        try:
            tree = nx.algorithms.tree.branchings.minimum_spanning_arborescence(reversed_graph)
        except nx.NetworkXException:
            with pytest.raises(ValueError):
                min_in_arborescence(w, int(root))
            continue
        assert min_in_arborescence(w, int(root)) == tree.size(weight="weight")


def every_root(weights: np.ndarray, solve) -> list[float]:
    """``solve(weights, root)`` for every root, inf where it raises ValueError."""
    out = []
    for root in range(len(weights)):
        try:
            out.append(solve(weights, root))
        except ValueError:
            out.append(np.inf)
    return out


def small_graph(seed: int) -> np.ndarray:
    """2-5 nodes, weights 1-11, a fifth of the edges missing (brute-force reach)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    w = rng.integers(1, 12, size=(n, n)).astype(float)
    w[rng.random((n, n)) < 0.2] = np.inf
    np.fill_diagonal(w, np.inf)
    return w


def sparse_graph(seed: int, closed: int) -> np.ndarray:
    """16-40 nodes, weights 1-9 with many ties, 60% of the edges missing, and ``closed``
    disjoint cycles of 2-5 nodes with no edge out (roots outside one have no tree)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 41))
    w = rng.integers(1, 10, size=(n, n)).astype(float)
    w[rng.random((n, n)) < 0.6] = np.inf
    np.fill_diagonal(w, np.inf)
    nodes = rng.permutation(n)
    for k in range(closed):
        inside = nodes[5 * k:5 * k + int(rng.integers(2, 6))]
        w[np.ix_(inside, np.setdiff1d(np.arange(n), inside))] = np.inf
        w[inside, np.roll(inside, 1)] = rng.integers(1, 10, size=inside.size)
    return w


def networkx_min(weights: np.ndarray, root: int) -> float:
    """The in-tree into root as networkx's out-arborescence of the reversed graph from
    root; root's own out-edges are dropped, which forces it to be the root."""
    nx = pytest.importorskip("networkx")
    reversed_graph = nx.DiGraph()
    reversed_graph.add_nodes_from(range(len(weights)))
    reversed_graph.add_weighted_edges_from(
        (int(u), int(v), weights[v, u]) for v, u in zip(*np.nonzero(np.isfinite(weights)))
        if v != root
    )
    try:
        tree = nx.algorithms.tree.branchings.minimum_spanning_arborescence(reversed_graph)
    except nx.NetworkXException:
        raise ValueError("no spanning arborescence") from None
    return tree.size(weight="weight")


class TestOneContraction:
    """Every root's tree weight from one rootless contraction against oracles that
    solve one root at a time."""

    @pytest.mark.parametrize("trial", range(60))
    def test_every_root_matches_brute_force(self, trial):
        w = small_graph(3000 + trial)
        expected = [brute_force_min(w, root) for root in range(len(w))]
        assert _in_tree_weights(w).tolist() == expected
        assert every_root(w, min_in_arborescence) == expected

    @pytest.mark.parametrize("closed", range(3))
    @pytest.mark.parametrize("trial", range(4))
    def test_every_root_matches_networkx(self, trial, closed):
        w = sparse_graph(4000 + trial, closed)
        expected = every_root(w, networkx_min)
        assert _in_tree_weights(w).tolist() == expected
        assert every_root(w, reference_min_in_arborescence) == expected
        least, most = {0: (0, 0), 1: (1, len(w) - 1), 2: (len(w), len(w))}[closed]
        assert least <= np.isinf(expected).sum() <= most  # roots without a tree

    @pytest.mark.parametrize("trial", range(40))
    def test_every_root_matches_the_per_root_oracle(self, trial):
        # zero and negative weights, and up to 90% of the edges missing
        rng = np.random.default_rng(5000 + trial)
        n = int(rng.integers(2, 41))
        w = rng.integers(-2, 4, size=(n, n)).astype(float)
        w[rng.random((n, n)) < rng.random() * 0.9] = np.inf
        assert _in_tree_weights(w).tolist() == every_root(w, reference_min_in_arborescence)

    def test_one_sink_supernode_keeps_only_its_roots(self):
        # the cycle 0 -> 1 -> 2 -> 0 has no edge out, so it contracts to a node with no
        # finite out-edge: only roots inside it have a tree
        w = np.full((5, 5), np.inf)
        w[0, 1] = w[1, 2] = w[2, 0] = 1.0
        w[3, 0], w[4, 3], w[4, 1], w[3, 4] = 2.0, 1.0, 5.0, 1.0
        expected = [brute_force_min(w, root) for root in range(5)]
        assert expected == [5.0, 5.0, 5.0, np.inf, np.inf]
        assert _in_tree_weights(w).tolist() == expected
        with pytest.raises(ValueError, match="into node 3"):
            min_in_arborescence(w, 3)
        r = np.where(np.isfinite(w), w, np.inf)
        np.fill_diagonal(r, 0.0)
        with pytest.raises(ValueError, match="into node 3"):
            stochastic_potential(ResistanceGraph(classes=[[i] for i in range(5)], r=r))

    def test_two_sinks_leave_no_root_a_tree(self):
        # 0 <-> 1 and 2 <-> 3 are closed, and 4 leads into both
        w = np.full((5, 5), np.inf)
        w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0
        w[4, 0], w[4, 2] = 1.0, 2.0
        assert [brute_force_min(w, root) for root in range(5)] == [np.inf] * 5
        assert np.isinf(_in_tree_weights(w)).all()
        r = w.copy()
        np.fill_diagonal(r, 0.0)
        with pytest.raises(ValueError, match="into node 0"):
            stochastic_potential(ResistanceGraph(classes=[[i] for i in range(5)], r=r))

    @pytest.mark.parametrize("dynamic", ["imitation", "localized"])
    def test_potentials_of_the_72_classes_at_232(self, dynamic):
        table = get_table(2, 3)
        chain = (ImitationChain(table, ImitationParams.uniform(0.01, d=2, N=2, p=0.3))
                 if dynamic == "imitation" else
                 LocalizedChain(table, LocalParams.uniform(0.01, N=2, p=0.5)))
        rg = chain.least_resistance()
        assert rg.n_classes == 72
        gamma = stochastic_potential(rg)
        assert gamma.tolist() == [reference_min_in_arborescence(rg.r, root) for root in range(72)]
