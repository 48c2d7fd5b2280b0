from __future__ import annotations

import itertools

import numpy as np
import pytest

from signalgame.chain import ResistanceGraph, min_in_arborescence, stochastic_potential


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
