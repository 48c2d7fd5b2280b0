"""Exact analysis of the perturbed evolutionary chain at desk scale.

States are joint states, one language id per agent (labelled states). Each
dynamic supplies a single hook, the per-agent next-language
distribution for a batch of states; agents update independently, so the
one-step kernel is its product over agents, and the one-step resistances
(the epsilon-exponent of each transition) are sums over agents of
per-agent exponents read off the same distribution, which is affine in
epsilon. On top runs the machinery of stochastic stability: recurrent
classes of the unperturbed chain, least resistances between classes via a
level-set search (resistances are small integers, so distances grow one
level at a time), stochastic potentials via minimum spanning arborescences,
and stationary distributions of the perturbed chain for epsilon sweeps. The
arborescence weight needs no tree: Chu-Liu/Edmonds contracts the cycles of
cheapest out-edges on reduced weights until none is left, and sums what it paid.

When every agent uses the same revision or neighbour probability, the chain
commutes with agent permutations and is strongly lumpable onto multisets of
languages (Kemeny & Snell, Finite Markov Chains, 1960, 6.3), so recurrent
classes and least resistances are searched there. All labelled states of a
multiset have the same resistances to a permutation-invariant set, and a class
that is one homogeneous multiset is one labelled state, so the results are
exact; if some class is not, labelled states are searched instead.

Stationary solves use a blocked Grassmann-Taksar-Heyman elimination:
subtraction-free, so componentwise accurate even when the spectral gap is
tiny. Each block eliminates its own rows, folds its coupling panel in a
contiguous copy, and updates the leading quadrant by a matrix product in
row chunks. The layout is chosen for memory access only: every entry gets
the same IEEE operations in the same order, so the result is fixed bit for bit.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .dynamics import ImitationParams, LocalParams
from .errors import CapExceededError, ConvergenceError
from .languages import LanguageTable

DEFAULT_MAX_STATES = 100_000
TRACTABLE_PRESETS = ((2, 2, 2), (2, 2, 3))

_INF = float("inf")
# Entries of one row block of the resistance matrix in the least-resistance search,
# and of one chunk of the GTH trailing product.
_BLOCK_ENTRIES = 1 << 21


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class StateSpace:
    """Dense bijection between joint states and indices in [0, K^N)."""

    def __init__(self, table: LanguageTable, n_agents: int, max_states: int = DEFAULT_MAX_STATES):
        self.table = table
        self.n_agents = n_agents
        self.size = table.size**n_agents
        if self.size > max_states:
            presets = ", ".join(f"(m={m}, n={n}, N={N})" for m, n, N in TRACTABLE_PRESETS)
            raise CapExceededError(
                f"state space has {self.size} states, above the cap of {max_states}; "
                f"tractable presets: {presets}. Raise SIGNALGAME_MAX_STATES to override."
            )

    def all_ids(self) -> np.ndarray:
        """(size, N) array of language ids, row v the joint state of index v."""
        return _ids(np.arange(self.size), self.table.size, self.n_agents)

    def extend(self, i: int, partial: np.ndarray, lid: np.ndarray) -> np.ndarray:
        return partial * self.table.size + lid

    def expand(self, costs: np.ndarray) -> np.ndarray:
        return _outer(costs, np.add)


def _ids(states: np.ndarray, K: int, N: int) -> np.ndarray:
    """(len, N) language ids of labelled state indices, agent 0 most significant."""
    return states[:, None] // K ** np.arange(N - 1, -1, -1) % K


def _codes(ids: np.ndarray, K: int) -> np.ndarray:
    """Labelled state index of each row of language ids; increasing in lexicographic order."""
    return ids @ K ** np.arange(ids.shape[-1] - 1, -1, -1)


class MultisetSpace:
    """Multisets of N languages: row v is the sorted representative of multiset v,
    in lexicographic order (C(K+N-1, N) rows).
    ``_insert[i][t, l]`` is the multiset of i + 1 languages that adds l to t."""

    def __init__(self, table, n_agents: int):
        self.table, self.n_agents, K = table, n_agents, table.size
        rows = np.arange(K)[:, None]
        self._insert, self._gather = [rows.T], []
        for i in range(1, n_agents):
            prev = _codes(rows, K)
            grown = np.column_stack([np.repeat(rows, K, axis=0), np.tile(np.arange(K), len(rows))])
            rows = np.array(list(itertools.combinations_with_replacement(range(K), i + 1)))
            insert = np.searchsorted(_codes(rows, K), _codes(np.sort(grown), K))
            self._insert.append(insert.reshape(-1, K))
            # Multiset t of i + 1 languages comes from (t without t[p], t[p]) for every
            # position p; a repeated language repeats its preimage.
            self._gather.append(np.column_stack([
                np.searchsorted(prev, _codes(np.delete(rows, p, axis=1), K)) * K + rows[:, p]
                for p in range(i + 1)]))
        self.rows, self.size = rows, len(rows)

    def all_ids(self) -> np.ndarray:
        return self.rows

    def extend(self, i: int, partial: np.ndarray, lid: np.ndarray) -> np.ndarray:
        """Multiset of agents 0..i when agent i adds language lid to ``partial``."""
        return self._insert[i][partial, lid]

    def expand(self, costs: np.ndarray) -> np.ndarray:
        """(B, size) joint costs from (B, N, K) per-agent costs, each the least over
        the assignments of the multiset's languages to agents, folded agent by agent."""
        joint = costs[:, 0]
        for i, gather in enumerate(self._gather, 1):
            joint = (joint[:, :, None] + costs[:, i, None, :]).reshape(len(costs), -1)
            joint = joint[:, gather].min(axis=2)
        return joint


def _outer(factors: np.ndarray, combine: np.ufunc) -> np.ndarray:
    """(V, K^N) joint rows from (V, N, K) per-agent factors, agent 0 outermost.

    Row v, the column of joint state w, combines factors[v, i, w_i] over the agents in
    index order, one agent at a time, so the full-width array is written once.
    """
    V, N, K = factors.shape
    joint = factors[:, 0]
    for i in range(1, N):
        joint = combine(joint[:, :, None], factors[:, i, None, :]).reshape(V, -1)
    return joint


class _ChainModel:
    """Shared scaffolding for the two dynamics.

    A dynamic supplies one hook, ``per_agent_dists(ids, eps)``: for a (V, N)
    batch of states, the (V, N, K) next-language distribution of every agent.
    Agents update independently given the state, so the kernel, the
    transition rows and probabilities, the resistances and the recurrent
    classes all derive from it. Each per-agent probability must be affine in
    epsilon, which makes its resistance (its epsilon-exponent) 0 where it is
    positive at epsilon 0, 1 where it is positive only for epsilon in (0, 1),
    and inf where it is always zero.
    """

    _alike: np.ndarray | None = None  # probabilities that must agree for agents to be alike

    def __init__(self, table: LanguageTable, n_agents: int, max_states: int = DEFAULT_MAX_STATES):
        self.table = table
        self.n_agents = n_agents
        self._max_states = max_states

    @cached_property
    def space(self) -> StateSpace:
        """The full state space; built, and checked against the cap, on first use."""
        return StateSpace(self.table, self.n_agents, self._max_states)

    @property
    def shared_prob(self) -> float | None:
        """The one revision or neighbour probability every agent (pair) uses, or None."""
        alike = self._alike
        return None if alike is None or np.any(alike != alike[0]) else float(alike[0])

    def per_agent_dists(self, ids: np.ndarray, eps: float) -> np.ndarray:
        """(V, N, K) next-language distribution per agent for (V, N) states."""
        raise NotImplementedError

    def _resistances(self, ids: np.ndarray) -> np.ndarray:
        """(V, N, K) float32 per-agent resistances for (V, N) states.

        An affine probability that is positive anywhere in (0, 1) is positive
        at epsilon 1/2, so one probe there separates resistance 1 from inf.
        """
        free = self.per_agent_dists(ids, 0.0) > 0.0
        possible = self.per_agent_dists(ids, 0.5) > 0.0
        return np.where(free, np.float32(0), np.where(possible, np.float32(1), np.float32(_INF)))

    # -- public operations ---------------------------------------------------

    def transition_row(self, ids, eps: float) -> np.ndarray:
        """Exact one-step distribution over all state indices."""
        self.space  # raises above the cap
        dists = self.per_agent_dists(np.asarray(ids, dtype=np.int64)[None], eps)
        return _outer(dists, np.multiply)[0]

    def transition_prob(self, ids, new_ids, eps: float) -> float:
        """Probability of one specific transition; no state-space cap needed."""
        dists = self.per_agent_dists(np.asarray(ids, dtype=np.int64)[None], eps)[0]
        return float(np.prod(dists[np.arange(self.n_agents), new_ids]))

    def step_resistance(self, ids, new_ids) -> float:
        """Epsilon-exponent of a one-step transition: mutations forced, or inf."""
        cost = self._resistances(np.asarray(ids, dtype=np.int64)[None])[0]
        return float(cost[np.arange(self.n_agents), new_ids].sum())

    def kernel(self, eps: float) -> np.ndarray:
        """Dense one-step transition matrix at a fixed epsilon. Raises CapExceededError
        before allocating if it and the GTH working copy, 2 * V**2 * 8 bytes, exceed
        physical memory. The solver adds O(V * block) bytes and one product chunk of
        _BLOCK_ENTRIES doubles, as V is a multiple of 8 for every K**N that fits."""
        if 2 * self.space.size**2 * 8 > _physical_memory():
            raise CapExceededError(f"a dense kernel on {self.space.size} states and its GTH "
                                   "working copy would not fit in physical memory")
        return _outer(self.per_agent_dists(self.space.all_ids(), eps), np.multiply)

    def resistance_matrix(self) -> np.ndarray:
        """(V, V) float32 matrix of one-step resistances (inf = impossible)."""
        return _outer(self._resistances(self.space.all_ids()), np.add)

    @cached_property
    def _search(self) -> tuple:
        """(space, closed classes of the eps=0 chain as its indices and as labelled
        indices, their language ids or None, per-agent resistances, zero-resistance
        graph). Multisets are searched when every agent uses one probability; a
        multiset class that is not one homogeneous state has no exact labelled
        image, so then labelled states are searched."""
        spaces = [self.space]  # raises above the cap
        if self.shared_prob is not None:
            spaces.insert(0, MultisetSpace(self.table, self.n_agents))
        for space in spaces:
            ids = space.all_ids()
            res = self._resistances(ids)
            # Free moves grow one agent at a time: each partial move is extended by
            # every language that agent can adopt at no cost.
            srcs, dsts = np.arange(space.size), np.zeros(space.size, dtype=np.int64)
            for i in range(self.n_agents):
                edge, lid = np.nonzero(res[srcs, i] == 0)
                srcs, dsts = srcs[edge], space.extend(i, dsts[edge], lid)
            graph = csr_matrix((np.ones(srcs.size, dtype=np.float32), (srcs, dsts)),
                               shape=(space.size, space.size))
            n_comps, labels = connected_components(graph, directed=True, connection="strong")
            srcs, dsts = graph.nonzero()
            leaving = labels[srcs] != labels[dsts]
            open_comps = np.zeros(n_comps, dtype=bool)
            open_comps[labels[srcs[leaving]]] = True
            closed = np.flatnonzero(~open_comps[labels])
            closed = closed[np.argsort(labels[closed], kind="stable")]
            cuts = np.flatnonzero(np.diff(labels[closed])) + 1
            classes = sorted((cls.tolist() for cls in np.split(closed, cuts)), key=min)
            heads = ids[[cls[0] for cls in classes]]
            homogeneous = all(len(cls) == 1 for cls in classes) and (heads.T == heads[:, 0]).all()
            if homogeneous or space is self.space:
                codes = _codes(ids, self.table.size)
                lang_ids = heads[:, 0].tolist() if homogeneous else None
                return space, classes, [codes[cls].tolist() for cls in classes], lang_ids, res, graph

    def recurrent_classes(self) -> list[list[int]]:
        """Closed communication classes of the unperturbed (eps=0) chain."""
        return self._search[2]

    def least_resistance(self) -> "ResistanceGraph":
        """Least path resistance between every ordered pair of recurrent classes.

        Paths run through the whole search space, so a single mutation followed
        by any amount of unperturbed flow is automatically a resistance-1 path.
        All classes are searched at once, one integer level at a time: a state
        is at distance L from a class when a move of resistance c <= min(L, N)
        leads to a state at distance <= L - c, or a zero-resistance path leads
        to such a state. Each level takes one boolean matrix product per c over
        row blocks of the resistance matrix, which is held whole only when it
        fits one block. No move costs more than N, so the search stops after N
        levels in a row that add no state.
        """
        labelled = self.recurrent_classes()
        space, classes, _, lang_ids, res, free = self._search
        V, N = space.size, self.n_agents
        # Impossible per-agent moves cost N + 1, so their sums exceed N without overflowing.
        cost = np.where(np.isfinite(res), res, N + 1).astype(np.min_scalar_type(N * (N + 1)))
        unreached = np.iinfo(np.int32).max
        dist = np.full((V, len(classes)), unreached, dtype=np.int32)
        new = np.zeros(dist.shape, dtype=bool)
        for j, cls in enumerate(classes):
            new[cls, j] = True
        rows, level, idle = max(1, _BLOCK_ENTRIES // V), 0, 0
        whole = space.expand(cost) if rows >= V else None
        while True:
            idle = 0 if new.any() else idle + 1
            while new.any():  # zero-resistance closure
                dist[new] = level
                new = (free @ new > 0) & (dist == unreached)
            open_rows = np.flatnonzero((dist == unreached).any(axis=1))
            if idle == N or open_rows.size == 0:
                break
            level += 1
            within = [(dist <= level - c).astype(np.float32) for c in range(1, min(level, N) + 1)]
            for at in np.split(open_rows, range(rows, open_rows.size, rows)):
                block = space.expand(cost[at]) if whole is None else whole[at]
                for c, target in enumerate(within, 1):
                    new[at] |= (block <= c).astype(np.float32) @ target > 0
            new &= dist == unreached
        r = np.array([dist[cls].min(axis=0) for cls in classes])
        return ResistanceGraph(labelled, np.where(r == unreached, _INF, r), lang_ids)


class ImitationChain(_ChainModel):
    """Exact chain of the global imitation-with-mutation dynamics."""

    dynamic = "imitation"

    def __init__(self, table: LanguageTable, params: ImitationParams,
                 max_states: int = DEFAULT_MAX_STATES):
        super().__init__(table, params.n_agents, max_states)
        self.params = params
        self._probs = self._alike = np.asarray(params.revision_probs)
        self._disk_unif = np.zeros((table.size, table.size))
        for lid, members in enumerate(table.disks(params.d)):
            self._disk_unif[lid, members] = 1.0 / members.size

    def per_agent_dists(self, ids: np.ndarray, eps: float) -> np.ndarray:
        fit = self.table.fitness_scaled_ids(ids)
        top = fit == fit.max(axis=1, keepdims=True)
        rows = np.arange(ids.shape[0])
        imit = np.zeros((ids.shape[0], self.table.size))
        np.add.at(imit, (rows[:, None], ids), top / top.sum(axis=1, keepdims=True))
        out = self._probs[:, None] * (
            (1.0 - eps) * imit[:, None, :] + eps * self._disk_unif[ids]
        )
        out[rows[:, None], np.arange(self.n_agents), ids] += 1.0 - self._probs
        return out


class LocalizedChain(_ChainModel):
    """Exact chain of the localized competition dynamics.

    Each agent always belongs to its own comparison set; other agents enter
    independently with probability p_ij. Mutations draw from the full
    language set.
    """

    dynamic = "localized"

    def __init__(self, table: LanguageTable, params: LocalParams,
                 max_states: int = DEFAULT_MAX_STATES):
        super().__init__(table, params.n_agents, max_states)
        self.params = params
        self._probs = np.asarray(params.neighbor_probs)
        self._alike = self._probs[~np.eye(self.n_agents, dtype=bool)]  # each agent compares itself

    def per_agent_dists(self, ids: np.ndarray, eps: float) -> np.ndarray:
        N = self.n_agents
        fit = self.table.fitness_scaled_ids(ids)
        rows = np.arange(ids.shape[0])
        copy = np.zeros((ids.shape[0], N, self.table.size))
        for i in range(N):
            others = [j for j in range(N) if j != i]
            for included in itertools.product([False, True], repeat=N - 1):
                weight = 1.0
                members = [i]
                for j, inc in zip(others, included):
                    p = self._probs[i, j]
                    weight *= p if inc else 1.0 - p
                    if inc:
                        members.append(j)
                if weight == 0.0:
                    continue
                local = fit[:, members]
                best = local == local.max(axis=1, keepdims=True)
                share = weight / best.sum(axis=1)
                for col, j in enumerate(members):
                    copy[rows, i, ids[:, j]] += np.where(best[:, col], share, 0.0)
        return (1.0 - eps) * copy + eps / self.table.size


def make_chain(
    table: LanguageTable, params: ImitationParams | LocalParams,
    max_states: int = DEFAULT_MAX_STATES,
) -> _ChainModel:
    if isinstance(params, ImitationParams):
        return ImitationChain(table, params, max_states)
    return LocalizedChain(table, params, max_states)


# -- stationary distributions -------------------------------------------------


def _gth_stationary(kernel: np.ndarray, block: int = 160) -> np.ndarray:
    """Stationary vector by blocked GTH state elimination.

    Censoring state e folds the two-leg paths i -> e -> j into the remaining
    chain: the incoming column is scaled by the expected-visits factor 1/s
    (s = e's total exit probability toward lower states) and the outer
    product with e's raw outgoing row is added. States are eliminated from
    the highest index down, one block [lo, hi) at a time, in three phases:
    the block rows among themselves (rows below lo never feed them); the
    coupling panel A[:lo, lo:hi], folded as a contiguous transposed copy and
    written back for the back-substitution; and the leading quadrant, which
    receives one matrix product in row chunks of about _BLOCK_ENTRIES
    entries. Per entry this is the arithmetic of rank-1 folds into the
    panel and one whole product per block into the quadrant, so the vector
    does not depend on the layout, bit for bit. That needs each chunk to
    round like the whole product: numpy's OpenBLAS rounds the last lo % 8
    columns differently for different row counts, and numpy hands one-row
    products to gemv, so chunks are multiples of 8 rows, and lo is chunked
    only when it is a multiple of 8. Only additions, multiplications and
    divisions of nonnegative numbers occur, so entries keep componentwise
    relative accuracy regardless of the spectral gap.
    """
    A = np.array(kernel, dtype=np.float64)
    n = A.shape[0]
    hi = n
    while hi > 1:
        lo = max(1, hi - block)
        b = hi - lo
        s = np.empty(b)
        for t in range(b - 1, -1, -1):
            e = lo + t
            s[t] = A[e, :e].sum()
            if not s[t] > 0.0:
                raise ConvergenceError(
                    "kernel is reducible (an eliminated state cannot reach lower states)"
                )
            A[lo:e, e] /= s[t]
            A[lo:e, :e] += A[lo:e, e, None] * A[e, None, :e]
        P = A[:lo, lo:hi].T.copy()
        for t in range(b - 1, -1, -1):
            P[t] /= s[t]
            P[:t] += A[lo + t, lo:lo + t, None] * P[t, None, :]
        A[:lo, lo:hi] = P.T
        T, U, V = A[:lo, :lo], A[:lo, lo:hi], A[lo:hi, :lo]
        rows = max(8, _BLOCK_ENTRIES // lo // 8 * 8) if lo % 8 == 0 else lo
        for r in range(0, lo, rows):
            T[r:r + rows] += U[r:r + rows] @ V
        hi = lo
    mu = np.empty(n)
    mu[0] = 1.0
    for j in range(1, n):
        mu[j] = mu[:j] @ A[:j, j]
    return mu / mu.sum()


def stationary(kernel: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of an irreducible aperiodic kernel.

    A direct GTH elimination, exact to roundoff regardless of the spectral
    gap; the result is residual-checked and raises ConvergenceError when the
    L1 residual exceeds 1e-9.
    """
    mu = _gth_stationary(kernel)
    residual = float(np.abs(mu @ kernel - mu).sum())
    if residual > 1e-9:
        raise ConvergenceError(f"stationary residual {residual} above tolerance")
    return mu


# -- resistance graph and stochastic potential ---------------------------------


@dataclass
class ResistanceGraph:
    """Least resistances between the recurrent classes of the unperturbed chain."""

    classes: list[list[int]]
    r: np.ndarray
    lang_ids: list[int] | None = None  # when every class is one homogeneous state

    def __post_init__(self) -> None:
        finite = np.isfinite(self.r)
        if not np.array_equal(self.r[finite], np.round(self.r[finite])):
            raise ValueError("resistances must be integers")
        if np.any(np.diagonal(self.r) != 0):
            raise ValueError("self-resistance must be 0")

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@dataclass
class StochasticPotentialResult:
    gamma: np.ndarray
    minimizers: list[int] = field(init=False)

    def __post_init__(self) -> None:
        lowest = self.gamma.min()
        self.minimizers = [int(i) for i in np.flatnonzero(self.gamma == lowest)]


def min_in_arborescence(weights: np.ndarray, root: int) -> float:
    """Weight of the cheapest spanning tree with a directed path from every node into root.

    ``weights[i, j]`` is the cost of edge i -> j (inf where absent; the diagonal
    is ignored), and every non-root node keeps one outgoing edge. Chu-Liu/Edmonds
    on the weight alone: every non-root node pays for its cheapest out-edge, which
    is then subtracted from all its out-edges, and each cycle the chosen edges
    close contracts to one node whose out-edges are the least of its members',
    until no cycle is left. Raises ValueError when no finite tree exists.
    """
    w = np.array(weights, dtype=float)
    w[root] = _INF
    total, target = 0.0, root
    while True:
        n = len(w)
        np.fill_diagonal(w, _INF)
        succ = w.argmin(axis=1).tolist()
        paid = w[np.arange(n), succ]
        paid[root] = 0.0
        total += paid.sum()
        if not total < _INF:
            raise ValueError(f"no finite-weight arborescence into node {target}")
        # Follow the chosen edges from each node; a walk that meets its own path
        # has closed a cycle there.
        cycles, walk = [], [-1] * n
        for start in range(n):
            v = start
            while walk[v] < 0 and v != root:
                walk[v], v = start, succ[v]
            if walk[v] == start:
                cycle, u = [v], succ[v]
                while u != v:
                    cycle.append(u)
                    u = succ[u]
                cycles.append(cycle)
        if not cycles:
            return float(total)
        w -= paid[:, None]
        # Each node off the cycles is a group of its own, listed first, so the
        # root's new index is its place in the order.
        on_cycle = {v for cycle in cycles for v in cycle}
        groups = [[v] for v in range(n) if v not in on_cycle] + cycles
        order = [v for group in groups for v in group]
        starts = np.cumsum([0] + [len(group) for group in groups[:-1]])
        w = np.minimum.reduceat(np.minimum.reduceat(w[order], starts, axis=0)[:, order],
                                starts, axis=1)
        root = order.index(root)


def stochastic_potential(rg: ResistanceGraph) -> StochasticPotentialResult:
    """Per-class minimum arborescence weight and the set of minimizers."""
    return StochasticPotentialResult(
        gamma=np.array([min_in_arborescence(rg.r, root) for root in range(rg.n_classes)]))


# -- stability verification -------------------------------------------------------


@dataclass
class VerifyReport:
    """Everything the stochastic-stability pipeline computed for one instance."""

    params: dict
    state_count: int
    classes: list[int]
    class_states: list[list[int]]
    classes_homogeneous: bool
    resistances: list[list[int]]
    gamma: dict[str, int]
    stable_set: list[int]
    optimal_set: list[int]
    epsilon_sweep: list[dict]
    verdict: str
    notes: list[str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def optimal_state_indices(space: StateSpace) -> np.ndarray:
    """Indices of the homogeneous states on aligned languages."""
    aligned = space.table.aligned_ids[:, None]
    return _codes(np.repeat(aligned, space.n_agents, axis=1), space.table.size)


def sweep_stationary(model: _ChainModel, epsilons) -> list[dict]:
    """Exact stationary solve per epsilon with mass bookkeeping on optimal states.

    Every epsilon is validated before the first kernel is built.
    """
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"sweep epsilons must lie in (0, 1), got {eps}")
    optimal = optimal_state_indices(model.space)
    rows = []
    for eps in epsilons:
        mu = stationary(model.kernel(eps))
        top = int(mu.argmax())
        rows.append(
            {
                "eps": float(eps),
                "optimal_mass": float(mu[optimal].sum()),
                "optimal_masses": [float(mu[v]) for v in optimal],
                "top_state_id": top,
                "top_state_mass": float(mu[top]),
            }
        )
    return rows


def verify_stability(model: _ChainModel, epsilons=()) -> VerifyReport:
    """Run the full stochastic-stability pipeline on one chain.

    The verdict compares the arborescence minimizer set against the optimal
    states; the epsilon sweep, when requested, is numerical corroboration
    only. It runs first, so a kernel too large for memory fails before the
    search. N=2 instances are reported as degenerate: the lone-mutant fitness
    gap vanishes there, so the one-mutation characterization has no bite.
    The report records one revision or neighbour probability, so the chain
    must use the same one for every agent (pair); ValueError otherwise.
    """
    table, N, prob = model.table, model.n_agents, model.shared_prob
    imitation = model.dynamic == "imitation"
    if prob is None:
        raise ValueError("verify needs one probability shared by all agents")
    epsilons = tuple(epsilons)
    sweep = sweep_stationary(model, epsilons)

    rg = model.least_resistance()
    sp = stochastic_potential(rg)
    homogeneous = rg.lang_ids is not None
    labels = rg.lang_ids if homogeneous else [min(cls) for cls in rg.classes]

    stable = sorted(labels[i] for i in sp.minimizers)
    optimal = sorted(int(x) for x in table.aligned_ids) if homogeneous else []

    notes = []
    if N == 2:
        notes.append(
            "N=2 is degenerate: a lone mutant always ties the residents, so every "
            "one-mutation transition succeeds and the minimizer set is not informative"
        )
    if table.m != table.n:
        notes.append(
            "m != n: the equality of stable and optimal sets is only fully established "
            "for m = n; treat this report as an empirical finding"
        )
    if N == 2:
        verdict = "degenerate"
    else:
        verdict = "pass" if homogeneous and set(stable) == set(optimal) else "fail"

    resistances = [
        [int(labels[i]), int(labels[j]), int(rg.r[i, j])]
        for i in range(rg.n_classes)
        for j in range(rg.n_classes)
        if i != j
    ]
    return VerifyReport(
        params={
            "m": table.m,
            "n": table.n,
            "N": N,
            "dynamic": model.dynamic,
            "d": model.params.d if imitation else None,
            "revision_prob": prob if imitation else None,
            "neighbor_prob": None if imitation else prob,
            "epsilons": [float(e) for e in epsilons],
        },
        state_count=model.space.size,
        classes=[int(x) for x in labels],
        class_states=[list(map(int, cls)) for cls in rg.classes],
        classes_homogeneous=homogeneous,
        resistances=resistances,
        gamma={str(labels[i]): int(sp.gamma[i]) for i in range(rg.n_classes)},
        stable_set=[int(x) for x in stable],
        optimal_set=[int(x) for x in optimal],
        epsilon_sweep=sweep,
        verdict=verdict,
        notes=notes,
    )
