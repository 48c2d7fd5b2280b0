"""Exact analysis of the perturbed evolutionary chain at desk scale.

States are joint states, one language id per agent (labelled states). Each
dynamic supplies a hook, the per-agent next-language distribution for a batch
of states, which is affine in epsilon, and its mutation support; agents update
independently, so the one-step kernel is the hook's product over agents, and the
one-step resistances (the epsilon-exponent of each transition) are sums over
agents of per-agent exponents: 0 where the hook is positive at epsilon 0, else 1
on the mutation support. On top runs the machinery of stochastic stability: recurrent
classes of the unperturbed chain, least resistances between classes via a
level-set search (resistances are small integers, so distances grow one
level at a time), stochastic potentials via minimum spanning arborescences,
and stationary distributions of the perturbed chain for epsilon sweeps. The
arborescence weights need no tree, and every root shares one Chu-Liu/Edmonds
contraction: the sets that the cheapest out-edges connect strongly, read off the pull
below, contract on reduced weights until none is left, and the tree into r weighs all
that was paid less what the nodes holding r paid.

Free moves (resistance 0) are numpy edge arrays sorted by source; every search
on them repeats a pull, one gather and one ``ufunc.reduceat``, until nothing
changes. If low[v] is the least state v reaches and high[v] the largest low
over what v reaches, v is the least state of a closed class exactly when
low[v] = high[v] = v; its class is what it reaches, pulled over reversed edges.

Resistances depend only on which probabilities are exactly 1, so they are read from a
probe chain with every other probability set to 1/2. Unless some off-diagonal p_ij of a
localized chain are 1 and some not, the probe commutes with agent permutations and is
strongly lumpable onto multisets of languages (Kemeny & Snell, Finite Markov Chains,
1960, 6.3), where recurrent classes and least resistances are searched. The results are
exact for the lumped chain, whose resistances are minima over each orbit; a multiset
class is listed by its sorted representatives.
Both dynamics rest only in homogeneous states, each of them one labelled state.

Stationary solves use a blocked Grassmann-Taksar-Heyman elimination in place:
subtraction-free, so componentwise accurate even when the spectral gap is tiny.
Each block folds its pivots into its own rows and into a contiguous copy of its
coupling panel, 16 rows at a time so the rows being updated stay in cache, and
updates the leading quadrant by a matrix product in row chunks, all in one reused
scratch buffer. The layout is chosen for memory access only: every entry gets the
same IEEE operations in the same order, so the result is fixed bit for bit.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quoted

import numpy as np

from .dynamics import ImitationParams, LocalParams
from .errors import CapExceededError, ConvergenceError
from .languages import LanguageTable

# States a space may enumerate: K^N labelled states, or C(K+N-1, N) multisets.
MAX_STATES = 100_000

_INF = float("inf")
# Entries of one row block of the resistance matrix in the least-resistance search (its
# temporaries are (V, B) uint8 fold stages and one float32 threshold mask).
_BLOCK_ENTRIES = 1 << 21
_GTH_BLOCK = 160  # states per GTH block, rows per product chunk and per kernel fill
_GTH_GROUP = 16  # rows of a block that take its rank-1 folds together


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def space_size(K: int, N: int, multisets: bool) -> int:
    """States of a space of N agents on K languages: C(K+N-1, N) multisets, or K^N
    labelled states. The count is a product of N (or min(N, K-1)) growing factors, so
    it raises CapExceededError at the first partial product above MAX_STATES, a few
    factors in, and never forms the count of a huge N."""
    a, k = (max(K - 1, N), min(K - 1, N)) if multisets else (0, N)
    size = 1
    for j in range(1, k + 1):
        size = size * (a + j) // j if multisets else size * K
        if size > MAX_STATES:
            what = "multiset space" if multisets else "labelled state space"
            count = size if j == k else f"more than {size}"
            raise CapExceededError(f"the {what} has {count} states, above the cap of {MAX_STATES}")
    return size


class StateSpace:
    """Dense bijection between joint states and indices in [0, K^N)."""

    def __init__(self, table: LanguageTable, n_agents: int):
        self.table = table
        self.n_agents = n_agents
        self.size = space_size(table.size, n_agents, multisets=False)

    def all_ids(self) -> np.ndarray:
        """(size, N) array of language ids, row v the joint state of index v."""
        return _ids(np.arange(self.size), self.table.size, self.n_agents)


def _ids(states: np.ndarray, K: int, N: int) -> np.ndarray:
    """(len, N) language ids of labelled state indices, agent 0 most significant."""
    return states[:, None] // K ** np.arange(N - 1, -1, -1) % K


def _codes(ids: np.ndarray, K: int) -> np.ndarray:
    """Labelled state index of each row of language ids; increasing in lexicographic order."""
    return ids @ K ** np.arange(ids.shape[-1] - 1, -1, -1)


class MultisetSpace:
    """Multisets of N languages: row v is the sorted representative of multiset v,
    in lexicographic order (C(K+N-1, N) rows).
    ``_insert[i][t, l]`` is the multiset of i + 1 languages that adds l to t.
    ``_drop[i - 1][p]`` and ``_lang[i - 1][p]`` give, for every multiset t of i + 1
    languages, where t without t[p] sits among the multisets of i languages, and t[p]."""

    def __init__(self, table, n_agents: int):
        self.table, self.n_agents, K = table, n_agents, table.size
        space_size(K, n_agents, multisets=True)
        rows = np.arange(K)[:, None]
        self._insert, self._drop, self._lang = [rows.T], [], []
        for i in range(1, n_agents):
            prev = _codes(rows, K)
            grown = np.column_stack([np.repeat(rows, K, axis=0), np.tile(np.arange(K), len(rows))])
            codes, insert = np.unique(_codes(np.sort(grown), K), return_inverse=True)
            rows = _ids(codes, K, i + 1)
            self._insert.append(insert.reshape(-1, K))
            # A repeated language gives one preimage twice, which the fold's minimum absorbs.
            self._drop.append([np.searchsorted(prev, _codes(np.delete(rows, p, axis=1), K))
                               for p in range(i + 1)])
            self._lang.append(list(rows.T.copy()))
        self.rows, self.size = rows, len(rows)

    def all_ids(self) -> np.ndarray:
        return self.rows

    def expand(self, costs: np.ndarray) -> np.ndarray:
        """(B, size) joint costs from (B, N, K) per-agent costs, each the least over
        the assignments of the multiset's languages to agents, folded agent by agent.
        Each stage holds (multisets, B) rows, so every fold copies whole rows."""
        agents = np.ascontiguousarray(costs.transpose(1, 2, 0))
        joint = agents[0]
        for drops, langs, agent in zip(self._drop, self._lang, agents[1:]):
            folded = joint.take(drops[0], axis=0) + agent.take(langs[0], axis=0)
            for drop, lang in zip(drops[1:], langs[1:]):
                np.minimum(folded, joint.take(drop, axis=0) + agent.take(lang, axis=0), out=folded)
            joint = folded
        return joint.T


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


def _settle(graph: tuple, values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Pull ``values`` (last axis by state) over the graph until nothing changes: a pull
    gives every state ``ufunc`` over the values at the targets of its edges."""
    starts, dsts = graph
    while not np.array_equal(
            values, pulled := ufunc.reduceat(np.take(values, dsts, axis=-1), starts, axis=-1)):
        values = pulled
    return values


def _reaching(free: tuple, new: np.ndarray) -> np.ndarray:
    """(V, C) states, per column, that reach a ``new`` state of that column by free moves.
    The columns are packed 64 to a word, so a pull moves V words, not V * C booleans."""
    V, C = new.shape
    padded = np.zeros((V, -(-C // 64) * 64), dtype=bool)
    padded[:, :C] = new
    words = np.packbits(padded, bitorder="little").view(np.uint64).reshape(V, -1).T
    words = _settle(free, words, np.bitwise_or)
    bits = np.unpackbits(np.ascontiguousarray(words.T).view(np.uint8), bitorder="little")
    return bits.view(bool).reshape(V, -1)[:, :C]


def _alike(probs: np.ndarray) -> bool:
    """Whether per-agent probabilities agree, or per-pair ones off the diagonal (each
    agent's own entry): what every agent reads of the others is then the same."""
    shared = probs if probs.ndim == 1 else probs[~np.eye(len(probs), dtype=bool)]
    return bool((shared == shared[0]).all())


class _ChainModel:
    """Shared scaffolding for the two dynamics.

    A dynamic supplies one hook, ``per_agent_dists(ids, eps)``: for a (V, N)
    batch of states, the (V, N, K) next-language distribution of every agent,
    and its mutation support ``_mutants``. Agents update independently given the
    state, so the kernel, the transition rows and probabilities, the resistances
    and the recurrent classes all derive from them. Each per-agent probability must
    be affine in epsilon, which makes its resistance (its epsilon-exponent) 0 where
    it is positive at epsilon 0, 1 where it is positive only for epsilon in (0, 1),
    which is on the mutation support, and inf where it is always zero. The search
    lumps the chain onto multisets, so the hook must commute with agent permutations
    whenever the probe's probabilities agree (always, for a chain without ``_probs``).
    """

    _probs: np.ndarray | None = None  # the revision or neighbour probabilities the hook reads
    _mutants: np.ndarray  # [l, k]: a mutant of language l can draw language k

    def __init__(self, table: LanguageTable, n_agents: int):
        self.table = table
        self.n_agents = n_agents

    @cached_property
    def space(self) -> StateSpace:
        """The full state space; built, and checked against the cap, on first use."""
        return StateSpace(self.table, self.n_agents)

    def per_agent_dists(self, ids: np.ndarray, eps: float) -> np.ndarray:
        """(V, N, K) next-language distribution per agent for (V, N) states."""
        raise NotImplementedError

    def _resistances(self, ids: np.ndarray) -> np.ndarray:
        """(V, N, K) float32 per-agent resistances for (V, N) states: 0 where the probe's hook
        is positive at epsilon 0, else 1 on the mutation support and inf off it. The probe
        sets every probability below 1 to 1/2: which moves are possible depends only on which
        are 1, and a tiny one could underflow to 0.0 in a product (5e-324 / 2 does)."""
        probe = copy.copy(self)
        if self._probs is not None:
            probe._probs = np.where(self._probs == 1.0, 1.0, 0.5)
        free = probe.per_agent_dists(ids, 0.0) > 0.0
        return np.where(free, np.float32(0),
                        np.where(self._mutants[ids], np.float32(1), np.float32(_INF)))

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
        """Dense one-step transition matrix at a fixed epsilon, filled _GTH_BLOCK rows at a
        time. Raises CapExceededError before allocating if what a sweep holds exceeds
        physical memory: the kernel, which GTH eliminates in place, and the solver's scratch
        buffer, together V**2 + _gth_scratch(V) doubles."""
        V, K = self.space.size, self.table.size
        if (V * V + _gth_scratch(V)) * 8 > _physical_memory():
            raise CapExceededError(f"a dense kernel on {V} states and the GTH solver's "
                                   "scratch buffer would not fit in physical memory")
        dists, kernel = self.per_agent_dists(self.space.all_ids(), eps), np.empty((V, V // K, K))
        for r in range(0, V, _GTH_BLOCK):  # the last agent's factors multiply into the rows
            np.multiply(_outer(dists[r:r + _GTH_BLOCK, :-1], np.multiply)[:, :, None],
                        dists[r:r + _GTH_BLOCK, -1, None], out=kernel[r:r + _GTH_BLOCK])
        return kernel.reshape(V, V)

    def resistance_matrix(self) -> np.ndarray:
        """(V, V) float32 matrix of one-step resistances (inf = impossible)."""
        return _outer(self._resistances(self.space.all_ids()), np.add)

    def _check_lumpable(self) -> None:
        """Refuse (ValueError) a localized chain with some off-diagonal p_ij = 1 and some not."""
        if self._probs is not None and not _alike(self._probs == 1.0):
            raise ValueError("the search needs agents alike: the off-diagonal neighbour "
                             "probabilities must be 1 for every pair of agents or for none")

    @cached_property
    def _search(self) -> tuple:
        """(multiset space, closed classes of the eps=0 chain as multiset indices and as the
        labelled indices of their sorted representatives, their language ids or None,
        per-agent costs, free-move graph as each state's first edge and the edge targets).
        The multisets, built and checked against the cap, lump the probe unless
        ``_check_lumpable`` refuses it. Language ids need every class homogeneous."""
        self._check_lumpable()
        space, N = MultisetSpace(self.table, self.n_agents), self.n_agents
        ids = space.all_ids()
        # Per-agent resistances as small integers; an impossible move costs N + 1, so that
        # its sums over the agents exceed N without overflowing.
        cost = np.nan_to_num(self._resistances(ids), copy=False, posinf=N + 1).astype(
            np.min_scalar_type(N * (N + 1)))
        # Free moves grow one agent at a time: each partial move is extended by every
        # language that agent can adopt at no cost. Before each agent, agent orders that
        # reach one partial multiset are merged by a sort (numpy 2's np.unique hashes int64
        # keys, which is far slower at these sizes), and at the end once more with a self-loop
        # at every state, which changes no reachability and gives every state an edge each way.
        srcs, dsts = np.arange(space.size), np.zeros(space.size, dtype=np.int64)
        for i in range(N):
            pairs = np.sort(srcs * space.size + dsts)
            srcs, dsts = np.divmod(pairs[np.diff(pairs, prepend=-1) > 0], space.size)
            edge, lid = np.nonzero(cost[srcs, i] == 0)
            srcs, dsts = srcs[edge], space._insert[i][dsts[edge], lid]
        states = np.arange(space.size)
        pairs = np.sort(np.append(srcs * space.size + dsts, states * (space.size + 1)))
        srcs, dsts = np.divmod(pairs[np.diff(pairs, prepend=-1) > 0], space.size)
        free = np.searchsorted(srcs, states), dsts
        order = np.argsort(dsts, kind="stable")
        back = np.searchsorted(dsts[order], states), srcs[order]
        low = _settle(free, states, np.minimum)
        high = _settle(free, low, np.maximum)
        roots = np.where((low == states) & (high == states), states, -1)
        label = _settle(back, roots, np.maximum)
        closed = np.flatnonzero(label >= 0)
        closed = closed[np.argsort(label[closed], kind="stable")]
        cuts = np.flatnonzero(np.diff(label[closed])) + 1
        classes = [cls.tolist() for cls in np.split(closed, cuts)]
        heads = ids[[cls[0] for cls in classes]]
        homogeneous = all(len(cls) == 1 for cls in classes) and (heads.T == heads[:, 0]).all()
        lang_ids = heads[:, 0].tolist() if homogeneous else None
        codes = _codes(ids, self.table.size)
        return space, classes, [codes[cls].tolist() for cls in classes], lang_ids, cost, free

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
        to such a state. Each level takes one matrix product per c (a float32 mask of
        the entries <= c against the states within L - c) over row blocks of the
        resistance matrix, each folded anew from the per-agent costs for the rows still open.
        No move costs more than N, so the search stops after N levels in a row that add no state.
        """
        space, classes, labelled, lang_ids, cost, free = self._search
        V, N = space.size, self.n_agents
        unreached = np.iinfo(np.int32).max
        dist = np.full((V, len(classes)), unreached, dtype=np.int32)
        new = np.zeros(dist.shape, dtype=bool)
        for j, cls in enumerate(classes):
            new[cls, j] = True
        rows, level, idle = max(1, _BLOCK_ENTRIES // V), 0, 0
        while True:
            idle = 0 if new.any() else idle + 1
            # A state that reaches one reached earlier was itself reached earlier.
            dist[_reaching(free, new) & (dist == unreached)] = level
            open_rows = np.flatnonzero((dist == unreached).any(axis=1))
            if idle == N or open_rows.size == 0:
                break
            level += 1
            within = [(dist <= level - c).astype(np.float32) for c in range(1, min(level, N) + 1)]
            for at in np.split(open_rows, range(rows, open_rows.size, rows)):
                block = space.expand(cost[at])
                for c, target in enumerate(within, 1):
                    new[at] |= (block <= c).astype(np.float32) @ target > 0
            new &= dist == unreached
        r = np.array([dist[cls].min(axis=0) for cls in classes])
        return ResistanceGraph(labelled, np.where(r == unreached, _INF, r), lang_ids)


class ImitationChain(_ChainModel):
    """Exact chain of the global imitation-with-mutation dynamics."""

    dynamic = "imitation"

    def __init__(self, table: LanguageTable, params: ImitationParams):
        super().__init__(table, params.n_agents)
        self.params = params
        self._probs = np.asarray(params.revision_probs)
        self._disk_unif = np.zeros((table.size, table.size))
        for lid, members in enumerate(table.disks(params.d)):
            self._disk_unif[lid, members] = 1.0 / members.size
        self._mutants = self._disk_unif > 0.0  # a mutant draws from the disk around its language

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

    Agent i compares itself, and each other agent j with probability p_ij (Q, on a unit
    diagonal); mutations draw from all K languages. i copies j with probability Q_ij E[1/Y],
    Y the members tying j (1/Y = 0 if one is fitter). As 1/Y = int_0^1 t^(Y-1) dt, E[1/Y] =
    int_0^1 prod_{k != j} (1 - Q_ik [f_k >= f_j] + Q_ik [f_k = f_j] t) dt = sum_d c_d / (d + 1),
    c_d the coefficients of t^d in the product.
    """

    dynamic = "localized"

    def __init__(self, table: LanguageTable, params: LocalParams):
        super().__init__(table, params.n_agents)
        self.params = params
        others = ~np.eye(self.n_agents, dtype=bool)
        self._probs = np.where(others, params.neighbor_probs, 1.0)  # each agent compares itself
        self._mutants = np.ones((table.size,) * 2, dtype=bool)  # mutants draw from all K languages

    def per_agent_dists(self, ids: np.ndarray, eps: float) -> np.ndarray:
        V, N, K, q = ids.shape[0], self.n_agents, self.table.size, self._probs
        fit = self.table.fitness_scaled_ids(ids)
        others = ~np.eye(N, dtype=bool)
        ge = 1.0 * ((fit.T[:, :, None] >= fit) & others[:, None])  # (k, V, j): k != j, f_k >= f_j
        eq = 1.0 * ((fit.T[:, :, None] == fit) & others[:, None])  # (k, V, j): k != j, f_k = f_j
        c = np.zeros((N + 1, V, N, N))  # c[d, v, i, j]: coefficient of t^d in i's product for j
        c[0] = 1.0
        for k in range(N):  # times agent k's factor a + b t, degree k + 1 at most, in place
            a, b = 1.0 - q[:, k, None] * ge[k, :, None], q[:, k, None] * eq[k, :, None]
            for d in range(k + 1, 0, -1):
                c[d] *= a
                c[d] += c[d - 1] * b
            c[0] *= a
        shares = q * np.divide(c, np.arange(1, N + 2).reshape(-1, 1, 1, 1), out=c).sum(axis=0)
        del c, ge, eq, a, b  # freed before the scatter, so a sweep's heap stays small
        slots = (np.arange(V * N).reshape(V, N, 1) * K + ids[:, None, :]).ravel()
        copied = np.bincount(slots, shares.ravel(), minlength=V * N * K).reshape(V, N, K)
        return np.add((1.0 - eps) * copied, eps / K, out=copied)


def make_chain(table: LanguageTable, params: ImitationParams | LocalParams) -> _ChainModel:
    if isinstance(params, ImitationParams):
        return ImitationChain(table, params)
    return LocalizedChain(table, params)


# -- stationary distributions -------------------------------------------------


def _gth_blocks(n: int) -> list[tuple[int, int, int]]:
    """(hi, lo, product chunk rows) of each GTH block [lo, hi), top block first. Chunks are
    _GTH_BLOCK rows, a multiple of 8, and lo is chunked only when it is one too."""
    los = [max(1, lo) for lo in range(n - _GTH_BLOCK, 1 - _GTH_BLOCK, -_GTH_BLOCK)]
    return [(hi, lo, min(lo, _GTH_BLOCK) if lo % 8 == 0 else lo) for hi, lo in zip([n] + los, los)]


def _gth_scratch(n: int) -> int:
    """Doubles in the GTH scratch buffer: the most any block needs for one group product
    beside its panel, or for one product chunk."""
    return max([0] + [max(_GTH_GROUP * n + (hi - lo) * lo, rows * lo)
                      for hi, lo, rows in _gth_blocks(n)])


# an underflowed kernel overflows to inf or NaN, which the exit-mass and residual checks refuse
@np.errstate(over="ignore", invalid="ignore")
def _gth_stationary(A: np.ndarray) -> np.ndarray:
    """Stationary vector by blocked GTH state elimination, overwriting the float64 kernel A.

    Censoring state e folds the two-leg paths i -> e -> j into the remaining
    chain: the incoming column is scaled by the expected-visits factor 1/s
    (s = e's total exit probability toward lower states) and the outer
    product with e's raw outgoing row is added. States are eliminated from
    the highest index down, one block [lo, hi) at a time. Its pivots are folded
    by rank-1 updates into the block rows (rows below lo never feed them) and
    into the coupling panel A[:lo, lo:hi], a contiguous transposed copy written
    back for the back-substitution, one group of _GTH_GROUP rows at a time from
    the top down: a group takes every pivot above it, then eliminates its own
    rows, so a pivot updates 16 cached rows rather than every row below it. The
    leading quadrant then receives one matrix product in row chunks. Per entry
    this is the arithmetic of rank-1 folds in pivot order and one whole product
    per block, so the vector does not depend on the layout, bit for bit. That
    needs each chunk to round like the whole product: numpy's OpenBLAS rounds
    the last lo % 8 columns differently for different row counts, and numpy
    hands one-row products to gemv, so chunks are multiples of 8 rows, and lo
    is chunked only when it is a multiple of 8. Only additions, multiplications
    and divisions of nonnegative numbers occur, so entries keep componentwise
    relative accuracy regardless of the spectral gap.

    Every other array is a view of one scratch buffer of _gth_scratch(n) doubles: a
    group's rank-1 product beside the panel, or one product chunk.
    """
    n = A.shape[0]
    scratch = np.empty(_gth_scratch(n))

    def buf(rows: int, cols: int) -> np.ndarray:
        return scratch[:rows * cols].reshape(rows, cols)

    for hi, lo, rows in _gth_blocks(n):
        b = hi - lo
        s = np.empty(b)
        P = scratch[scratch.size - b * lo:].reshape(b, lo)
        P[:] = A[:lo, lo:hi].T
        for g in range(b, 0, -_GTH_GROUP):  # the group is block rows [g0, g)
            g0 = max(0, g - _GTH_GROUP)
            for t in range(b - 1, g0 - 1, -1):
                e, m = lo + t, min(t, g)  # pivot e updates block rows [g0, m)
                if t < g:
                    s[t] = A[e, :e].sum()
                    if not s[t] > 0.0:
                        raise ConvergenceError("kernel is reducible (an eliminated state "
                                               "cannot reach lower states)")
                    P[t] /= s[t]
                R = A[lo + g0:lo + m]
                R[:, e] /= s[t]
                R[:, :e] += np.multiply(R[:, e, None], A[e, None, :e], out=buf(m - g0, e))
                P[g0:m] += np.multiply(A[e, lo + g0:lo + m, None], P[t], out=buf(m - g0, lo))
        A[:lo, lo:hi] = P.T
        T, U, V = A[:lo, :lo], A[:lo, lo:hi], A[lo:hi, :lo]
        for r in range(0, lo, rows):
            T[r:r + rows] += np.matmul(U[r:r + rows], V, out=buf(min(rows, lo - r), lo))
    mu = np.empty(n)
    mu[0] = 1.0
    for j in range(1, n):
        mu[j] = mu[:j] @ A[:j, j]
    return mu / mu.sum()


def _checked(mu: np.ndarray, image: np.ndarray) -> np.ndarray:
    residual = float(np.abs(image - mu).sum())
    if not residual <= 1e-9:  # NaN fails too
        raise ConvergenceError(f"stationary residual {residual} above tolerance")
    return mu


def stationary(kernel: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of an irreducible aperiodic kernel.

    A direct GTH elimination on a copy of the kernel, exact to roundoff regardless
    of the spectral gap; the result is residual-checked and raises ConvergenceError
    when the L1 residual exceeds 1e-9.
    """
    mu = _gth_stationary(np.array(kernel, dtype=np.float64))
    return _checked(mu, mu @ kernel)


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


def _in_tree_weights(weights: np.ndarray) -> np.ndarray:
    """Weight of the cheapest spanning in-tree into every node (inf where none), from one
    Chu-Liu/Edmonds contraction without a root. Every node pays for its cheapest out-edges,
    whose weight is then subtracted from all its out-edges; the sets these edges connect
    strongly (their cycles, merged where they meet) contract, each to one node whose
    out-edges are the least of its members', until none is left. The tree into r weighs all
    that was paid less what the nodes holding r paid. A node with no finite out-edge pays
    nothing and never contracts: only roots inside it have a tree, and none has one when two
    such nodes are left."""
    w = np.array(weights, dtype=float)
    group, own, total = np.arange(len(w)), np.zeros(len(w)), 0.0
    while True:
        n = len(w)
        np.fill_diagonal(w, _INF)
        paid = w.min(axis=1)
        sink = paid == _INF
        paid[sink] = 0.0
        total, own = total + paid.sum(), own + paid[group]
        w -= paid[:, None]
        # reach[u, v]: cheapest out-edges lead from u to v; nodes that reach each other form
        # one set, named by its least node. A self-loop gives every node a first edge.
        srcs, dsts = np.nonzero((w == 0.0) | np.eye(n, dtype=bool))
        reach = _reaching((np.searchsorted(srcs, np.arange(n)), dsts), np.eye(n, dtype=bool))
        name = (reach & reach.T).argmax(axis=1)
        named = name == np.arange(n)
        if named.all():
            break
        node = (np.cumsum(named) - 1)[name]
        order = np.argsort(node, kind="stable")
        starts = np.searchsorted(node[order], np.arange(node.max() + 1))
        w = np.minimum.reduceat(np.minimum.reduceat(w[order], starts, axis=0)[:, order],
                                starts, axis=1)
        group = node[group]
    sinks = np.flatnonzero(sink)
    return np.where((sinks.size == 1) & (group == sinks[:1]), total - own, _INF)


def min_in_arborescence(weights: np.ndarray, root: int) -> float:
    """Weight of the cheapest spanning tree with a directed path from every node into root.
    ``weights[i, j]`` is the cost of edge i -> j (inf where absent; the diagonal is ignored),
    and every non-root node keeps one outgoing edge. Raises ValueError when none is finite."""
    weight = _in_tree_weights(weights)[root]
    if weight == _INF:
        raise ValueError(f"no finite-weight arborescence into node {root}")
    return float(weight)


def stochastic_potential(rg: ResistanceGraph) -> np.ndarray:
    """Per-class stochastic potential: the minimum arborescence weight into each class,
    all from one contraction. Raises ValueError when some class has no finite tree."""
    gamma = _in_tree_weights(rg.r)
    if np.isinf(gamma).any():
        raise ValueError(f"no finite-weight arborescence into node {gamma.argmax()}")
    return gamma


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
        return _indented_json(vars(self))


def _indented_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for str keys, without json's slow indent."""
    if type(value) is int:
        return repr(value)
    inner = indent + "  "
    if isinstance(value, dict):  # a key that is not a str raises TypeError
        items, ends = [f"{_quoted(key)}: {_indented_json(v, inner)}"
                       for key, v in sorted(value.items())], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_indented_json(v, inner) for v in value], "[]"
    else:  # json.dumps of a str returns its encode_basestring_ascii
        return json.dumps(value)
    return f"{ends[0]}{inner}{f',{inner}'.join(items)}{indent}{ends[1]}" if items else ends


def optimal_state_indices(space: StateSpace) -> np.ndarray:
    """Indices of the homogeneous states on aligned languages."""
    aligned = space.table.aligned_ids[:, None]
    return _codes(np.repeat(aligned, space.n_agents, axis=1), space.table.size)


def sweep_stationary(model: _ChainModel, epsilons) -> list[dict]:
    """Exact stationary solve per epsilon with mass bookkeeping on optimal states.

    The space is checked against the cap and every epsilon validated before the first kernel
    is built, and GTH overwrites each. A failed solve raises ConvergenceError naming its epsilon.
    """
    space, epsilons = model.space, tuple(epsilons)  # a one-shot iterable is read twice
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"sweep epsilons must lie in (0, 1), got {eps}")
    optimal, ids, rows = optimal_state_indices(space), space.all_ids(), []
    for eps in epsilons:
        try:  # the residual of stationary(): kernel row v is the outer product of the agents'
            # factors[v, i], so mu @ kernel is mu folded into agent 0, the last agent a matmul
            mu = _gth_stationary(model.kernel(eps))
            factors = model.per_agent_dists(ids, eps)
            factors[:, 0] *= mu[:, None]
            _checked(mu, (_outer(factors[:, :-1], np.multiply).T @ factors[:, -1]).ravel())
        except ConvergenceError as exc:
            raise ConvergenceError(f"eps {eps!r}: {exc}; every eps in (0, 1) gives an irreducible "
                                   "chain, so this one's kernel underflows float64") from None
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
    A localized chain with some off-diagonal p_ij = 1 and some not is refused
    (ValueError) before the sweep. The report records the probabilities as
    given, or their one value when every agent (pair) shares it.
    """
    table, N = model.table, model.n_agents
    imitation = model.dynamic == "imitation"
    given = np.array(model.params.revision_probs if imitation else model.params.neighbor_probs)
    prob = float(given.flat[1]) if _alike(given) else given.tolist()  # entry 1 is off the diagonal
    epsilons = tuple(epsilons)
    model._check_lumpable()
    sweep = sweep_stationary(model, epsilons) if epsilons else []

    rg = model.least_resistance()
    gamma = stochastic_potential(rg)
    homogeneous = rg.lang_ids is not None
    labels = rg.lang_ids if homogeneous else [min(cls) for cls in rg.classes]

    stable = sorted(labels[i] for i in np.flatnonzero(gamma == gamma.min()))
    optimal = sorted(int(x) for x in table.aligned_ids) if homogeneous else []

    notes, verdict = [], "pass" if homogeneous and set(stable) == set(optimal) else "fail"
    if N == 2:
        verdict = "degenerate"
        notes.append("N=2 is degenerate: a lone mutant always ties the residents, so every "
                     "one-mutation transition succeeds and the minimizer set is not informative")
    if table.m != table.n:
        notes.append("m != n: the equality of stable and optimal sets is only fully established "
                     "for m = n; treat this report as an empirical finding")

    resistances = [[int(labels[i]), int(labels[j]), int(r)]  # int(inf) raises OverflowError
                   for i, row in enumerate(rg.r.tolist()) for j, r in enumerate(row) if i != j]
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
        state_count=table.size ** N,
        classes=[int(x) for x in labels],
        class_states=[list(map(int, cls)) for cls in rg.classes],
        classes_homogeneous=homogeneous,
        resistances=resistances,
        gamma={str(labels[i]): int(gamma[i]) for i in range(rg.n_classes)},
        stable_set=[int(x) for x in stable],
        optimal_set=[int(x) for x in optimal],
        epsilon_sweep=sweep,
        verdict=verdict,
        notes=notes,
    )
