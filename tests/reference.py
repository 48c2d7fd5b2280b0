"""Scalar reference implementations the tests check the package against.

One language at a time, in plain Python integers: the speak/hear maps, payoffs
tr(P_a Q_b), Hamming distances and disks, object permutations, fitness and the
potential scaled by (N-1), average fitness as an exact rational; the
replicator field in its textbook form; the localized dynamics'
per-agent distributions by enumerating every comparison set; the minimum
in-arborescence by one Chu-Liu/Edmonds run per root; and per-agent resistances
from two probes of the hook. No program path runs them: the vectorised
``LanguageTable``, the simulator, ``replicator.integrate``,
``LocalizedChain.per_agent_dists``, ``stochastic_potential`` and
``_ChainModel._resistances`` are cross-checked against them.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from signalgame.languages import language_count


@dataclass(frozen=True)
class Language:
    """A (speak, hear) pair of total maps.

    ``speak[i]`` is the symbol produced for object ``i``; ``hear[j]`` is the
    object announced for symbol ``j``.
    """

    m: int
    n: int
    speak: tuple[int, ...]
    hear: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2:
            raise ValueError(f"need m >= 2 and n >= 2, got ({self.m}, {self.n})")
        if len(self.speak) != self.m:
            raise ValueError(f"speak must have length {self.m}, got {len(self.speak)}")
        if len(self.hear) != self.n:
            raise ValueError(f"hear must have length {self.n}, got {len(self.hear)}")
        if not all(0 <= s < self.n for s in self.speak):
            raise ValueError(f"speak entries must lie in [0, {self.n}): {self.speak}")
        if not all(0 <= h < self.m for h in self.hear):
            raise ValueError(f"hear entries must lie in [0, {self.m}): {self.hear}")

    @property
    def id(self) -> int:
        """Canonical integer id (mixed radix, speak-major)."""
        speak_index = sum(s * self.n**i for i, s in enumerate(self.speak))
        hear_index = sum(h * self.m**j for j, h in enumerate(self.hear))
        return speak_index * self.m**self.n + hear_index

    @classmethod
    def from_id(cls, m: int, n: int, lid: int) -> Language:
        count = language_count(m, n)
        if not 0 <= lid < count:
            raise ValueError(f"id {lid} out of range [0, {count})")
        speak_index, hear_index = divmod(lid, m**n)
        speak = tuple((speak_index // n**i) % n for i in range(m))
        hear = tuple((hear_index // m**j) % m for j in range(n))
        return cls(m, n, speak, hear)


def enumerate_languages(m: int, n: int) -> list[Language]:
    """All languages in canonical id order."""
    return [Language.from_id(m, n, lid) for lid in range(language_count(m, n))]


def _check_same_shape(a: Language, b: Language) -> None:
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError(f"shape mismatch: ({a.m}, {a.n}) vs ({b.m}, {b.n})")


def cross_trace(a: Language, b: Language) -> int:
    """Successful round trips with ``a`` speaking and ``b`` hearing: tr(P_a Q_b)."""
    _check_same_shape(a, b)
    speak = a.speak
    hear = b.hear
    return sum(1 for i in range(a.m) if hear[speak[i]] == i)


def hamming_q(a: Language, b: Language) -> int:
    """Four times the Hamming distance between two languages.

    Each differing map entry flips two matrix cells, so the summed absolute
    matrix difference is 2*(#speak diffs + #hear diffs) and always even.
    """
    _check_same_shape(a, b)
    speak_diffs = sum(1 for x, y in zip(a.speak, b.speak) if x != y)
    hear_diffs = sum(1 for x, y in zip(a.hear, b.hear) if x != y)
    return 2 * (speak_diffs + hear_diffs)


def disk(lang: Language, d: int) -> list[Language]:
    """Languages within Hamming distance d of ``lang``, in canonical id order."""
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    return [
        other
        for other in enumerate_languages(lang.m, lang.n)
        if hamming_q(lang, other) <= 4 * d
    ]


def is_aligned(lang: Language) -> bool:
    """True iff the language achieves the maximum self-trace min(m, n)."""
    return cross_trace(lang, lang) == min(lang.m, lang.n)


def permute(lang: Language, sigma: tuple[int, ...]) -> Language:
    """Relabel objects by the permutation sigma (object i becomes sigma[i])."""
    if sorted(sigma) != list(range(lang.m)):
        raise ValueError(f"sigma must be a permutation of range({lang.m}): {sigma}")
    inverse = [0] * lang.m
    for i, s in enumerate(sigma):
        inverse[s] = i
    speak = tuple(lang.speak[inverse[i]] for i in range(lang.m))
    hear = tuple(sigma[h] for h in lang.hear)
    return Language(lang.m, lang.n, speak, hear)


def delta_scaled(lang: Language, other: Language, N: int) -> int:
    """(N-1)-scaled fitness gap of a lone ``other``-mutant in a ``lang`` society.

    Positive means the mutant is strictly less fit than the residents; <= 0 is
    exactly the condition under which one mutation can carry the homogeneous
    state across (for N >= 3).
    """
    _check_same_shape(lang, other)
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    return (N - 2) * (
        2 * cross_trace(lang, lang) - cross_trace(lang, other) - cross_trace(other, lang)
    )


def trace_raising_neighbor(lang: Language) -> Language:
    """A distance-<=1 language with self-trace exactly one higher.

    Construction: leave every contributing object/symbol pair untouched, then
    wire the smallest non-contributing object to the smallest unused symbol in
    both maps. Requires an unaligned input.
    """
    contributing = [i for i in range(lang.m) if lang.hear[lang.speak[i]] == i]
    if len(contributing) == min(lang.m, lang.n):
        raise ValueError("language is already aligned; no trace-raising neighbor exists")
    used_symbols = {lang.speak[i] for i in contributing}
    i_new = min(i for i in range(lang.m) if i not in contributing)
    j_new = min(j for j in range(lang.n) if j not in used_symbols)
    speak = list(lang.speak)
    hear = list(lang.hear)
    speak[i_new] = j_new
    hear[j_new] = i_new
    return Language(lang.m, lang.n, tuple(speak), tuple(hear))


@dataclass(frozen=True)
class Profile:
    """The joint state of the society: one language per agent."""

    langs: tuple[Language, ...]

    def __post_init__(self) -> None:
        if len(self.langs) < 2:
            raise ValueError(f"need at least 2 agents, got {len(self.langs)}")
        m, n = self.langs[0].m, self.langs[0].n
        for lang in self.langs[1:]:
            if (lang.m, lang.n) != (m, n):
                raise ValueError("all languages in a profile must share (m, n)")

    @property
    def n_agents(self) -> int:
        return len(self.langs)

    @property
    def m(self) -> int:
        return self.langs[0].m

    @property
    def n(self) -> int:
        return self.langs[0].n

    def ids(self) -> tuple[int, ...]:
        return tuple(lang.id for lang in self.langs)

    @classmethod
    def from_ids(cls, m: int, n: int, ids) -> Profile:
        return cls(tuple(Language.from_id(m, n, int(i)) for i in ids))


def fitness_scaled(profile: Profile, i: int) -> int:
    """Agent i's expected payoff against a uniform opponent, scaled by (N-1)."""
    if not 0 <= i < profile.n_agents:
        raise IndexError(f"agent index {i} out of range [0, {profile.n_agents})")
    own = profile.langs[i]
    total = 0
    for j, other in enumerate(profile.langs):
        if j != i:
            total += cross_trace(own, other) + cross_trace(other, own)
    return total


def potential_scaled(profile: Profile) -> int:
    """The potential on the same (N-1) scale as fitness_scaled.

    The sum over unordered agent pairs {a, b} of the pair's payoff
    cross_trace(a, b) + cross_trace(b, a), which is half the sum of all scaled
    fitnesses. On this scale a unilateral deviation moves the potential by
    exactly the deviator's fitness_scaled change.
    """
    return sum(cross_trace(a, b) + cross_trace(b, a)
               for a, b in itertools.combinations(profile.langs, 2))


def avg_fitness(profile: Profile) -> Fraction:
    """Average societal fitness W as an exact rational."""
    N = profile.n_agents
    total = sum(fitness_scaled(profile, i) for i in range(N))
    return Fraction(total, N * (N - 1))


def is_optimal(profile: Profile) -> bool:
    """True iff the profile is homogeneous on an aligned language."""
    first = profile.langs[0]
    return all(lang == first for lang in profile.langs) and is_aligned(first)


def mean_fitness(x: np.ndarray, payoff: np.ndarray) -> float:
    """Average fitness of the mixed state: x' A x."""
    x = np.asarray(x, dtype=float)
    return float(x @ payoff @ x)


def replicator_rhs(x: np.ndarray, payoff: np.ndarray) -> np.ndarray:
    """Time derivative of each share: grows with excess fitness over the mean."""
    x = np.asarray(x, dtype=float)
    fitness = payoff @ x
    return x * (fitness - x @ fitness)


def reference_localized_dists(table, probs: np.ndarray, ids: np.ndarray, eps: float) -> np.ndarray:
    """(V, N, K) next-language distribution per agent of the localized dynamics, by
    enumerating every comparison set: agent i always compares itself, and each other
    agent j enters independently with probability probs[i, j]. A set's weight is
    split evenly over its fittest members, and a mutation draws uniformly from all K
    languages."""
    N = ids.shape[1]
    fit = table.fitness_scaled_ids(ids)
    rows = np.arange(ids.shape[0])
    copied = np.zeros((ids.shape[0], N, table.size))
    for i in range(N):
        others = [j for j in range(N) if j != i]
        for included in itertools.product([False, True], repeat=N - 1):
            weight = 1.0
            members = [i]
            for j, inc in zip(others, included):
                p = probs[i, j]
                weight *= p if inc else 1.0 - p
                if inc:
                    members.append(j)
            if weight == 0.0:
                continue
            local = fit[:, members]
            best = local == local.max(axis=1, keepdims=True)
            share = weight / best.sum(axis=1)
            for col, j in enumerate(members):
                copied[rows, i, ids[:, j]] += np.where(best[:, col], share, 0.0)
    return (1.0 - eps) * copied + eps / table.size


def reference_min_in_arborescence(weights: np.ndarray, root: int) -> float:
    """Weight of the cheapest spanning in-tree into ``root``, by Chu-Liu/Edmonds with that
    root: every non-root node pays for its cheapest out-edge, which is then subtracted
    from all its out-edges, and each cycle the chosen edges close contracts to one node
    whose out-edges are the least of its members', until no cycle is left. Raises
    ValueError when no finite tree exists."""
    w = np.array(weights, dtype=float)
    w[root] = np.inf
    total, target = 0.0, root
    while True:
        n = len(w)
        np.fill_diagonal(w, np.inf)
        succ = w.argmin(axis=1).tolist()
        paid = w[np.arange(n), succ]
        paid[root] = 0.0
        total += paid.sum()
        if not total < np.inf:
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


def reference_resistances(model, ids: np.ndarray) -> np.ndarray:
    """(V, N, K) float32 per-agent resistances of a chain for (V, N) states from two probes
    of its hook: 0 where a move is possible at epsilon 0, 1 where it is possible at
    epsilon 1/2 (an affine probability positive anywhere in (0, 1) is positive there),
    inf elsewhere. The probes set every probability below 1 to 1/2, so none underflows."""
    probe = copy.copy(model)
    if model._probs is not None:
        probe._probs = np.where(model._probs == 1.0, 1.0, 0.5)
    free = probe.per_agent_dists(ids, 0.0) > 0.0
    possible = probe.per_agent_dists(ids, 0.5) > 0.0
    return np.where(free, np.float32(0), np.where(possible, np.float32(1), np.float32(np.inf)))
