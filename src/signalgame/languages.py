"""Languages, payoffs, potential and the mutation geometry of the signaling game.

A language pairs a speaking map (object -> symbol) with a hearing map
(symbol -> object). Both maps are total, which is the index-vector form of a
pair of binary row-stochastic matrices (P, Q). A round trip through a speaker
using ``a`` and a hearer using ``b`` succeeds on object ``i`` exactly when
``b.hear[a.speak[i]] == i``; counting successes gives tr(P_a Q_b).

Fitness values are kept as exact integers scaled by (N-1) so that argmax sets,
ties and the potential identity can be asserted with zero tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapExceededError

MAX_LANGUAGES = 8192  # the largest language set LanguageTable tabulates


def language_count(m: int, n: int) -> int:
    """Number of languages on m objects and n symbols."""
    return m**n * n**m


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


class LanguageTable:
    """Vectorized lookup tables over the full language set of one (m, n).

    Everything downstream (simulation, exact chain analysis, replicator
    payoffs) works on canonical ids through these arrays. Tables are built
    once with numpy broadcasting; the scalar functions above stay the
    reference implementation and the two are cross-checked in tests.
    """

    def __init__(self, m: int, n: int):
        if m < 2 or n < 2:
            raise ValueError(f"need m >= 2 and n >= 2, got ({m}, {n})")
        count = language_count(m, n)
        if count > MAX_LANGUAGES:
            raise CapExceededError(
                f"language set of size {count} exceeds the cap {MAX_LANGUAGES}; "
                f"(m, n) = ({m}, {n}) is too large to tabulate"
            )
        self.m = m
        self.n = n
        self.size = count
        hear_radix = m**n
        ids = np.arange(count)
        speak_index = ids // hear_radix
        hear_index = ids % hear_radix
        self.speak = np.stack(
            [(speak_index // n**i) % n for i in range(m)], axis=1
        ).astype(np.int16)
        self.hear = np.stack(
            [(hear_index // m**j) % m for j in range(n)], axis=1
        ).astype(np.int16)

        # cross[a, b] = tr(P_a Q_b) counts the objects i that b hears back from a's
        # symbol; it and hamming_q add one position at a time in int16, with no
        # (K, K, m) temporary.
        self.cross = np.zeros((count, count), dtype=np.int16)
        for i in range(m):
            self.cross += self.hear.T[self.speak[:, i]] == i
        self.payoff = self.cross + self.cross.T
        self.hamming_q = np.zeros((count, count), dtype=np.int16)
        for col in (*self.speak.T, *self.hear.T):
            self.hamming_q += col[:, None] != col[None, :]
        self.hamming_q *= 2

        self.aligned_mask = np.diagonal(self.cross) == min(m, n)
        self.aligned_ids = np.flatnonzero(self.aligned_mask)
        self._disks: dict[int, list[np.ndarray]] = {}

    def disks(self, d: int) -> list[np.ndarray]:
        """Per-language arrays of ids within Hamming distance d (ascending)."""
        if d < 0:
            raise ValueError(f"d must be >= 0, got {d}")
        if d not in self._disks:
            within = self.hamming_q <= 4 * d
            self._disks[d] = [np.flatnonzero(within[k]) for k in range(self.size)]
        return self._disks[d]

    def fitness_scaled_ids(self, ids: np.ndarray) -> np.ndarray:
        """Scaled fitness of every agent in a profile given as an id vector.

        Also accepts a batch of profiles, shape (..., N); each profile along
        the last axis is scored independently.
        """
        pair = self.payoff[ids[..., :, None], ids[..., None, :]]
        return pair.sum(axis=-1, dtype=np.int64) - self.payoff[ids, ids]


@lru_cache(maxsize=8)
def get_table(m: int, n: int) -> LanguageTable:
    """Shared immutable table for one (m, n); cached because builds are pure."""
    return LanguageTable(m, n)
