"""Languages of the signaling game, tabulated over one (m, n).

A language pairs a speaking map (object -> symbol) with a hearing map
(symbol -> object). Both maps are total, which is the index-vector form of a
pair of binary row-stochastic matrices (P, Q). A round trip through a speaker
using ``a`` and a hearer using ``b`` succeeds on object ``i`` exactly when
``hear[b][speak[a][i]] == i``; counting successes gives tr(P_a Q_b).

Languages are numbered by a canonical id (mixed radix, speak-major).
``LanguageTable`` holds the maps, cross traces, payoffs and Hamming distances
of every language as arrays over these ids. Fitness values are exact integers
scaled by (N-1), so that argmax sets, ties and the potential identity can be
asserted with zero tolerance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CapExceededError

MAX_LANGUAGES = 8192  # the largest language set LanguageTable tabulates


def language_count(m: int, n: int) -> int:
    """Number of languages on m objects and n symbols."""
    return m**n * n**m


class LanguageTable:
    """Vectorized lookup tables over the full language set of one (m, n).

    Everything downstream (simulation, exact chain analysis, replicator
    payoffs) works on canonical ids through these arrays. Tables are built
    once with numpy broadcasting; the tests check them against scalar
    one-language-at-a-time versions in ``tests/reference.py``.
    """

    def __init__(self, m: int, n: int):
        if m < 2 or n < 2:
            raise ValueError(f"need m >= 2 and n >= 2, got ({m}, {n})")
        # m^n n^m >= 2^max(m, n), so a side of the cap's bit length is refused uncounted
        if max(m, n) >= MAX_LANGUAGES.bit_length() or language_count(m, n) > MAX_LANGUAGES:
            # not the count itself: str() refuses an int of more than 4,300 digits
            raise CapExceededError(f"(m, n) = ({m}, {n}) has more languages than the cap of "
                                   f"{MAX_LANGUAGES}; too large to tabulate")
        self.m = m
        self.n = n
        self.size = count = language_count(m, n)
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
