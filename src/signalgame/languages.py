"""Languages of the signaling game, tabulated over one (m, n).

A language pairs a speaking map (object -> symbol) with a hearing map
(symbol -> object). Both maps are total, which is the index-vector form of a
pair of binary row-stochastic matrices (P, Q). A round trip through a speaker
using ``a`` and a hearer using ``b`` succeeds on object ``i`` exactly when
``hear[b][speak[a][i]] == i``; counting successes gives tr(P_a Q_b).

Languages are numbered by a canonical id (mixed radix, speak-major).
``LanguageTable`` holds the maps and payoffs of every language as arrays over
these ids, and builds cross traces and Hamming distances on first read. Fitness
values are exact integers scaled by (N-1), so that argmax sets, ties and the
potential identity can be asserted with zero tolerance.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

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
    one-language-at-a-time versions in ``tests/reference.py``. The K x K
    payoff is held from the start; ``cross`` and ``hamming_q``, which no
    command reads whole, are built on first read; ``disks`` holds int16 ids
    (below 2^15 by the cap) and builds no K x K table.
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
        self.size = language_count(m, n)
        # Ids are speak-major, id = s * m^n + h over the n^m speaking maps s and the m^n
        # hearing maps h, so each K x K table is a (speak, hear, speak, hear) block array:
        # one int16 allocation, broadcast from tables over the maps.
        speak_maps = np.stack([np.arange(n**m) // n**i % n for i in range(m)], axis=1)
        hear_maps = np.stack([np.arange(m**n) // m**j % m for j in range(n)], axis=1)
        self.speak = np.repeat(speak_maps, m**n, axis=0).astype(np.int16)
        self.hear = np.tile(hear_maps, (n**m, 1)).astype(np.int16)
        # _trace[s, h] = tr(P_s Q_h) counts the objects i that h returns from s's symbol for i
        self._trace = (hear_maps.T[speak_maps] == np.arange(m)[:, None]).sum(axis=1, dtype=np.int16)
        self._map_q = [2 * (maps[:, None] != maps[None]).sum(axis=2, dtype=np.int16)
                       for maps in (speak_maps, hear_maps)]  # twice the differing entries
        self.payoff = self._blocks(self._trace[:, None, None, :], self._trace.T[None, :, :, None])
        self.aligned_mask = self._trace.ravel() == min(m, n)
        self.aligned_ids = np.flatnonzero(self.aligned_mask)
        self._disks: dict[int, list[np.ndarray]] = {}

    def _blocks(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """left + right as a K x K table; C order, so that the reshape is a view."""
        return np.add(left, right, order="C").reshape(self.size, self.size)

    @cached_property
    def cross(self) -> np.ndarray:
        """cross[a, b] = tr(P_a Q_b), which reads a's speaking map and b's hearing map."""
        S, H = self._trace.shape
        return self._blocks(self._trace[:, None, None, :], np.zeros((H, S, 1), dtype=np.int16))

    @cached_property
    def hamming_q(self) -> np.ndarray:
        """hamming_q[a, b]: twice the map entries where a and b differ."""
        speak_q, hear_q = self._map_q
        return self._blocks(speak_q[:, None, :, None], hear_q[None, :, None, :])

    def disks(self, d: int) -> list[np.ndarray]:
        """Per-language int16 arrays of ids within Hamming distance d (ascending), each
        from its language's rows of the map distances, with no K x K table."""
        if d < 0:
            raise ValueError(f"d must be >= 0, got {d}")
        if d not in self._disks:
            speak_q, hear_q = self._map_q
            self._disks[d] = [np.flatnonzero(row_s[:, None] + row_h <= 4 * d).astype(np.int16)
                              for row_s in speak_q for row_h in hear_q]
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
