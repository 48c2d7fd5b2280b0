"""Seeded simulation of the two evolutionary processes.

Global imitation: each agent independently revises with probability p_i; a
revising agent copies a uniformly chosen member of the previous step's global
fitness argmax with probability 1-eps, and otherwise mutates to a uniform
sample of the Hamming d-disk around its current language. Localized
competition: each agent draws a random neighbourhood (itself always included,
every other agent j independently with probability p_ij), copies a uniform
fittest neighbour with probability 1-eps, and otherwise mutates to a uniform
sample of the full language set. All agents update against the same previous
profile.

Draw-order contract (what makes trajectories reproducible): agents are
processed in index order; each agent draws, in order, (1) its revision
uniform (imitation) or its length-N neighbourhood uniform vector (localized;
the own entry is consumed but ignored), (2) the imitate-vs-mutate uniform,
(3) a single integer index — into the argmax list when imitating, into the
mutation support when mutating. Imitation draws (2) and (3) only happen for
agents that revise. The RNG is ``numpy.random.default_rng(seed)`` (PCG64).

Replay (how ``run`` keeps the contract without a Generator call per draw): it
reads the same PCG64 stream as raw 64-bit blocks. ``random()`` is
``(x >> 11) * 2**-53`` for the next raw value x, so ``random() < p`` exactly
when ``x < ceil(p * 2**53) << 11``, for every p in [0, 1]; ``random(N)`` is N
consecutive values. ``integers(k)`` is Lemire's nearly divisionless method on
``next_uint32`` (Lemire 2019, ACM TOMACS 29(1):3) with PCG64's one-slot buffer
(low half first, high half kept for the next call) and the same rejection
loop; ``k == 1`` draws nothing. On return the caller's generator stands just
after the values consumed, buffer included, so its next draw is the one
per-draw calls would have made. Only PCG64 is covered.

Fitness is scored once per occupied language and profile: ``run`` shares it
between the record of a profile and the step that leaves it. Records hold exact
integer numerators, and the CSV writes their correctly rounded quotients by N
and N(N-1), which equal the floats of the exact fractions; so the draw-order
contract fixes the bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .languages import LanguageTable

_BLOCK = 4096  # raw values fetched at a time


def _below(p: float) -> int:
    """The raw threshold T: ``random() < p`` exactly when the raw value is below T."""
    return math.ceil(p * 2**53) << 11


@dataclass(frozen=True)
class ImitationParams:
    """Mutation probability, mutation radius and per-agent revision probabilities."""

    epsilon: float
    d: int
    revision_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if type(self.d) is not int or self.d < 1:
            raise ValueError(f"mutation radius d must be an integer >= 1, got {self.d!r}")
        if len(self.revision_probs) < 2:
            raise ValueError("need revision probabilities for at least 2 agents")
        if not all(0.0 < p < 1.0 for p in self.revision_probs):
            raise ValueError(f"revision probabilities must lie in (0, 1): {self.revision_probs}")

    @classmethod
    def uniform(cls, epsilon: float, d: int, N: int, p: float) -> ImitationParams:
        return cls(epsilon, d, (p,) * N)

    @property
    def n_agents(self) -> int:
        return len(self.revision_probs)

    @cached_property
    def _thresholds(self) -> tuple[tuple[int, ...], int]:
        """Raw thresholds of the revision draws and of the mutation draw."""
        return tuple(map(_below, self.revision_probs)), _below(self.epsilon)


@dataclass(frozen=True)
class LocalParams:
    """Mutation probability and the N x N neighbour-inclusion matrix.

    Entry (i, j) is the probability that j is observed by i. The diagonal is
    accepted for interface compatibility but ignored: an agent always belongs
    to its own comparison set, so neighbourhoods are never empty.
    """

    epsilon: float
    neighbor_probs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        N = len(self.neighbor_probs)
        if N < 2:
            raise ValueError("need at least 2 agents")
        for row in self.neighbor_probs:
            if len(row) != N:
                raise ValueError("neighbor_probs must be a square matrix")
            if not all(0.0 < p <= 1.0 for p in row):
                raise ValueError(f"neighbour probabilities must lie in (0, 1]: {row}")

    @classmethod
    def uniform(cls, epsilon: float, N: int, p: float) -> LocalParams:
        return cls(epsilon, tuple((p,) * N for _ in range(N)))

    @property
    def n_agents(self) -> int:
        return len(self.neighbor_probs)

    @cached_property
    def _thresholds(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Raw thresholds of the neighbourhood draws (own entry 2**64: always in) and mutation."""
        return tuple(tuple(1 << 64 if j == i else _below(p) for j, p in enumerate(row))
                     for i, row in enumerate(self.neighbor_probs)), _below(self.epsilon)


class _Replay:
    """A PCG64 Generator's draws from raw blocks; ``raw[pos:]`` is not consumed yet."""

    def __init__(self, rng: np.random.Generator):
        self.bitgen = rng.bit_generator
        if type(self.bitgen) is not np.random.PCG64:
            name = type(self.bitgen).__name__
            raise TypeError(f"the draw-order contract covers PCG64 only, not {name}")
        start = self.bitgen.state
        self.has32, self.buf32 = start["has_uint32"], start["uinteger"]
        self.raw: list[int] = []
        self.pos = 0

    def reserve(self, count: int) -> int:
        """Make ``count`` values available after ``pos`` (``raw`` stays the same list)."""
        if len(self.raw) - self.pos < count:
            del self.raw[:self.pos]
            self.raw.extend(self.bitgen.random_raw(max(count, _BLOCK)).tolist())
            self.pos = 0
        return self.pos

    def integers(self, k: int, pos: int) -> tuple[int, int]:
        """``integers(k)`` for k <= 2**32 read at ``pos``: the value and the position after it."""
        while k > 1:
            if self.has32:
                self.has32, u = 0, self.buf32
            else:
                x, pos = self.raw[pos], pos + 1
                self.has32, self.buf32, u = 1, x >> 32, x & 0xFFFFFFFF
            m = u * k
            low = m & 0xFFFFFFFF
            if low >= k or low >= (0x100000000 - k) % k:
                return m >> 32, pos
            # a rejection draws past the reserve of one value per bounded draw
            self.raw.append(self.bitgen.random_raw())
        return 0, pos

    def release(self) -> None:
        """Set the generator where numpy's own draws would have left it."""
        # the state is an LCG of period 2**128: advancing by 2**128 - u steps back u values
        self.bitgen.advance((self.pos - len(self.raw)) % 2**128)
        self.bitgen.state = {**self.bitgen.state, "has_uint32": self.has32, "uinteger": self.buf32}


def _score(ids: list[int], row) -> tuple[dict[int, int], dict[int, int]]:
    """Count the languages of the profile ``ids`` and score each occupied one.

    lf[a] = sum_c n_c row(a)[c] - row(a)[a] is the scaled fitness of every agent
    using language a, where ``row(a)`` is payoff row a.
    """
    counts: dict[int, int] = {}
    for a in ids:
        counts[a] = counts.get(a, 0) + 1
    lf = {}
    for a in counts:
        pay = row(a)
        lf[a] = sum([n * pay[c] for c, n in counts.items()]) - pay[a]
    return counts, lf


def _step_imitation_ids(ids: list[int], lf: dict[int, int], table: LanguageTable,
                        params: ImitationParams, draws: _Replay) -> list[int]:
    """One imitation step from the profile ``ids`` with language fitnesses ``lf``."""
    revise, mutate = params._thresholds
    disks = table.disks(params.d)
    top = max(lf.values())
    argmax_langs = [a for a in ids if lf[a] == top]  # one per fittest agent, in index order
    raw = draws.raw
    pos = draws.reserve(3 * len(ids))
    new = ids.copy()
    for i, a in enumerate(ids):
        if raw[pos] >= revise[i]:
            pos += 1
        elif raw[pos + 1] >= mutate:
            j, pos = draws.integers(len(argmax_langs), pos + 2)
            new[i] = argmax_langs[j]
        else:
            support = disks[a]
            j, pos = draws.integers(support.size, pos + 2)
            new[i] = int(support[j])
    draws.pos = pos
    return new


def _step_localized_ids(ids: list[int], lf: dict[int, int], table: LanguageTable,
                        params: LocalParams, draws: _Replay) -> list[int]:
    """One localized step from the profile ``ids`` with language fitnesses ``lf``."""
    include, mutate = params._thresholds
    N = len(ids)
    raw = draws.raw
    pos = draws.reserve(N * (N + 2))
    new = ids.copy()
    for i in range(N):
        base = pos
        pos += N + 1
        if raw[pos - 1] >= mutate:
            row = include[i]
            local = [a for j, a in enumerate(ids) if raw[base + j] < row[j]]
            top = max([lf[a] for a in local])
            best = [a for a in local if lf[a] == top]
            j, pos = draws.integers(len(best), pos)
            new[i] = best[j]
        else:
            new[i], pos = draws.integers(table.size, pos)
    draws.pos = pos
    return new


@dataclass(slots=True)
class TrajectoryRecord:
    """One recorded profile, with exact integer metrics.

    ``n_aligned / N`` and ``fitness_total / (N(N-1))`` are the CSV's
    ``frac_aligned`` and ``avg_fitness``.
    """

    t: int
    ids: tuple[int, ...]
    n_aligned: int
    fitness_total: int
    majority_id: int
    aligned_counts: tuple[int, ...]


@dataclass
class Trajectory:
    """Time-indexed record of a single seeded run."""

    n_agents: int
    aligned_ids: tuple[int, ...]
    records: list[TrajectoryRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        N = self.n_agents
        pairs = N * (N - 1)
        census = ",".join(f"count_{lid}" for lid in self.aligned_ids)
        lines = [f"t,frac_aligned,avg_fitness,majority_lang_id,{census}"]
        for rec in self.records:
            counts = ",".join(map(str, rec.aligned_counts))
            lines.append(
                f"{rec.t},{rec.n_aligned / N!r},{rec.fitness_total / pairs!r},"
                f"{rec.majority_id},{counts}"
            )
        return "\n".join(lines) + "\n"


def _record_fields(ids: list[int], counts: dict[int, int], lf: dict[int, int],
                   aligned_ids: tuple[int, ...]) -> tuple:
    """Every ``TrajectoryRecord`` field after ``t``, shared by the records of one profile."""
    aligned_counts = tuple([counts.get(a, 0) for a in aligned_ids])
    top = max(counts.values())
    majority_id = min([a for a, n in counts.items() if n == top])  # as bincount().argmax()
    fitness_total = sum([n * lf[a] for a, n in counts.items()])
    return tuple(ids), sum(aligned_counts), fitness_total, majority_id, aligned_counts


def random_profile_ids(table: LanguageTable, N: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform initial profile; one vector draw of N language ids."""
    return rng.integers(0, table.size, size=N)


def run(
    initial: np.ndarray,
    dynamic: str,
    params: ImitationParams | LocalParams,
    horizon: int,
    record_every: int = 1,
    rng: np.random.Generator | int | None = None,
    *,
    table: LanguageTable,
) -> Trajectory:
    """Iterate the chosen step from the id vector ``initial``, recording metrics.

    Records t=0, every ``record_every`` steps and the final step; deterministic
    given (initial, params, seed). A Generator passed as ``rng`` must use PCG64
    (``TypeError`` otherwise) and is left where per-draw calls would leave it.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if dynamic == "imitation":
        if not isinstance(params, ImitationParams):
            raise TypeError("imitation dynamics need ImitationParams")
        step = _step_imitation_ids
    elif dynamic == "localized":
        if not isinstance(params, LocalParams):
            raise TypeError("localized dynamics need LocalParams")
        step = _step_localized_ids
    else:
        raise ValueError(f"unknown dynamic {dynamic!r}")

    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    draws = _Replay(rng)
    ids = np.asarray(initial, dtype=np.int64).tolist()
    N = len(ids)
    if params.n_agents != N:
        raise ValueError("params sized for a different number of agents")
    if min(ids) < 0 or max(ids) >= table.size:
        raise ValueError(f"language ids must lie in [0, {table.size})")

    traj = Trajectory(N, tuple(table.aligned_ids.tolist()))
    # payoff rows as bytes (entries are at most 2 min(m, n)), read on first use
    row = cache(lambda a: table.payoff[a].astype(np.uint8).tobytes())
    counts, lf = _score(ids, row)
    fields = _record_fields(ids, counts, lf, traj.aligned_ids)
    traj.records.append(TrajectoryRecord(0, *fields))
    for t in range(1, horizon + 1):
        new = step(ids, lf, table, params, draws)
        if new != ids:
            ids, fields = new, None
            counts, lf = _score(ids, row)
        if t % record_every == 0 or t == horizon:
            fields = fields or _record_fields(ids, counts, lf, traj.aligned_ids)
            traj.records.append(TrajectoryRecord(t, *fields))
    draws.release()
    return traj
