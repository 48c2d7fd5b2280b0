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

Fitness is evaluated once per step: ``run`` shares it between the record of a
profile and the step that leaves it. Records hold exact integer numerators, and
the CSV writes their correctly rounded quotients by N and N(N-1), which equal
the floats of the exact fractions; so the draw-order contract fixes the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .languages import LanguageTable


@dataclass(frozen=True)
class ImitationParams:
    """Mutation probability, mutation radius and per-agent revision probabilities."""

    epsilon: float
    d: int
    revision_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.d < 1:
            raise ValueError(f"mutation radius d must be >= 1, got {self.d}")
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
    def probs_array(self) -> np.ndarray:
        return np.asarray(self.neighbor_probs)


def _step_imitation_ids(
    ids: np.ndarray,
    fit: np.ndarray,
    table: LanguageTable,
    params: ImitationParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One imitation step from the profile ``ids`` with scaled fitnesses ``fit``."""
    scores = fit.tolist()
    top = max(scores)
    argmax_agents = [i for i, f in enumerate(scores) if f == top]
    disks = table.disks(params.d)
    probs = params.revision_probs
    eps = params.epsilon
    new = ids.copy()
    for i in range(ids.size):
        if rng.random() >= probs[i]:
            continue
        if rng.random() >= eps:
            new[i] = ids[argmax_agents[rng.integers(len(argmax_agents))]]
        else:
            support = disks[ids[i]]
            new[i] = support[rng.integers(support.size)]
    return new


def _step_localized_ids(
    ids: np.ndarray,
    fit: np.ndarray,
    table: LanguageTable,
    params: LocalParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One localized step from the profile ``ids`` with scaled fitnesses ``fit``."""
    probs = params.probs_array
    eps = params.epsilon
    new = ids.copy()
    for i in range(ids.size):
        include = rng.random(ids.size) < probs[i]
        include[i] = True
        neighbors = np.flatnonzero(include)
        if rng.random() >= eps:
            local_fit = fit[neighbors]
            best = neighbors[local_fit == local_fit.max()]
            new[i] = ids[best[rng.integers(best.size)]]
        else:
            new[i] = rng.integers(table.size)
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

    m: int
    n: int
    n_agents: int
    dynamic: str
    seed: int | None
    aligned_ids: tuple[int, ...]
    records: list[TrajectoryRecord] = field(default_factory=list)

    def times(self) -> list[int]:
        return [rec.t for rec in self.records]

    def csv_header(self) -> str:
        counts = ",".join(f"count_{lid}" for lid in self.aligned_ids)
        return f"t,frac_aligned,avg_fitness,majority_lang_id,{counts}"

    def to_csv(self) -> str:
        N = self.n_agents
        pairs = N * (N - 1)
        lines = [self.csv_header()]
        for rec in self.records:
            counts = ",".join(map(str, rec.aligned_counts))
            lines.append(
                f"{rec.t},{rec.n_aligned / N!r},{rec.fitness_total / pairs!r},"
                f"{rec.majority_id},{counts}"
            )
        return "\n".join(lines) + "\n"


def _record(table: LanguageTable, t: int, ids: np.ndarray, fit: np.ndarray) -> TrajectoryRecord:
    counts = np.bincount(ids, minlength=table.size)
    aligned_counts = tuple(counts[table.aligned_ids].tolist())
    return TrajectoryRecord(
        t=t,
        ids=tuple(ids.tolist()),
        n_aligned=sum(aligned_counts),
        fitness_total=sum(fit.tolist()),
        majority_id=int(counts.argmax()),
        aligned_counts=aligned_counts,
    )


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
    given (initial, params, seed).
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

    seed = rng if isinstance(rng, int) else None
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    ids = np.asarray(initial, dtype=np.int64)
    N = ids.size
    if params.n_agents != N:
        raise ValueError("params sized for a different number of agents")

    traj = Trajectory(
        m=table.m,
        n=table.n,
        n_agents=N,
        dynamic=dynamic,
        seed=seed,
        aligned_ids=tuple(int(x) for x in table.aligned_ids),
    )
    fit = table.fitness_scaled_ids(ids)
    traj.records.append(_record(table, 0, ids, fit))
    for t in range(1, horizon + 1):
        ids = step(ids, fit, table, params, rng)
        fit = table.fitness_scaled_ids(ids)
        if t % record_every == 0 or t == horizon:
            traj.records.append(_record(table, t, ids, fit))
    return traj
