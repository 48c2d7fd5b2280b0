"""Continuum baseline: replicator dynamics over the full language set.

The population is a point on the simplex over all K = m^n * n^m languages;
the payoff matrix pairs every two languages through both speaker/hearer role
assignments, so it is symmetric and the mean fitness is a Lyapunov function
for the flow. Integration is fixed-step RK4 with renormalization back onto
the simplex after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .languages import get_table

# A start (m=n=2) from which the flow settles onto a suboptimal rest point:
# mean fitness 2 instead of the optimum 4, with the terminal field below
# 1e-20. Found by randomized search over starts biased toward the
# speaker-pooling languages; kept verbatim so the run is reproducible.
SUBOPTIMAL_REST_X0 = (
    0.126405138048171,
    9.816814952980987e-12,
    3.0573366524656667e-19,
    0.3021684776104329,
    4.110876977991449e-74,
    5.966086729397852e-41,
    3.5991219662036613e-32,
    2.4258410965356702e-62,
    2.2076573675385725e-11,
    1.0762511525444969e-16,
    2.8845737309066688e-12,
    3.235904301408066e-72,
    0.11646680765979185,
    5.490144649813171e-26,
    3.089939379334332e-24,
    0.45495957664682607,
)


def payoff_matrix(m: int, n: int) -> np.ndarray:
    """Symmetric K x K matrix of two-way communication payoffs, canonical id order.

    Raises CapExceededError above the language-table cap.
    """
    return get_table(m, n).payoff.astype(np.int64)


def mean_fitness(x: np.ndarray, payoff: np.ndarray) -> float:
    """Average fitness of the mixed state: x' A x."""
    x = np.asarray(x, dtype=float)
    return float(x @ payoff @ x)


def replicator_rhs(x: np.ndarray, payoff: np.ndarray) -> np.ndarray:
    """Time derivative of each share: grows with excess fitness over the mean."""
    x = np.asarray(x, dtype=float)
    fitness = payoff @ x
    return x * (fitness - x @ fitness)


@dataclass
class ReplicatorTrajectory:
    """Recorded flow of one (or a batch of) initial conditions.

    ``states`` holds the recorded snapshots, (n_records, K) or
    (n_records, B, K) for batches; ``mean_fitness_path`` covers every step.
    ``max_sum_err`` and ``min_entry`` track simplex preservation across all
    steps, recorded or not.
    """

    times: np.ndarray
    states: np.ndarray
    mean_fitness_path: np.ndarray
    max_sum_err: float
    min_entry: float
    terminal_rhs_inf: float


def integrate(
    x0: np.ndarray,
    payoff: np.ndarray,
    dt: float = 0.01,
    steps: int = 1000,
    record_every: int = 1,
    simplex_tol: float = 1e-9,
) -> ReplicatorTrajectory:
    """Fixed-step RK4 flow of the replicator field from x0.

    ``x0`` may be a single state (K,) or a batch (B, K); batches share the
    clock and are integrated in lockstep. States are recorded at t=0, every
    ``record_every`` steps and the final step. Raises if renormalization cannot
    keep the state within ``simplex_tol`` of the simplex.
    """
    if not 0.0 < dt < float("inf"):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    x = np.asarray(x0, dtype=float)
    batched = x.ndim == 2
    X = x if batched else x[None, :]
    if np.abs(X.sum(axis=1) - 1.0).max() > 1e-10 or X.min() < -1e-12:
        raise ValueError("x0 must lie on the simplex")
    A = np.asarray(payoff, dtype=float)

    def field(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The replicator field at Y, and Y's mean fitness as a (B, 1) column."""
        fit = Y @ A
        mean = (Y * fit).sum(axis=1, keepdims=True)
        fit -= mean
        fit *= Y
        return fit, mean

    n_records = -(-steps // record_every) + 1
    times = np.empty(n_records)
    states = np.empty((n_records,) + X.shape)
    w_path = np.empty((steps + 1, X.shape[0]))
    times[0] = 0.0
    states[0] = X
    max_sum_err = float(np.abs(X.sum(axis=1) - 1.0).max())
    min_entry = float(X.min())
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0

    # The field at the end of a step gives that step's mean fitness and the
    # next step's first stage k1; after the last step, the terminal field.
    k1, mean = field(X)
    w_path[0] = mean[:, 0]
    rec = 1
    for step in range(1, steps + 1):
        k2 = field(X + half_dt * k1)[0]
        k3 = field(X + half_dt * k2)[0]
        k4 = field(X + dt * k3)[0]
        X = X + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sums = X.sum(axis=1)
        sum_err, low = float(np.abs(sums - 1.0).max()), float(X.min())
        max_sum_err = max(max_sum_err, sum_err)
        min_entry = min(min_entry, low)
        if sum_err > simplex_tol or low < -simplex_tol:
            raise ValueError(
                f"state left the simplex at step {step}; reduce the step size"
            )
        X = X / sums[:, None]
        k1, mean = field(X)
        w_path[step] = mean[:, 0]
        if step % record_every == 0 or step == steps:
            times[rec] = step * dt
            states[rec] = X
            rec += 1
    terminal_rhs = float(np.abs(k1).max())

    if not batched:
        states = states[:, 0, :]
        w_path = w_path[:, 0]
    return ReplicatorTrajectory(
        times=times[:rec],
        states=states[:rec],
        mean_fitness_path=w_path,
        max_sum_err=max_sum_err,
        min_entry=min_entry,
        terminal_rhs_inf=terminal_rhs,
    )
