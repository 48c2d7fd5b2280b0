"""Atomic signaling games: dynamics, exact chain analysis, replicator baseline."""

__version__ = "0.1.0"

from .chain import (
    MAX_STATES,
    ImitationChain,
    LocalizedChain,
    ResistanceGraph,
    StateSpace,
    VerifyReport,
    make_chain,
    stationary,
    stochastic_potential,
    sweep_stationary,
    verify_stability,
)
from .dynamics import (
    ImitationParams,
    LocalParams,
    Trajectory,
    run,
)
from .errors import CapExceededError, ConvergenceError
from .languages import LanguageTable, get_table, language_count
from .replicator import integrate, payoff_matrix

__all__ = [
    "CapExceededError",
    "ConvergenceError",
    "ImitationChain",
    "ImitationParams",
    "LanguageTable",
    "LocalParams",
    "LocalizedChain",
    "MAX_STATES",
    "ResistanceGraph",
    "StateSpace",
    "Trajectory",
    "VerifyReport",
    "get_table",
    "integrate",
    "language_count",
    "make_chain",
    "payoff_matrix",
    "run",
    "stationary",
    "stochastic_potential",
    "sweep_stationary",
    "verify_stability",
]
