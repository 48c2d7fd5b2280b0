"""Shared exception types."""


class CapExceededError(RuntimeError):
    """An instance is too large to enumerate exactly: above a fixed cap, or physical memory."""


class ConvergenceError(RuntimeError):
    """The direct stationary solve failed: a reducible kernel, or a residual above tolerance."""
