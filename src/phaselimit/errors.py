"""Shared exception types, and the integer test that sizes and indices pass."""

import numbers


class ValidationError(ValueError):
    """Raised when an input violates a precondition or a type invariant."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative or quadrature computation fails its
    convergence contract.  Carries enough context to diagnose the failure."""


def _is_integer(value) -> bool:
    """True for an int or a numpy integer; False for a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
