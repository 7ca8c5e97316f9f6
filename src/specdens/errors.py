"""Exception types shared across the package.

Every error raised on bad input or a violated precondition derives from
:class:`SpecdensError`, so callers can catch the package's failures with a
single except clause while still distinguishing individual conditions.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SpecdensError",
    "NotSymmetricError",
    "NegativeEntryError",
    "ZeroRowError",
    "NoSupportError",
    "HasSupportError",
    "StructureViolationError",
    "CyclicRelationError",
    "SelfCheckError",
    "NotDAGError",
    "BadBoundaryError",
    "InfeasibleError",
    "NonConvergenceError",
    "ImaginarySignLostError",
    "NonPositiveInputError",
    "EigFailureError",
]


class SpecdensError(Exception):
    """Base class for all errors raised by this package."""


# --- pattern / profile structure ---------------------------------------------


class NotSymmetricError(SpecdensError):
    """A matrix required to be symmetric is not."""


class NegativeEntryError(SpecdensError):
    """A matrix required to be entrywise non-negative has a negative entry."""


class ZeroRowError(SpecdensError):
    """An operation requires every row to contain a non-zero entry."""


class NoSupportError(SpecdensError):
    """The zero pattern admits no positive diagonal (no perfect matching)."""


class HasSupportError(SpecdensError):
    """The operation only applies to patterns without a positive diagonal."""


class StructureViolationError(SpecdensError):
    """A structural invariant of the block normal form failed to hold."""


class CyclicRelationError(SpecdensError):
    """The block relation derived from the mask contains a directed cycle."""


class SelfCheckError(SpecdensError, RuntimeError):
    """A result failed the package's own check of it (solver bounds, exact
    identities of the exponents and rates, positive limit weights)."""


# --- min-max boundary problems ------------------------------------------------


class NotDAGError(SpecdensError):
    """The vertex relation of a boundary problem contains a directed cycle."""


class BadBoundaryError(SpecdensError):
    """A vertex with empty past or empty future is missing from the boundary."""


class InfeasibleError(SpecdensError):
    """No monotone solution exists for the boundary data."""


# --- iterative solvers ---------------------------------------------------------


class NonConvergenceError(SpecdensError):
    """An iterative solver exhausted its budget before reaching tolerance.

    Attributes
    ----------
    residual : float or None
        Best residual reached when the budget ran out, if known.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ImaginarySignLostError(SpecdensError):
    """A Stieltjes-transform iterate left the complex upper half-plane."""


class NonPositiveInputError(SpecdensError, ValueError, TypeError):
    """A numeric argument is not of its kind, or lies below its bound: a
    count or a finite real (see :func:`_count` and :func:`_real`).  As a
    kind includes the type, it is a TypeError as well as a ValueError."""


# --- Monte Carlo ---------------------------------------------------------------


class EigFailureError(SpecdensError):
    """An eigendecomposition failed or did not pass its sanity checks."""


# --- argument kinds ------------------------------------------------------------
#
# Every numeric scalar argument is a count or a finite real, checked once per
# public call.  Tuples of concrete types, not the ``numbers`` ABCs, keep the
# check cheap: ZeroPattern's runs on every pattern a classification builds.


def _count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, of at
    least ``minimum``; NonPositiveInputError otherwise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if value >= minimum:
            return int(value)
    raise NonPositiveInputError(f"{name} must be an integer >= {minimum}")


def _real(value, name: str, lower: float = -math.inf, strict: bool = False) -> float:
    """``value`` as a float: a Python or numpy integer or floating scalar, not
    a bool, finite and at least ``lower`` (above it when ``strict``);
    NonPositiveInputError otherwise, also for an int beyond the float range."""
    kind = isinstance(value, (int, float, np.integer, np.floating))
    if kind and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (x > lower if strict else x >= lower):
            return x
    bound = "" if lower == -math.inf else f" {'>' if strict else '>='} {lower:g}"
    raise NonPositiveInputError(f"{name} must be a finite real{bound}")
