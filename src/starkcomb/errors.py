"""Exception hierarchy for the starkcomb package, and its one input guard."""

import numpy as np


def require(ok, error: type, message: str, *columns) -> None:
    """Raise ``error`` unless every element of ``ok`` is true (NaN compares false).

    The text is ``message`` formatted with each column's element at the first
    false element of ``ok`` in C order. A column has the size of ``ok``, is
    read only on failure, and keeps the Python type of its elements, so an
    int given in a list prints as an int.
    """
    ok = np.asarray(ok, dtype=bool)
    if not ok.all():
        k = np.argmin(ok.ravel())
        raise error(message.format(*(np.asarray(c, dtype=object).ravel()[k] for c in columns)))


def after_first_failure(ok) -> np.ndarray:
    """True at every element after the first false one of ``ok``, in C order.

    ``require(a | after_first_failure(ok), ...)`` checks ``a`` only up to the
    first failure of ``ok``, so that element's own test picks the error.
    """
    failed = ~np.ravel(ok)
    return (np.cumsum(failed) > failed).reshape(np.shape(ok))


class StarkCombError(Exception):
    """Base class for all starkcomb errors."""


class DomainError(StarkCombError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UnreachableFrequencyError(DomainError):
    """Target frequency lies below the field-free transition frequency."""


class DegenerateTransitionError(DomainError):
    """Transition has zero differential polarizability and cannot be tuned."""


class ProfileRangeError(StarkCombError):
    """Position lies outside the valid range of a field profile."""


class UnderdeterminedError(StarkCombError):
    """Too few (or degenerate) anchors to fit a field profile."""


class InfeasibleProfileError(StarkCombError):
    """Anchor set is inconsistent with a monotone decaying field profile."""


class CoverageError(StarkCombError):
    """A frequency falls outside the band reachable by the array or comb."""


class PlannerError(StarkCombError):
    """Cell placement failed or produced an invalid plan."""


class InfeasiblePlanError(PlannerError):
    """Placement succeeded but violates the minimum cell spacing."""


class RegimeError(StarkCombError):
    """Operation invoked outside its validity regime (e.g. too weak a field)."""


class SolverError(StarkCombError):
    """Numerical solve failed to meet its residual requirement."""


class DegenerateSystemError(SolverError):
    """Steady state is not unique (disconnected or undamped level structure)."""


class ConfigError(StarkCombError):
    """Configuration file is missing, malformed, or violates the schema."""
