"""Exception hierarchy, the one input guard, and the one scalar rule of starkcomb."""

import math
import sys

import numpy as np


def is_number(value) -> bool:
    """A finite int or float, numpy scalars included; never a bool, nor an int beyond floats."""
    if isinstance(value, (int, np.integer)):  # compared exactly, even beyond the float range
        return not isinstance(value, bool) and -sys.float_info.max <= value <= sys.float_info.max
    return isinstance(value, (float, np.floating)) and math.isfinite(value)  # as a float64


def require(ok, error: type, message: str, *columns) -> None:
    """Raise ``error`` unless every element of ``ok`` is true (NaN compares false).

    The text is ``message`` formatted with each column's element at the first
    false element of ``ok`` in C order; a column has the size of ``ok``, or is
    formatted whole where ``ok`` is a scalar. Columns are read only on failure
    and keep the Python type of their elements, so an int in a list prints as an int.
    """
    if ok is True or ok is np.True_:  # a scalar pass, the common case
        return
    ok = np.asarray(ok, dtype=bool)
    if ok.ndim == 0 and not ok:
        raise error(message.format(*columns))
    if not ok.all():
        k = np.argmin(ok.ravel())
        raise error(message.format(*(np.asarray(c, dtype=object).ravel()[k] for c in columns)))


def after_first_failure(ok) -> np.ndarray:
    """True at every element after the first false one of ``ok``, in C order.

    ``require(a | after_first_failure(ok), ...)`` checks ``a`` only up to the
    first failure of ``ok``, so that element's own test picks the error.
    """
    failed = ~np.asarray(ok)  # array methods, which make no Python call
    return (failed.cumsum() > failed.ravel()).reshape(failed.shape)


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
