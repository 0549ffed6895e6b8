"""Exception hierarchy and the input contract: two rules, one guard, one display budget."""

import math
import sys
from itertools import islice

import numpy as np

_SHOWN = 500  # the most characters an error text shows of one value; 10**400 shows whole


def _shown(value, write=repr) -> str:
    """``write(value)``, cut after ``_SHOWN`` characters; a value too large to write
    out (a list of billions of items, an int too long to print) is named by its type."""
    todo, size = [value], 0
    while todo and size <= _SHOWN:  # about the characters written, up to the budget
        item = todo.pop()
        if isinstance(item, dict):
            todo.extend(item.items())
        elif isinstance(item, (list, tuple, set, np.ndarray)):  # at least a character an item
            todo.extend(islice(np.ravel(item) if isinstance(item, np.ndarray) else item, _SHOWN + 1))
        elif isinstance(item, (str, bytes)):
            size += len(item)
        elif isinstance(item, int):
            size += item.bit_length() // 3  # at least its decimal digits
        size += 1
    if isinstance(value, (str, bytes)):
        value = value[: _SHOWN + 1]
    elif isinstance(value, int) and size > _SHOWN:
        return f"<int of {value.bit_length()} bits>"
    elif size > _SHOWN:
        return f"<{type(value).__name__} too large to show>"
    text = write(value)
    return text if len(text) <= _SHOWN else text[:_SHOWN] + "..."


def is_number(value) -> bool:
    """A finite int or float, numpy scalars included; never a bool, nor an int beyond floats."""
    if isinstance(value, (int, np.integer)):  # compared exactly, even beyond the float range
        return not isinstance(value, bool) and -sys.float_info.max <= value <= sys.float_info.max
    return isinstance(value, (float, np.floating)) and math.isfinite(value)  # as a float64


def as_floats(value, what: str, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a new float array, of ``shape`` if given (-1: any length, which an
    empty value has), converted by numpy; else a DomainError ``"<what>, got <value>"``."""
    try:
        array = np.array(value, dtype=float)
        shaped = array if shape is None else array.reshape(shape)
        ok = shaped.shape == array.shape or array.size == 0
    except (TypeError, ValueError, OverflowError):  # not numbers, or not that many
        ok = False
    require(ok, DomainError, what + ", got {}", value)
    return shaped


def require(ok, error: type, message: str, *columns) -> None:
    """Raise ``error`` unless every element of ``ok`` is true (NaN compares false).

    The text is ``message`` formatted with each column's element at the first
    false element of ``ok`` in C order; a column has the size of ``ok``, or is
    formatted whole where ``ok`` is a scalar. Columns are read only on failure; a
    number is formatted as itself (an int in a list as an int, under a format spec
    if any), any other value as ``_shown`` writes it with ``str``.
    """
    if ok is True or ok is np.True_:  # a scalar pass, the common case
        return
    ok = np.asarray(ok, dtype=bool)
    if not ok.all():
        k = np.argmin(ok.ravel())
        values = columns if ok.ndim == 0 else [np.asarray(c, dtype=object).ravel()[k] for c in columns]
        fit = lambda v: v if isinstance(v, (float, np.number)) or is_number(v) else _shown(v, str)
        raise error(message.format(*map(fit, values)))


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
