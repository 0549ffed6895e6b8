"""Quadratic Stark tuning of a Rydberg microwave transition.

The receiver tunes the transition between two Rydberg states by applying a
static-equivalent RF field: the transition frequency shifts quadratically,

    f(E) = f0 + a * E**2

with ``f0`` the field-free transition frequency (Hz) and ``a`` the
differential polarizability folded to a single coefficient (Hz per (V/cm)^2).
Only state pairs that shift upward are supported, so ``a >= 0``.

Both maps are elementwise: a scalar gives a float; errors name the first failing element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import (
    DegenerateTransitionError,
    DomainError,
    UnreachableFrequencyError,
    after_first_failure,
    require,
)

__all__ = ["RydbergTransition", "stark_shifted_frequency", "field_for_frequency"]


@dataclass(frozen=True)
class RydbergTransition:
    """A microwave transition between two Rydberg states.

    Attributes
    ----------
    field_free_frequency : float
        Transition frequency at zero applied field, in Hz.
    differential_polarizability : float
        Quadratic shift coefficient in Hz/(V/cm)^2. This is half the
        polarizability difference of the two states, pre-folded so that
        ``shift = differential_polarizability * field**2``. It is a
        calibration constant of the model, not a claimed atomic value.
    label : str
        Free-text description of the state pair.
    """

    field_free_frequency: float
    differential_polarizability: float
    label: str = ""

    def __post_init__(self) -> None:
        f0, dpol = self.field_free_frequency, self.differential_polarizability
        message = "field_free_frequency must be finite and > 0, got {}"
        require(0 < f0 < math.inf, DomainError, message, f0)
        message = "differential_polarizability must be finite and >= 0 "
        message += "(upward-shifting state pairs only), got {}"
        require(0 <= dpol < math.inf, DomainError, message, dpol)


def stark_shifted_frequency(
    transition: RydbergTransition, field: ArrayLike
) -> float | np.ndarray:
    """Transition frequency in Hz at RF field strength ``field`` (V/cm)."""
    field = np.asarray(field, dtype=float)
    require(field >= 0, DomainError, "field must be >= 0, got {}", field)
    dpol = transition.differential_polarizability
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN
        f = transition.field_free_frequency + dpol * field * field
    return float(f) if f.ndim == 0 else f


def field_for_frequency(
    transition: RydbergTransition, target: ArrayLike
) -> float | np.ndarray:
    """Field strength (V/cm) that tunes the transition to ``target`` Hz.

    Analytic inverse of :func:`stark_shifted_frequency`; round-trips within
    one part in 1e9 over the working field range.
    """
    target = np.asarray(target, dtype=float)
    f0, dpol = transition.field_free_frequency, transition.differential_polarizability
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny dpol overflows to inf
        offset = target - f0
        field = np.sqrt(offset / dpol) if dpol else offset
    reached = offset >= 0
    tunable = (offset == 0) | (dpol > 0)  # dpol == 0 cannot tune
    later = after_first_failure(reached & tunable)
    message = f"target {{}} Hz is not at or above the field-free frequency {f0} Hz"
    require(reached | later, UnreachableFrequencyError, message, target)
    message = "differential_polarizability is zero; transition cannot be tuned"
    require(tunable, DegenerateTransitionError, message)
    return float(field) if field.ndim == 0 else field
