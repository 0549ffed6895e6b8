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

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import DegenerateTransitionError, DomainError, UnreachableFrequencyError

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
        if not self.field_free_frequency > 0:
            raise DomainError(
                f"field_free_frequency must be > 0, got {self.field_free_frequency}"
            )
        if not self.differential_polarizability >= 0:
            raise DomainError(
                "differential_polarizability must be >= 0 (upward-shifting state "
                f"pairs only), got {self.differential_polarizability}"
            )


def stark_shifted_frequency(
    transition: RydbergTransition, field: ArrayLike
) -> float | np.ndarray:
    """Transition frequency in Hz at RF field strength ``field`` (V/cm)."""
    field = np.asarray(field, dtype=float)
    bad = ~(field >= 0)
    if bad.any():
        raise DomainError(f"field must be >= 0, got {float(field[bad][0])}")
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
    dpol = transition.differential_polarizability
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny dpol overflows to inf
        offset = target - transition.field_free_frequency
        field = np.sqrt(offset / dpol) if dpol else offset
    bad = ~((offset >= 0) & ((offset == 0) | (dpol > 0)))  # dpol == 0 cannot tune
    if bad.any():
        if not offset[bad][0] >= 0:
            raise UnreachableFrequencyError(
                f"target {float(target[bad][0])} Hz is not at or above the "
                f"field-free frequency {transition.field_free_frequency} Hz"
            )
        raise DegenerateTransitionError(
            "differential_polarizability is zero; transition cannot be tuned"
        )
    return float(field) if field.ndim == 0 else field
