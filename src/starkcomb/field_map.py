"""Position-dependent RF field model along the cell-array axis.

The electrode pair produces a field that falls off monotonically with the
distance x from the high-field end. The measured curve is represented by a
power-law decay

    E(x) = E_ref * ((x_ref + x0) / (x + x0)) ** gamma

which is monotone, strictly positive, and invertible on its valid range.
Profiles are calibrated in frequency space: anchors pair a position with the
Stark-shifted transition frequency observed there, and the fit solves for the
decay exponent (and reference field) that reproduces every anchor.

The maps are elementwise: a scalar gives a float; errors name the first failing element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import (
    DomainError,
    InfeasibleProfileError,
    ProfileRangeError,
    UnderdeterminedError,
    after_first_failure,
    as_floats,
    is_number,
    require,
)
from .stark import RydbergTransition, field_for_frequency, stark_shifted_frequency

__all__ = ["FieldProfile", "field_at", "fit_profile", "position_at", "transition_frequency_at"]

# Fit must reproduce each anchor's transition frequency at least this well (Hz).
ANCHOR_TOLERANCE_HZ = 1e3


@dataclass(frozen=True)
class FieldProfile:
    """Monotone power-law model of RF field strength versus position.

    Positions are in cm, fields in V/cm. ``field_at`` is strictly decreasing
    and strictly positive on ``valid_range``.
    """

    reference_position: float
    reference_field: float
    decay_exponent: float
    offset: float = 0.0
    valid_range: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        as_floats(self.valid_range, "valid_range must be a pair (x_min, x_max)", (2,))
        lo, hi = self.valid_range
        offset = self.offset
        names = "reference_position", "reference_field", "decay_exponent", "offset", "x_min", "x_max"
        values = (self.reference_position, self.reference_field, self.decay_exponent, offset, lo, hi)
        # A non-number is named first; a NaN or infinite float fails a bound below.
        finite = list(map(is_number, values))
        floats = [ok or isinstance(v, (float, np.floating)) for ok, v in zip(finite, values)]
        require(floats, DomainError, "{} must be finite, got {}", names, values)
        message = "valid_range must satisfy x_min < x_max, got {}"
        require(lo < hi, InfeasibleProfileError, message, self.valid_range)
        for name in ("reference_field", "decay_exponent"):
            value = getattr(self, name)
            require(value > 0, InfeasibleProfileError, f"{name} must be > 0, got {{}}", value)
        require(offset >= 0, InfeasibleProfileError, "offset must be >= 0, got {}", offset)
        message = "x_min + offset must be > 0, got {}"
        require(lo + offset > 0, InfeasibleProfileError, message, lo + offset)
        require(finite, DomainError, "{} must be finite, got {}", names, values)


def field_at(profile: FieldProfile, x: ArrayLike) -> float | np.ndarray:
    """RF field strength (V/cm) at position ``x`` (cm)."""
    x = np.asarray(x, dtype=float)
    lo, hi = profile.valid_range
    message = f"position {{}} cm outside valid range [{lo}, {hi}] cm"
    require((lo <= x) & (x <= hi), ProfileRangeError, message, x)
    with np.errstate(over="ignore", invalid="ignore"):  # silent inf/NaN, as Python floats
        ratio = (profile.reference_position + profile.offset) / (x + profile.offset)
        field = profile.reference_field * ratio**profile.decay_exponent
    return float(field) if field.ndim == 0 else field


def position_at(profile: FieldProfile, field: ArrayLike) -> float | np.ndarray:
    """Position (cm) where the field strength is ``field`` V/cm.

    Exact inverse of :func:`field_at`:
    ``x = (x_ref + x0) * (E_ref / E) ** (1 / gamma) - x0``.
    """
    field = np.asarray(field, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = (profile.reference_field / field) ** (1.0 / profile.decay_exponent)
        x = (profile.reference_position + profile.offset) * ratio - profile.offset
    lo, hi = profile.valid_range
    positive = field > 0
    ok = positive & (lo <= x) & (x <= hi)
    require(positive | after_first_failure(ok), DomainError, "field must be > 0, got {}", field)
    if x.ndim and not ok.all():  # raise the scalar call's text: its ``**`` may round differently
        position_at(profile, field[~ok][0].item())
    message = f"field {{}} V/cm is reached at {{}} cm, outside valid range [{lo}, {hi}] cm"
    require(ok, ProfileRangeError, message, field, x)
    return float(x) if x.ndim == 0 else x


def transition_frequency_at(
    profile: FieldProfile, transition: RydbergTransition, x: ArrayLike
) -> float | np.ndarray:
    """Stark-shifted transition frequency (Hz) at position ``x`` (cm)."""
    return stark_shifted_frequency(transition, field_at(profile, x))


def fit_profile(
    anchors: ArrayLike,
    transition: RydbergTransition,
    *,
    offset: float = 0.0,
    decay_exponent: float | None = None,
) -> FieldProfile:
    """Fit a :class:`FieldProfile` to (position, transition frequency) anchors.

    Parameters
    ----------
    anchors : sequence of (x_cm, frequency_hz)
        Calibration points. Frequencies must be at or above the field-free
        frequency and strictly decreasing with position. Unless
        ``decay_exponent`` is given, the exponent is the slope of a
        least-squares line (``np.polyfit``) through log field against
        log(x + offset), for two anchors as for more, and every anchor must
        be reproduced within ``ANCHOR_TOLERANCE_HZ``.
    transition : RydbergTransition
        Converts anchor frequencies into anchor field strengths.
    offset : float, optional
        Positional offset x0 (cm) of the power-law pole, default 0.
    decay_exponent : float, optional
        If given, the exponent is not fitted; a single anchor then suffices.

    Returns
    -------
    FieldProfile
        Anchored at the smallest-x anchor, reproducing every anchor within
        ``ANCHOR_TOLERANCE_HZ``, and valid over the anchor span (from a single
        anchor, over 1 cm from its position).
    """
    pts = as_floats(anchors, "anchors must be a sequence of (position, frequency) pairs", (-1, 2))
    require(len(pts) > 0, UnderdeterminedError, "at least one anchor is required")
    order = pts[:, 0].argsort(kind="stable")
    given = np.asarray(anchors, dtype=object)[order]  # sorted by position as given, for the texts
    xs, fs = pts[order].T
    x_ref, x_end = xs[[0, -1]].tolist()
    message = "anchors must be finite with position + offset > 0, got {} and offset {} cm"
    ok = np.isfinite(pts).all() and is_number(offset) and x_ref + offset > 0
    require(ok, InfeasibleProfileError, message, [*map(tuple, given)], offset)
    # Positions compared with the offset, as the fit sees them: a huge offset
    # rounds distinct positions together.
    with np.errstate(over="ignore"):
        shifted = xs + offset
    shared = shifted[:-1] == shifted[1:]
    decreasing = fs[:-1] > fs[1:]
    later = after_first_failure(~shared & decreasing)
    message = "anchors share position x + offset = {} cm"
    require(~shared | later, UnderdeterminedError, message, shifted[:-1])
    require(
        decreasing,
        InfeasibleProfileError,
        "anchor frequencies must decrease strictly with position: "
        "f({} cm) = {} Hz, f({} cm) = {} Hz",
        given[:-1, 0], given[:-1, 1], given[1:, 0], given[1:, 1],
    )

    fields = field_for_frequency(transition, fs)

    if decay_exponent is None:
        message = "two anchors are required to fit the decay exponent"
        require(len(pts) >= 2, UnderdeterminedError, message)
        slope, _ = np.polyfit(np.log(shifted), np.log(fields), 1)
        gamma = -float(slope)
    else:
        gamma = decay_exponent

    profile = FieldProfile(
        reference_position=x_ref,
        reference_field=float(fields[0]),
        decay_exponent=gamma,
        offset=offset,
        valid_range=(x_ref, x_end) if len(pts) > 1 else (x_ref, x_ref + 1.0),
    )
    misfit = np.abs(stark_shifted_frequency(transition, field_at(profile, xs)) - fs)
    require(
        ~(misfit > ANCHOR_TOLERANCE_HZ),
        InfeasibleProfileError,
        f"power-law profile misses anchor at x = {{}} cm by {{:.3g}} Hz (> {ANCHOR_TOLERANCE_HZ:g} "
        "Hz); anchors are not consistent with a single monotone decay",
        given[:, 0],
        misfit,
    )
    return profile
