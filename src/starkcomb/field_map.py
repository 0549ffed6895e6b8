"""Position-dependent RF field model along the cell-array axis.

The electrode pair produces a field that falls off monotonically with the
distance x from the high-field end. The measured curve is represented by a
power-law decay

    E(x) = E_ref * ((x_ref + x0) / (x + x0)) ** gamma

which is monotone, strictly positive, and invertible on its valid range.
Profiles are calibrated in frequency space: anchors pair a position with the
Stark-shifted transition frequency observed there, and the fit solves for the
decay exponent (and reference field) that reproduces every anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InfeasibleProfileError, ProfileRangeError, UnderdeterminedError
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
        lo, hi = self.valid_range
        if not lo < hi:
            raise InfeasibleProfileError(
                f"valid_range must satisfy x_min < x_max, got {self.valid_range}"
            )
        if not self.reference_field > 0:
            raise InfeasibleProfileError(
                f"reference_field must be > 0, got {self.reference_field}"
            )
        if not self.decay_exponent > 0:
            raise InfeasibleProfileError(
                f"decay_exponent must be > 0, got {self.decay_exponent}"
            )
        if not self.offset >= 0:
            raise InfeasibleProfileError(f"offset must be >= 0, got {self.offset}")
        if not lo + self.offset > 0:
            raise InfeasibleProfileError(
                f"x_min + offset must be > 0, got {lo + self.offset}"
            )


def field_at(profile: FieldProfile, x: float) -> float:
    """RF field strength (V/cm) at position ``x`` (cm)."""
    lo, hi = profile.valid_range
    if not lo <= x <= hi:
        raise ProfileRangeError(
            f"position {x} cm outside valid range [{lo}, {hi}] cm"
        )
    ratio = (profile.reference_position + profile.offset) / (x + profile.offset)
    return profile.reference_field * ratio**profile.decay_exponent


def position_at(profile: FieldProfile, field: float) -> float:
    """Position (cm) where the field strength is ``field`` V/cm.

    Exact inverse of :func:`field_at`:
    ``x = (x_ref + x0) * (E_ref / E) ** (1 / gamma) - x0``.
    """
    if not field > 0:
        raise DomainError(f"field must be > 0, got {field}")
    ratio = (profile.reference_field / field) ** (1.0 / profile.decay_exponent)
    x = (profile.reference_position + profile.offset) * ratio - profile.offset
    lo, hi = profile.valid_range
    if not lo <= x <= hi:
        raise ProfileRangeError(
            f"field {field} V/cm is reached at {x} cm, outside valid range "
            f"[{lo}, {hi}] cm"
        )
    return x


def transition_frequency_at(
    profile: FieldProfile, transition: RydbergTransition, x: float
) -> float:
    """Stark-shifted transition frequency (Hz) at position ``x`` (cm)."""
    return stark_shifted_frequency(transition, field_at(profile, x))


def fit_profile(
    anchors: Sequence[tuple[float, float]],
    transition: RydbergTransition,
    *,
    offset: float = 0.0,
    decay_exponent: float | None = None,
    valid_range: tuple[float, float] | None = None,
) -> FieldProfile:
    """Fit a :class:`FieldProfile` to (position, transition frequency) anchors.

    Parameters
    ----------
    anchors : sequence of (x_cm, frequency_hz)
        Calibration points. Frequencies must be at or above the field-free
        frequency and strictly decreasing with position. Two anchors with
        ``offset = 0`` give a closed-form exponent; more anchors are fitted
        by least squares in log space and must all be reproduced within
        ``ANCHOR_TOLERANCE_HZ``.
    transition : RydbergTransition
        Converts anchor frequencies into anchor field strengths.
    offset : float, optional
        Positional offset x0 (cm) of the power-law pole, default 0.
    decay_exponent : float, optional
        If given, the exponent is not fitted; a single anchor then suffices.
    valid_range : tuple, optional
        Evaluation range; defaults to the anchor span (a single anchor gets
        a 1 cm range starting at its position; pass the real range instead).

    Returns
    -------
    FieldProfile
        Anchored at the smallest-x anchor, reproducing every anchor within
        ``ANCHOR_TOLERANCE_HZ``.
    """
    pts = sorted(anchors, key=lambda a: a[0])
    if len(pts) == 0:
        raise UnderdeterminedError("at least one anchor is required")
    if not (np.isfinite(pts).all() and pts[0][0] + offset > 0):
        raise InfeasibleProfileError(
            f"anchors must be finite with position + offset > 0, got {pts} "
            f"and offset {offset} cm"
        )
    for i in range(len(pts) - 1):
        # Compared with the offset, as the fit sees them: a huge offset
        # rounds distinct positions together.
        if pts[i][0] + offset == pts[i + 1][0] + offset:
            raise UnderdeterminedError(
                f"anchors share position x + offset = {pts[i][0] + offset} cm"
            )
        if pts[i][1] <= pts[i + 1][1]:
            raise InfeasibleProfileError(
                "anchor frequencies must decrease strictly with position: "
                f"f({pts[i][0]} cm) = {pts[i][1]} Hz, "
                f"f({pts[i + 1][0]} cm) = {pts[i + 1][1]} Hz"
            )

    fields = [field_for_frequency(transition, f) for _, f in pts]

    if decay_exponent is None:
        if len(pts) < 2:
            raise UnderdeterminedError(
                "two anchors are required to fit the decay exponent"
            )
        log_x = np.log([x + offset for x, _ in pts])
        log_e = np.log(fields)
        slope, _ = np.polyfit(log_x, log_e, 1)
        gamma = -float(slope)
    else:
        gamma = decay_exponent

    x_ref, f_ref = pts[0]
    if valid_range is None:
        valid_range = (pts[0][0], pts[-1][0]) if len(pts) > 1 else (x_ref, x_ref + 1.0)

    profile = FieldProfile(
        reference_position=x_ref,
        reference_field=fields[0],
        decay_exponent=gamma,
        offset=offset,
        valid_range=valid_range,
    )

    for (x, f_anchor) in pts:
        # Raw power law rather than field_at: anchors may sit outside a
        # caller-supplied valid_range.
        e = fields[0] * ((x_ref + offset) / (x + offset)) ** gamma
        misfit = abs(stark_shifted_frequency(transition, e) - f_anchor)
        if misfit > ANCHOR_TOLERANCE_HZ:
            raise InfeasibleProfileError(
                f"power-law profile misses anchor at x = {x} cm by "
                f"{misfit:.3g} Hz (> {ANCHOR_TOLERANCE_HZ:g} Hz); anchors are "
                "not consistent with a single monotone decay"
            )
    return profile
