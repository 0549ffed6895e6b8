"""Microwave frequency comb definition, cell placement, and channel routing.

Each comb line acts as a local oscillator for exactly one vapor cell. A cell
is placed where its Stark-shifted transition lands on the line. Both maps
invert in closed form: the quadratic Stark shift gives the field for the line
frequency, and the power-law field profile gives the position for that field.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, DomainError, PlannerError
from .field_map import FieldProfile, position_at, transition_frequency_at
from .stark import RydbergTransition, field_for_frequency

__all__ = [
    "FrequencyComb",
    "CellArrayPlan",
    "PlanEntry",
    "comb_lines",
    "place_cells",
    "assign_channel",
    "coverage_union",
    "nearest_line_index",
]

# Power levels (dBm) must lie within +/- this bound (about 3082.5 dBm), where
# the power in mW is a finite, nonzero float.
MAX_LEVEL_DB = 10.0 * math.log10(sys.float_info.max)


def _equal_split_dbm(total_power: float, count: int) -> float:
    return total_power - 10.0 * math.log10(count)


def _check_levels(name: str, *levels: float) -> None:
    # Written so that NaN fails the check.
    if not all(abs(p) < MAX_LEVEL_DB for p in levels):
        raise DomainError(
            f"{name} must be within +/-{MAX_LEVEL_DB:.1f} dBm, got "
            + ", ".join(map(str, levels))
        )


def _power_sum_dbm(levels: tuple[float, ...]) -> float:
    return 10.0 * math.log10(sum(10.0 ** (p / 10.0) for p in levels))


@dataclass(frozen=True)
class FrequencyComb:
    """Equally spaced microwave local-oscillator lines.

    Line k sits at ``center_frequency + (k - (line_count - 1)/2) * line_spacing``
    for k = 0 .. line_count - 1. ``per_line_power`` defaults to an equal split
    of ``total_power``; individually optimized line strengths can be supplied
    instead, in which case ``total_power`` is their power sum.
    """

    center_frequency: float
    line_spacing: float
    line_count: int
    per_line_power: tuple[float, ...] = field(default=())
    total_power: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.center_frequency < math.inf:
            raise DomainError(
                f"center_frequency must be finite and > 0, got {self.center_frequency}"
            )
        if not 0 < self.line_spacing < math.inf:
            raise DomainError(f"line_spacing must be finite and > 0, got {self.line_spacing}")
        if self.line_count < 1:
            raise DomainError(f"line_count must be >= 1, got {self.line_count}")
        if not self.per_line_power:
            object.__setattr__(
                self,
                "per_line_power",
                (_equal_split_dbm(self.total_power, self.line_count),)
                * self.line_count,
            )
        else:
            object.__setattr__(
                self, "per_line_power", tuple(self.per_line_power)
            )
            if len(self.per_line_power) != self.line_count:
                raise DomainError(
                    f"per_line_power has {len(self.per_line_power)} entries but "
                    f"line_count is {self.line_count}"
                )
            # Checked before the power sum, which they could overflow or
            # underflow to log10(0).
            _check_levels("per_line_power", *self.per_line_power)
            object.__setattr__(
                self, "total_power", _power_sum_dbm(self.per_line_power)
            )
        _check_levels("total_power", self.total_power)


def comb_lines(comb: FrequencyComb) -> list[float]:
    """Line frequencies in Hz, sorted ascending."""
    half_span = (comb.line_count - 1) / 2.0
    return [
        comb.center_frequency + (k - half_span) * comb.line_spacing
        for k in range(comb.line_count)
    ]


@dataclass(frozen=True)
class PlanEntry:
    """One cell bound to one comb line."""

    line_index: int
    line_frequency: float
    position: float
    lo_power: float


@dataclass(frozen=True)
class CellArrayPlan:
    """Ordered cell positions, one per comb line.

    Entries are ordered by line index (ascending frequency); for a decaying
    field profile the positions decrease strictly along that order.
    ``min_spacing`` is the smallest adjacent position gap in cm
    (``inf`` for a single cell) and ``feasible`` records whether it clears
    the requested minimum gap.
    """

    entries: tuple[PlanEntry, ...]
    min_spacing: float
    feasible: bool


def _line_position(
    profile: FieldProfile,
    transition: RydbergTransition,
    target: float,
    tol: float,
    f_lo: float,
    f_hi: float,
) -> float:
    """Position whose transition frequency matches ``target`` within ``tol`` Hz.

    ``f_lo`` and ``f_hi`` are the transition frequencies at the low and high
    ends of the valid range. Targets within ``tol`` of one of them return that
    endpoint exactly, so anchor lines map back to their anchor positions.
    Otherwise the position is the closed-form inverse, checked against
    ``tol``.
    """
    lo, hi = profile.valid_range
    if abs(f_lo - target) <= tol:
        return lo
    if abs(f_hi - target) <= tol:
        return hi
    if not f_hi < target < f_lo:
        raise CoverageError(
            f"line at {target} Hz outside reachable band [{f_hi}, {f_lo}] Hz"
        )
    x = position_at(profile, field_for_frequency(transition, target))
    residual = transition_frequency_at(profile, transition, x) - target
    if not abs(residual) <= tol:
        raise PlannerError(
            f"position {x} cm misses line at {target} Hz by {residual:g} Hz "
            f"(tolerance {tol:g} Hz)"
        )
    return x


def place_cells(
    profile: FieldProfile,
    transition: RydbergTransition,
    comb: FrequencyComb,
    tol: float = 1e3,
    min_gap: float = 0.0,
) -> CellArrayPlan:
    """Place one cell per comb line by inverting the position-frequency map.

    Parameters
    ----------
    profile, transition
        Define the position-to-frequency map; must be strictly decreasing.
    comb : FrequencyComb
        Every line must lie within the band reachable over the valid range.
    tol : float
        Placement accuracy in Hz (default 1 kHz).
    min_gap : float
        Minimum acceptable adjacent cell spacing in cm. The plan is marked
        infeasible (not rejected) when violated; pass the physical cell
        diameter to enforce real geometry.
    """
    lo, hi = profile.valid_range
    f_lo = transition_frequency_at(profile, transition, lo)
    f_hi = transition_frequency_at(profile, transition, hi)
    if not f_lo > f_hi:
        raise PlannerError("profile is not strictly decreasing over its valid range")

    entries = []
    for k, line in enumerate(comb_lines(comb)):
        try:
            x = _line_position(profile, transition, line, tol, f_lo, f_hi)
        except CoverageError as exc:
            raise CoverageError(f"line {k}: {exc}") from exc
        entries.append(
            PlanEntry(
                line_index=k,
                line_frequency=line,
                position=x,
                lo_power=comb.per_line_power[k],
            )
        )

    for a, b in zip(entries, entries[1:]):
        if not a.position > b.position:
            raise PlannerError(
                f"positions not strictly decreasing with line frequency: "
                f"x[{a.line_index}] = {a.position} cm, "
                f"x[{b.line_index}] = {b.position} cm"
            )

    if len(entries) > 1:
        min_spacing = min(
            a.position - b.position for a, b in zip(entries, entries[1:])
        )
    else:
        min_spacing = math.inf

    return CellArrayPlan(
        entries=tuple(entries),
        min_spacing=min_spacing,
        feasible=min_spacing >= min_gap,
    )


def assign_channel(
    comb: FrequencyComb, signal_frequency: float, half_width: float
) -> tuple[int, float]:
    """Route a signal to its nearest comb line.

    Returns ``(line_index, detuning)`` with signed detuning
    ``signal_frequency - line``. A signal exactly midway between two lines
    resolves to the lower index. Signals outside
    ``[first_line - half_width, last_line + half_width]`` raise
    :class:`CoverageError`.
    """
    lines = comb_lines(comb)
    if not lines[0] - half_width <= signal_frequency <= lines[-1] + half_width:
        raise CoverageError(
            f"signal at {signal_frequency} Hz outside covered band "
            f"[{lines[0] - half_width}, {lines[-1] + half_width}] Hz"
        )
    index = int(nearest_line_index(lines, signal_frequency))
    return index, signal_frequency - lines[index]


def nearest_line_index(lines, frequencies) -> np.ndarray:
    """Index of the line nearest to each frequency; ties go to the lower index.

    ``lines`` must be sorted ascending. The answer equals the first minimum
    of ``|frequency - lines|`` over all lines, evaluated in floating point.
    """
    lines = np.asarray(lines, dtype=float)
    frequencies = np.asarray(frequencies, dtype=float)
    # Start at the first line at or above the frequency and step down while
    # the line below is no farther: distances to lower lines never grow
    # towards the frequency, but can round to equal values (or lines repeat).
    index = np.minimum(np.searchsorted(lines, frequencies), lines.size - 1)
    while True:
        down = (index > 0) & (
            np.abs(frequencies - lines[index - 1]) <= np.abs(frequencies - lines[index])
        )
        if not down.any():
            return index
        index = index - down


def coverage_union(lines: list[float], half_width: float) -> list[tuple[float, float]]:
    """Merged coverage intervals ``[line - half_width, line + half_width]``.

    Intervals that touch exactly are merged, so a comb with spacing equal to
    ``2 * half_width`` yields a single contiguous interval of width
    ``line_count * 2 * half_width``.
    """
    if not lines:
        raise DomainError("coverage requires at least one line")
    intervals = sorted((f - half_width, f + half_width) for f in lines)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged
