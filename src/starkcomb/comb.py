"""Microwave frequency comb definition, cell placement, and channel routing.

Each comb line acts as a local oscillator for exactly one vapor cell. A cell
is placed where its Stark-shifted transition lands on the line. Both maps
invert in closed form: the quadratic Stark shift gives the field for the line
frequency, and the power-law field profile gives the position for that field.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, DomainError, PlannerError, require
from .field_map import FieldProfile, position_at, transition_frequency_at
from .stark import RydbergTransition, field_for_frequency

__all__ = [
    "FrequencyComb",
    "CellArrayPlan",
    "PlanRow",
    "comb_lines",
    "place_cells",
    "coverage_union",
    "nearest_line_index",
]

# Power levels (dBm) must lie within +/- this bound (about 3082.5 dBm), where
# the power in mW is a finite, nonzero float.
MAX_LEVEL_DB = 10.0 * math.log10(sys.float_info.max)

# The most rows a configuration may ask for: comb lines, scenario points, and
# the linearity scenario's lines x points. It bounds the memory and time a
# file can demand; the bundled and benchmark designs stay far below it.
MAX_ROWS = 1_000_000


def _equal_split_dbm(total_power: float, count: int) -> float:
    return total_power - 10.0 * math.log10(count)


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
        for name in ("center_frequency", "line_spacing"):
            value = getattr(self, name)
            message = f"{name} must be finite and > 0, got {{}}"
            require(0 < value < math.inf, DomainError, message, value)
        count = self.line_count
        message = "line_count must be an integer, got {}"
        integral = isinstance(count, numbers.Integral) and not isinstance(count, bool)
        require(integral, DomainError, message, count)
        require(count >= 1, DomainError, "line_count must be >= 1, got {}", count)
        require(count <= MAX_ROWS, DomainError, f"line_count must be <= {MAX_ROWS}, got {{}}", count)
        levels = self.per_line_power
        if not levels:
            object.__setattr__(
                self, "per_line_power", (_equal_split_dbm(self.total_power, count),) * count
            )
        else:
            object.__setattr__(self, "per_line_power", tuple(levels))
            message = f"per_line_power has {len(levels)} entries but line_count is {count}"
            require(len(levels) == count, DomainError, message)
            # Checked before the power sum, which they could overflow or
            # underflow to log10(0); the text lists every level.
            message = f"per_line_power must be within +/-{MAX_LEVEL_DB:.1f} dBm, got "
            message += ", ".join(map(str, levels))
            require(np.abs(levels) < MAX_LEVEL_DB, DomainError, message)
            object.__setattr__(self, "total_power", _power_sum_dbm(self.per_line_power))
        message = f"total_power must be within +/-{MAX_LEVEL_DB:.1f} dBm, got {{}}"
        require(abs(self.total_power) < MAX_LEVEL_DB, DomainError, message, self.total_power)


def comb_lines(comb: FrequencyComb) -> np.ndarray:
    """Line frequencies in Hz, sorted ascending, as a read-only array."""
    half_span = (comb.line_count - 1) / 2.0
    offsets = np.arange(comb.line_count) - half_span
    lines = comb.center_frequency + offsets * comb.line_spacing
    lines.flags.writeable = False
    return lines


# One cell bound to one comb line: the record type of ``CellArrayPlan.entries``.
PlanRow = np.dtype(
    [("line_index", np.int64), ("line_frequency", float), ("position", float), ("lo_power", float)]
)


@dataclass(frozen=True, eq=False)
class CellArrayPlan:
    """Ordered cell positions, one per comb line.

    ``entries`` is a read-only :data:`PlanRow` record array ordered by line
    index (ascending frequency); ``entries.position`` etc. are its columns.
    For a decaying field profile the positions decrease strictly along that
    order. ``min_spacing`` is the smallest adjacent gap in cm (``inf`` for a
    single cell); ``feasible`` records whether it clears the minimum gap.
    """

    entries: np.recarray
    min_spacing: float
    feasible: bool


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
    # Scalar calls, so that the snaps below see the band ends any caller sees.
    f_lo = transition_frequency_at(profile, transition, lo)
    f_hi = transition_frequency_at(profile, transition, hi)
    message = "profile is not strictly decreasing over its valid range"
    require(f_lo > f_hi, PlannerError, message)

    # Lines within tol of a band end sit exactly at that end, so anchor lines
    # map back to their anchor positions; the others are inverted in closed
    # form and checked against tol.
    lines = comb_lines(comb)
    index = np.arange(lines.size)
    at_lo = np.abs(f_lo - lines) <= tol
    inner = ~at_lo & ~(np.abs(f_hi - lines) <= tol)
    inside = ~inner | ((f_hi < lines) & (lines < f_lo))
    message = f"line {{}}: line at {{}} Hz outside reachable band [{f_hi}, {f_lo}] Hz"
    require(inside, CoverageError, message, index, lines)
    positions = np.where(at_lo, float(lo), float(hi))
    targets = lines[inner]
    x = position_at(profile, field_for_frequency(transition, targets))
    positions[inner] = x
    residual = transition_frequency_at(profile, transition, x) - targets
    message = f"position {{}} cm misses line at {{}} Hz by {{:g}} Hz (tolerance {tol:g} Hz)"
    require(np.abs(residual) <= tol, PlannerError, message, x, targets, residual)

    spacing = positions[:-1] - positions[1:]
    require(
        spacing > 0,
        PlannerError,
        "positions not strictly decreasing with line frequency: x[{}] = {} cm, x[{}] = {} cm",
        index[:-1], positions[:-1], index[1:], positions[1:],
    )
    min_spacing = float(spacing.min()) if spacing.size else math.inf
    entries = np.rec.fromarrays(
        [np.arange(comb.line_count), lines, positions, comb.per_line_power], dtype=PlanRow
    )
    entries.flags.writeable = False
    return CellArrayPlan(
        entries=entries,
        min_spacing=min_spacing,
        feasible=min_spacing >= min_gap,
    )


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


def coverage_union(lines, half_width: float) -> list[tuple[float, float]]:
    """Merged coverage intervals ``[line - half_width, line + half_width]``.

    Intervals that touch exactly are merged, so a comb with spacing equal to
    ``2 * half_width`` yields a single contiguous interval of width
    ``line_count * 2 * half_width``. ``lines`` is a non-empty 1-D sequence
    or array; ``half_width`` must be finite and > 0.
    """
    message = "half_width must be finite and > 0, got {}"
    require(0 < half_width < math.inf, DomainError, message, half_width)
    lines = np.asarray(lines, dtype=float)
    require(lines.ndim == 1, DomainError, f"lines must be 1-D, got {lines.ndim}-D")
    require(lines.size > 0, DomainError, "coverage requires at least one line")
    require(np.isfinite(lines), DomainError, "lines must be finite, got {}", lines)
    lines = np.sort(lines)
    lo, hi = lines - half_width, lines + half_width
    # Sorted, so a merged interval's upper end is the previous interval's.
    breaks = np.flatnonzero(lo[1:] > hi[:-1]) + 1
    starts, ends = np.append(0, breaks), np.append(breaks - 1, lines.size - 1)
    return list(zip(lo[starts].tolist(), hi[ends].tolist()))
