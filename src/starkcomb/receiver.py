"""Calibrated channel model of the heterodyne receiver array.

Each cell is reduced to a linear channel: beat-note power grows 20 dB per
decade of signal field strength, rolls off in detuning from the cell's comb
line as a flat-top filter

    |H(df)|^2 = 1 / (1 + (df / half_width_3db)**(2 * rolloff_order))

and is floored by an incoherent noise power. Absolute powers, the reference
field, and noise floors are calibration constants rather than first-
principles quantities; they are chosen to reproduce measured numbers (peak
beat power, minimum detectable field) and the small-signal physics is
justified separately by :mod:`starkcomb.bloch`.

The channels of an array are one read-only :data:`ChannelRow` record array,
built by :func:`channel_table`. The beat functions take scalar or array fields
and detunings, and a channel row or a table of them (one per point). A
stimulus is a 1-D array of frequencies and a field for each (or one for all):
:func:`stitched_response` routes and evaluates it in array passes over fixed
blocks of points, and :func:`evaluate_channels` reads one tone on every
channel.

All fields are in V/cm, powers in dBm, frequencies in Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .comb import CellArrayPlan, nearest_line_index
from .errors import DomainError, PlannerError, require

__all__ = [
    "ChannelRow",
    "channel_table",
    "BeatRow",
    "BeatSpectrum",
    "rolloff",
    "beat_signal_power",
    "beat_power",
    "min_detectable_field",
    "calibrate_noise_floor",
    "sensitivity",
    "far_field_strength",
    "evaluate_channels",
    "stitched_response",
]


# One linear heterodyne channel bound to one comb line: the record type of
# ``channel_table`` and of ``ReceiverConfig.channels``. ``peak_power`` is the
# beat power at ``reference_field`` on line center; ``gain_scale`` is a
# dimensionless per-channel factor modeling transition dipole-moment
# degradation; ``noise_floor`` is the analyzer noise power in the analysis
# bandwidth.
ChannelRow = np.dtype(
    [
        ("peak_power", float),
        ("reference_field", float),
        ("half_width_3db", float),
        ("rolloff_order", float),
        ("noise_floor", float),
        ("gain_scale", float),
    ]
)


def channel_table(
    peak_power, reference_field, half_width_3db=5e6, rolloff_order=2, noise_floor=-80.0,
    gain_scale=1.0,
) -> np.recarray:
    """Channels as a read-only :data:`ChannelRow` record array.

    Scalar or 1-D arguments broadcast to one shape; all-scalar arguments give
    a 0-d table, which is one channel. Every element is checked (NaN fails).
    """
    columns = np.broadcast_arrays(
        peak_power, reference_field, half_width_3db, rolloff_order, noise_floor, gain_scale
    )
    peak, reference, half_width, order, floor, gain = columns
    for name, values in (("reference_field", reference), ("half_width_3db", half_width)):
        message = f"{name} must be > 0, got {{}}"
        require((0 < values) & (values < math.inf), DomainError, message, values)
    integer = (order >= 1) & (order < math.inf) & (np.floor(order) == order)
    require(integer, DomainError, "rolloff_order must be a positive integer, got {}", order)
    require((0 < gain) & (gain < math.inf), DomainError, "gain_scale must be > 0, got {}", gain)
    ordered = (-math.inf < floor) & (floor < peak) & (peak < math.inf)
    message = "noise_floor ({} dBm) must be below peak_power ({} dBm), both finite"
    require(ordered, DomainError, message, floor, peak)
    table = np.rec.fromarrays(columns, dtype=ChannelRow)
    table.flags.writeable = False
    return table


def _finite(name: str, values, positive: bool = False) -> np.ndarray:
    # Written so that NaN fails the check.
    values = np.asarray(values, dtype=float)
    ok = (values > 0 if positive else values >= 0) & (values < np.inf)
    message = f"{name} must be finite and {'>' if positive else '>='} 0, got {{}}"
    require(ok, DomainError, message, values)
    return values


def rolloff(channel, delta_f):
    """Power response |H(delta_f)|^2, exactly 1/2 at the 3 dB half-width.

    A NaN ``delta_f`` is a DomainError; ``delta_f = +/-inf`` gives 0.
    """
    require(~np.isnan(delta_f), DomainError, "delta_f must not be NaN, got {}", delta_f)
    x = np.abs(delta_f) / channel.half_width_3db
    return 1.0 / (1.0 + x ** (2 * channel.rolloff_order))


def _rolloff_db(channel, delta_f):
    # 10 log10 |H(delta_f)|^2. A rolloff that underflows to 0 far off line
    # gives -inf dB.
    with np.errstate(divide="ignore", over="ignore"):
        return 10.0 * np.log10(rolloff(channel, delta_f))


def _scale_db(gain_scale):
    # 20 log10 gain_scale.
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(gain_scale)


def _gain_db(lead_db, rolloff_db, scale_db):
    # The one dB sum of the channel model, in this order:
    # lead + 10 log10 |H(delta_f)|^2 + 20 log10 gain_scale.
    with np.errstate(over="ignore"):
        return lead_db + rolloff_db + scale_db


def _lead_db(channel, field):
    # peak_power + 20 log10(field / reference_field), for positive fields.
    with np.errstate(over="ignore"):
        return channel.peak_power + 20.0 * np.log10(field / channel.reference_field)


def _signal_db(lead_db, rolloff_db, scale_db):
    s = _gain_db(lead_db, rolloff_db, scale_db)
    require(s < math.inf, DomainError, "beat signal power must be below +inf dBm, got {}", s)
    return s


def beat_signal_power(channel, field, delta_f):
    """Beat-note signal power in dBm before noise flooring (``field`` > 0).

    A power of +inf dBm (``field / reference_field`` overflows) is a DomainError.
    """
    field = _finite("field", field, positive=True)
    lead = _lead_db(channel, field)
    return _signal_db(lead, _rolloff_db(channel, delta_f), _scale_db(channel.gain_scale))[()]


def _floor_power(floor):
    with np.errstate(over="ignore"):
        return 10.0 ** (floor / 10.0)


def _observed_db(field, signal_db, floor, floor_power):
    # The signal power-summed with the noise floor, whose power is
    # floor_power; a zero field gives the floor exactly.
    with np.errstate(over="ignore", divide="ignore"):
        power = 10.0 * np.log10(10.0 ** (signal_db / 10.0) + floor_power)
        # Where the direct sum leaves the float range, factor out the larger term.
        if not np.isfinite(power).all():
            hi, lo = np.maximum(signal_db, floor), np.minimum(signal_db, floor)
            factored = hi + 10.0 * np.log10(1.0 + 10.0 ** ((lo - hi) / 10.0))
            power = np.where(np.isfinite(power), power, factored)
    return np.where(field == 0, floor, power)


def beat_power(channel, field, delta_f):
    """Observed beat power in dBm: signal power-summed with the noise floor.

    A zero field returns the noise floor exactly.
    """
    field = _finite("field", field)
    # A zero field is evaluated at the reference field, then replaced.
    positive = np.where(field > 0, field, channel.reference_field)
    s = beat_signal_power(channel, positive, delta_f)
    floor = channel.noise_floor
    return _observed_db(field, s, floor, _floor_power(floor))[()]


def _detectable_field(reference_field, margin_db):
    # The field whose signal sits margin_db below the reference field's. Below
    # about -6160 dB the power overflows: no field is detectable (inf).
    with np.errstate(over="ignore"):
        return reference_field * 10.0 ** (-margin_db / 20.0)


def min_detectable_field(channel, delta_f=0.0):
    """Field (V/cm) whose beat signal power equals the noise floor."""
    # The reference field's signal sits margin dB above the floor.
    margin = _gain_db(
        channel.peak_power - channel.noise_floor,
        _rolloff_db(channel, delta_f),
        _scale_db(channel.gain_scale),
    )
    return _detectable_field(channel.reference_field, margin)


def calibrate_noise_floor(channels, target_field, delta_f=0.0) -> np.recarray:
    """Channels with each noise floor set so ``min_detectable_field`` hits its target."""
    columns = {name: channels[name] for name in ChannelRow.names}
    columns["noise_floor"] = beat_signal_power(channels, target_field, delta_f)
    return channel_table(**columns)


def sensitivity(e_det, measurement_time):
    """Sensitivity in V cm^-1 Hz^-1/2 from the minimum detectable field.

    ``sensitivity = e_det * sqrt(measurement_time)``, elementwise.
    """
    e_det = _finite("e_det", e_det, positive=True)
    measurement_time = _finite("measurement_time", measurement_time, positive=True)
    return (e_det * np.sqrt(measurement_time))[()]


def far_field_strength(
    power: float, gain: float, distance: float, perturbation: float = 1.0
) -> float:
    """Far-field strength in V/m at ``distance`` m from an antenna.

    ``E = perturbation * sqrt(30 * power * gain) / distance`` with ``power``
    in W, antenna ``gain`` dimensionless, and ``perturbation`` the cell
    perturbation factor. Divide by 100 for V/cm.
    """
    for name, value, positive in (
        ("power", power, False), ("gain", gain, True), ("distance", distance, True),
        ("perturbation", perturbation, True),
    ):
        _finite(name, value, positive)
    strength = perturbation * math.sqrt(30.0 * power * gain) / distance
    message = "field strength must be below +inf V/m, got {}"
    require(strength < math.inf, DomainError, message, strength)
    return strength


def _stimulus(frequencies, fields) -> tuple[np.ndarray, np.ndarray]:
    # Read-only 1-D float arrays; a scalar field applies to every frequency.
    frequencies = np.array(frequencies, dtype=float, ndmin=1)
    message = "stimulus needs a non-empty 1-D array of frequencies"
    require(frequencies.ndim == 1 and frequencies.size > 0, DomainError, message)
    fields = np.array(np.broadcast_to(fields, frequencies.shape), dtype=float)
    _finite("signal frequency", frequencies, positive=True)
    _finite("field", fields)
    frequencies.flags.writeable = fields.flags.writeable = False
    return frequencies, fields


# One evaluated signal frequency routed to a channel: the record type of
# ``BeatSpectrum.rows`` and of ``evaluate_channels``.
BeatRow = np.dtype(
    [
        ("signal_frequency", float),
        ("channel_index", np.int64),
        ("delta_f", float),
        ("beat_power", float),
        ("above_noise", bool),
        ("in_band", bool),
    ]
)


@dataclass(frozen=True, eq=False)
class BeatSpectrum:
    """Beat powers for a stimulus: a read-only :data:`BeatRow` record array,
    one row per evaluated frequency; ``rows.beat_power`` etc. are its columns."""

    rows: np.recarray


# Points per block of the stitched pass (on a 2-vCPU Xeon VM, blocks of 4096
# measured the same, and 2048 and 16384 slower).
_BLOCK = 8192


def _evaluate(
    plan: CellArrayPlan,
    channels: np.recarray,
    frequencies: np.ndarray,
    fields: np.ndarray,
    index: np.ndarray | None = None,
) -> np.recarray:
    # Point j is read out on plan entry index[j], by default the entry of its
    # nearest line. The points are evaluated _BLOCK at a time, so that each
    # block's temporaries stay in the CPU cache.
    require(len(plan.entries) > 0, PlannerError, "plan has no entries")
    message = f"got {np.size(channels)} channel responses for {len(plan.entries)} plan entries"
    require(np.shape(channels) == (len(plan.entries),), PlannerError, message)
    lines = plan.entries.line_frequency
    message = "plan entries must be ordered by ascending line frequency"
    require(np.diff(lines) >= 0, PlannerError, message)
    if index is not None:
        frequencies, fields, index = np.broadcast_arrays(frequencies, fields, index)
    # The channel columns by plan entry and the terms that depend on the
    # channel alone: rows of one table, which each block gathers from.
    columns = {
        "line_frequency": lines,
        "peak_power": channels.peak_power,
        "reference_field": channels.reference_field,
        "half_width_3db": channels.half_width_3db,
        "rolloff_order": channels.rolloff_order,
        "noise_floor": channels.noise_floor,
        "scale_db": _scale_db(channels.gain_scale),
        "floor_power": _floor_power(channels.noise_floor),
        "margin_db": channels.peak_power - channels.noise_floor,
    }
    table = np.array(list(columns.values()))
    line_index = plan.entries.line_index
    rows = np.recarray(frequencies.shape, BeatRow)
    out = [rows[name] for name in BeatRow.names]
    for start in range(0, rows.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        frequency, field = frequencies[block], fields[block]
        i = nearest_line_index(lines, frequency) if index is None else index[block]
        channel = SimpleNamespace(**dict(zip(columns, table.take(i, axis=1))))
        delta_f = frequency - channel.line_frequency
        # A zero field is evaluated at the reference field, then replaced.
        positive = np.where(field > 0, field, channel.reference_field)
        _finite("field", positive, positive=True)
        rolloff_db = _rolloff_db(channel, delta_f)
        s = _signal_db(_lead_db(channel, positive), rolloff_db, channel.scale_db)
        power = _observed_db(field, s, channel.noise_floor, channel.floor_power)
        margin = _gain_db(channel.margin_db, rolloff_db, channel.scale_db)
        above = (field > 0) & (field >= _detectable_field(channel.reference_field, margin))
        in_band = np.abs(delta_f) <= channel.half_width_3db
        values = (frequency, line_index[i], delta_f, power, above, in_band)
        for column, value in zip(out, values):
            column[block] = value
    rows.flags.writeable = False
    return rows


def evaluate_channels(
    plan: CellArrayPlan, channels: np.recarray, frequency: float, field: float
) -> np.recarray:
    """Beat response of every channel to a single tone (isolation checks)."""
    index = np.arange(len(plan.entries))
    return _evaluate(plan, channels, *_stimulus(frequency, field), index)


def stitched_response(
    plan: CellArrayPlan, channels: np.recarray, frequencies, fields
) -> BeatSpectrum:
    """Broadband response stitched from the per-cell channels.

    ``frequencies`` (Hz) is a non-empty 1-D array; ``fields`` (V/cm) gives
    one field per frequency, or one for all. Non-finite or negative values
    raise :class:`DomainError`. Each frequency is routed to its nearest comb
    line and evaluated on that cell's channel; with monotone rolloff and
    equalized channels this per-frequency winner is the maximum over all
    channels, so the rows trace the stitched broadband curve. Frequencies
    outside every channel's 3 dB band are still evaluated but flagged
    ``in_band = False``.
    """
    return BeatSpectrum(rows=_evaluate(plan, channels, *_stimulus(frequencies, fields)))
