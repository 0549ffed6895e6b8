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
stimulus is a 1-D array of frequencies and a field for each (or one for all).
:func:`response_blocks` is the one pass that routes a stimulus: it hands out
the :data:`BeatRow` columns of fixed blocks of points one at a time, as
:mod:`starkcomb.scenarios` streams them to its CSV files, and
:func:`stitched_response` collects them into one read-only table.
:func:`evaluate_channels` reads one tone on every channel in one call. All
of them evaluate one kernel, ``_beat``, the only place that sums the
channel's dB terms, so an array call gives its elementwise scalar calls'
results bit for bit.

All fields are in V/cm, powers in dBm, frequencies in Hz.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .comb import CellArrayPlan, nearest_line_index
from .errors import DomainError, PlannerError, require

__all__ = [
    "ChannelRow",
    "channel_table",
    "BeatRow",
    "rolloff",
    "beat_signal_power",
    "beat_power",
    "min_detectable_field",
    "calibrate_noise_floor",
    "sensitivity",
    "far_field_strength",
    "evaluate_channels",
    "stitched_response",
    "response_blocks",
    "row_blocks",
]


# One linear heterodyne channel bound to one comb line: the record type of
# ``channel_table`` and of ``config.build_channels``. ``peak_power`` is the
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
    exponent = 2 * channel.rolloff_order
    # numpy squares exactly for one exponent of 2 but not for an array of
    # them, so x**2 is x * x here for every shape of call.
    return 1.0 / (1.0 + np.where(exponent == 2, x * x, np.power(x, exponent)))


def _terms(channels) -> SimpleNamespace:
    # The channel columns and the terms that depend on the channel alone.
    with np.errstate(divide="ignore", over="ignore"):
        return SimpleNamespace(
            peak_power=channels.peak_power,
            reference_field=channels.reference_field,
            half_width_3db=channels.half_width_3db,
            rolloff_order=channels.rolloff_order,
            noise_floor=channels.noise_floor,
            scale_db=20.0 * np.log10(channels.gain_scale),
            floor_power=np.power(10.0, channels.noise_floor / 10.0),
            margin_db=channels.peak_power - channels.noise_floor,
        )


def _beat(channel, field, delta_f):
    # The one dB sum of the channel model, for channel terms from _terms and
    # fields >= 0: the signal power, the observed power (the signal
    # power-summed with the noise floor) and the minimum detectable field.
    # A zero field is evaluated at the reference field, and its power is then
    # the floor exactly. A rolloff that underflows far off line gives -inf dB.
    positive = np.where(field > 0, field, channel.reference_field)
    floor = channel.noise_floor
    with np.errstate(divide="ignore", over="ignore"):
        rolloff_db = 10.0 * np.log10(rolloff(channel, delta_f))
        lead = channel.peak_power + 20.0 * np.log10(positive / channel.reference_field)
        signal = lead + rolloff_db + channel.scale_db
        message = "beat signal power must be below +inf dBm, got {}"
        require(signal < math.inf, DomainError, message, signal)
        power = 10.0 * np.log10(np.power(10.0, signal / 10.0) + channel.floor_power)
        # Where the direct sum leaves the float range, factor out the larger term.
        if not np.isfinite(power).all():
            hi, lo = np.maximum(signal, floor), np.minimum(signal, floor)
            factored = hi + 10.0 * np.log10(1.0 + np.power(10.0, (lo - hi) / 10.0))
            power = np.where(np.isfinite(power), power, factored)
        # The reference field's signal sits margin dB above the floor. Below
        # about -6160 dB the power overflows: no field is detectable (inf).
        margin = channel.margin_db + rolloff_db + channel.scale_db
        detectable = channel.reference_field * np.power(10.0, -margin / 20.0)
    return signal, np.where(field == 0, floor, power), detectable


def beat_signal_power(channel, field, delta_f):
    """Beat-note signal power in dBm before noise flooring (``field`` > 0).

    A power of +inf dBm (``field / reference_field`` overflows) is a DomainError.
    """
    field = _finite("field", field, positive=True)
    return _beat(_terms(channel), field, delta_f)[0][()]


def beat_power(channel, field, delta_f):
    """Observed beat power in dBm: signal power-summed with the noise floor.

    A zero field returns the noise floor exactly.
    """
    field = _finite("field", field)
    return _beat(_terms(channel), field, delta_f)[1][()]


def min_detectable_field(channel, delta_f=0.0):
    """Field (V/cm) whose beat signal power equals the noise floor."""
    terms = _terms(channel)
    return _beat(terms, terms.reference_field, delta_f)[2][()]


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
    # Read-only 1-D float views, of the caller's arrays where they are float
    # already; one field is broadcast to every frequency, not copied.
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float)).view()
    message = "stimulus needs a non-empty 1-D array of frequencies"
    require(frequencies.ndim == 1 and frequencies.size > 0, DomainError, message)
    given = np.asarray(fields, dtype=float)
    message = "stimulus needs one field or one per frequency, got {} fields for {} frequencies"
    ok = given.size == 1 or given.shape == frequencies.shape
    require(ok, DomainError, message, given.size, frequencies.size)
    fields = np.broadcast_to(given.reshape(-1), frequencies.shape)
    _finite("signal frequency", frequencies, positive=True)
    _finite("field", given)
    frequencies.flags.writeable = False
    return frequencies, fields


# One evaluated signal frequency read on a channel: the record type of
# ``stitched_response`` and of ``evaluate_channels``.
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


# Rows per block of a pass over a stimulus, and of every CSV table that
# scenarios streams, so that a block's temporaries stay in the CPU cache. On a
# 2-vCPU Xeon VM, streamed broadband-sweep runs of bench/run.py took
# op_ms_p90 102 ms at 8192 and 108 ms at 4096 (6 seeds).
_BLOCK = 8192


def row_blocks(size: int, group: int = 1) -> Iterator[slice]:
    """Consecutive blocks of ``size`` rows that fall in runs of ``group``: each
    block is as many whole runs as fit in a block, or part of one run where a
    run is longer. These are the blocks of :func:`response_blocks` and of the
    tables that :mod:`starkcomb.scenarios` writes."""
    step = max(_BLOCK // group, 1) * group
    width = min(step, _BLOCK)
    for runs in range(0, size, step):
        end = min(runs + step, size)
        for start in range(runs, end, width):
            yield slice(start, min(start + width, end))


def _lines(plan: CellArrayPlan, channels: np.recarray) -> np.ndarray:
    # The plan's line frequencies, once the plan is checked against the
    # channels: one channel per entry, entries in ascending line order.
    require(len(plan.entries) > 0, PlannerError, "plan has no entries")
    message = f"got {np.size(channels)} channel responses for {len(plan.entries)} plan entries"
    require(np.shape(channels) == (len(plan.entries),), PlannerError, message)
    lines = plan.entries.line_frequency
    message = "plan entries must be ordered by ascending line frequency"
    require(np.diff(lines) >= 0, PlannerError, message)
    return lines


def _row(channel, line_frequency, frequency, field) -> tuple[np.ndarray, ...]:
    # The BeatRow columns from delta_f on, of each frequency and field read on
    # a channel (terms from _terms) whose comb line is at line_frequency.
    delta_f = frequency - line_frequency
    _, power, detectable = _beat(channel, field, delta_f)
    above = (field > 0) & (field >= detectable)
    in_band = np.abs(delta_f) <= channel.half_width_3db
    return delta_f, power, above, in_band


def _table(size: int, blocks) -> np.recarray:
    # A read-only BeatRow table of ``size`` rows, filled from the pairs of a
    # block of rows and its tuple of BeatRow columns.
    rows = np.recarray(size, BeatRow)
    for block, values in blocks:
        for name, value in zip(BeatRow.names, values):
            rows[name][block] = value
    rows.flags.writeable = False
    return rows


def response_blocks(
    plan: CellArrayPlan, channels: np.recarray, frequencies, fields
) -> Iterator[tuple[np.ndarray, ...]]:
    """The rows of :func:`stitched_response` as they are evaluated: for each
    block of :func:`row_blocks`, a tuple of its :data:`BeatRow` columns. The
    stimulus and the plan are checked at the call, and each block is routed
    and evaluated when it is taken."""
    frequencies, fields = _stimulus(frequencies, fields)
    lines = _lines(plan, channels)
    # The channel terms by plan entry: rows of one table, which each block
    # gathers from.
    columns = {"line_frequency": lines, **vars(_terms(channels))}
    table = np.array(list(columns.values()))
    line_index = plan.entries.line_index

    def evaluate(block: slice) -> tuple[np.ndarray, ...]:
        frequency, field = frequencies[block], fields[block]
        i = nearest_line_index(lines, frequency)
        channel = SimpleNamespace(**dict(zip(columns, table.take(i, axis=1))))
        return frequency, line_index[i], *_row(channel, channel.line_frequency, frequency, field)

    return map(evaluate, row_blocks(frequencies.size))


def evaluate_channels(
    plan: CellArrayPlan, channels: np.recarray, frequency: float, field: float
) -> np.recarray:
    """Beat response of every channel to a single tone (isolation checks): a
    read-only :data:`BeatRow` record array, one row per plan entry."""
    frequency, field = _stimulus(frequency, field)
    message = "a single tone needs one frequency, got {}"
    require(frequency.size == 1, DomainError, message, frequency.size)
    lines = _lines(plan, channels)
    row = _row(_terms(channels), lines, frequency, field)
    return _table(lines.size, [(slice(None), (frequency, plan.entries.line_index, *row))])


def stitched_response(
    plan: CellArrayPlan, channels: np.recarray, frequencies, fields
) -> np.recarray:
    """Broadband response stitched from the per-cell channels: a read-only
    :data:`BeatRow` record array, one row per frequency.

    ``frequencies`` (Hz) is a non-empty 1-D array; ``fields`` (V/cm) gives
    one field per frequency, or one for all. Non-finite or negative values
    raise :class:`DomainError`. Each frequency is routed to its nearest comb
    line and evaluated on that cell's channel; with monotone rolloff and
    equalized channels this per-frequency winner is the maximum over all
    channels, so the rows trace the stitched broadband curve. Frequencies
    outside every channel's 3 dB band are still evaluated but flagged
    ``in_band = False``.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    blocks = response_blocks(plan, channels, frequencies, fields)
    return _table(frequencies.size, zip(row_blocks(frequencies.size), blocks))
