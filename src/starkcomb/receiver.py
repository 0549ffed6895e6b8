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
and detunings, and a channel row or a table of them (one per point);
:func:`stitched_response` evaluates a whole stimulus in one array pass.

All fields are in V/cm, powers in dBm, frequencies in Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comb import CellArrayPlan, nearest_line_index
from .errors import DomainError, PlannerError

__all__ = [
    "ChannelRow",
    "channel_table",
    "SignalScenario",
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


def _require(ok, message: str, *columns) -> None:
    # Raise ``message`` formatted with the first failing element's values.
    if not ok.all():
        k = np.argmin(ok.ravel())
        raise DomainError(message.format(*(c.ravel()[k].item() for c in columns)))


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
        _require((0 < values) & (values < math.inf), f"{name} must be > 0, got {{}}", values)
    integer = (order >= 1) & (order < math.inf) & (np.floor(order) == order)
    _require(integer, "rolloff_order must be a positive integer, got {}", order)
    _require((0 < gain) & (gain < math.inf), "gain_scale must be > 0, got {}", gain)
    ordered = (-math.inf < floor) & (floor < peak) & (peak < math.inf)
    message = "noise_floor ({} dBm) must be below peak_power ({} dBm), both finite"
    _require(ordered, message, floor, peak)
    table = np.rec.fromarrays(columns, dtype=ChannelRow)
    table.flags.writeable = False
    return table


def _finite(name: str, values, positive: bool = False) -> np.ndarray:
    # Written so that NaN fails the check.
    values = np.asarray(values, dtype=float)
    ok = (values > 0 if positive else values >= 0) & (values < np.inf)
    _require(ok, f"{name} must be finite and {'>' if positive else '>='} 0, got {{}}", values)
    return values


def rolloff(channel, delta_f):
    """Power response |H(delta_f)|^2, exactly 1/2 at the 3 dB half-width."""
    x = np.abs(delta_f) / channel.half_width_3db
    return 1.0 / (1.0 + x ** (2 * channel.rolloff_order))


def _gain_db(channel, lead_db, delta_f):
    # The one dB sum of the channel model, in this order:
    # lead + 10 log10 |H(delta_f)|^2 + 20 log10 gain_scale.
    # A rolloff that underflows to 0 far off line gives -inf dB.
    with np.errstate(divide="ignore", over="ignore"):
        return (
            lead_db
            + 10.0 * np.log10(rolloff(channel, delta_f))
            + 20.0 * np.log10(channel.gain_scale)
        )


def beat_signal_power(channel, field, delta_f):
    """Beat-note signal power in dBm before noise flooring (``field`` > 0).

    A power of +inf dBm (``field / reference_field`` overflows) is a DomainError.
    """
    field = _finite("field", field, positive=True)
    with np.errstate(over="ignore"):
        lead = channel.peak_power + 20.0 * np.log10(field / channel.reference_field)
    s = _gain_db(channel, lead, delta_f)
    _require(s < math.inf, "beat signal power must be below +inf dBm, got {}", s)
    return s[()]


def beat_power(channel, field, delta_f):
    """Observed beat power in dBm: signal power-summed with the noise floor.

    A zero field returns the noise floor exactly.
    """
    field = _finite("field", field)
    # A zero field is evaluated at the reference field, then replaced.
    positive = np.where(field > 0, field, channel.reference_field)
    s = beat_signal_power(channel, positive, delta_f)
    floor = channel.noise_floor
    with np.errstate(over="ignore", divide="ignore"):
        power = 10.0 * np.log10(10.0 ** (s / 10.0) + 10.0 ** (floor / 10.0))
        # Where the direct sum leaves the float range, factor out the larger term.
        if not np.isfinite(power).all():
            hi, lo = np.maximum(s, floor), np.minimum(s, floor)
            factored = hi + 10.0 * np.log10(1.0 + 10.0 ** ((lo - hi) / 10.0))
            power = np.where(np.isfinite(power), power, factored)
    return np.where(field == 0, floor, power)[()]


def min_detectable_field(channel, delta_f=0.0):
    """Field (V/cm) whose beat signal power equals the noise floor."""
    # The reference field's signal sits margin dB above the floor.
    margin = _gain_db(channel, channel.peak_power - channel.noise_floor, delta_f)
    # Below about -6160 dB the power overflows: no field is detectable (inf).
    with np.errstate(over="ignore"):
        return channel.reference_field * 10.0 ** (-margin / 20.0)


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
    if not power >= 0:
        raise DomainError(f"power must be >= 0, got {power}")
    if not gain > 0:
        raise DomainError(f"gain must be > 0, got {gain}")
    if not distance > 0:
        raise DomainError(f"distance must be > 0, got {distance}")
    if not perturbation > 0:
        raise DomainError(f"perturbation must be > 0, got {perturbation}")
    return perturbation * math.sqrt(30.0 * power * gain) / distance


def _stimulus(frequencies, fields) -> tuple[np.ndarray, np.ndarray]:
    # Read-only 1-D float arrays; a scalar field applies to every frequency.
    frequencies = np.array(frequencies, dtype=float, ndmin=1)
    if frequencies.ndim != 1 or not frequencies.size:
        raise DomainError("stimulus needs a non-empty 1-D array of frequencies")
    fields = np.array(np.broadcast_to(fields, frequencies.shape), dtype=float)
    _finite("signal frequency", frequencies, positive=True)
    _finite("field", fields)
    frequencies.flags.writeable = fields.flags.writeable = False
    return frequencies, fields


@dataclass(frozen=True, eq=False)
class SignalScenario:
    """Input microwave stimulus: a tone list or a linear frequency sweep.

    ``frequencies`` (Hz) and ``fields`` (V/cm) are equal-length read-only
    arrays in evaluation order. Build them with :meth:`tone_list` or
    :meth:`linear_sweep`.
    """

    frequencies: np.ndarray = ()
    fields: np.ndarray = ()

    def __post_init__(self) -> None:
        frequencies, fields = _stimulus(self.frequencies, self.fields)
        object.__setattr__(self, "frequencies", frequencies)
        object.__setattr__(self, "fields", fields)

    @classmethod
    def tone_list(cls, tones, fields=None) -> "SignalScenario":
        """Tones from a sequence of ``(frequency, field)`` pairs, or from a
        frequency array and a field array (or one field for every tone)."""
        if fields is None:
            tones, fields = np.asarray(tones, dtype=float).reshape(len(tones), 2).T
        return cls(tones, fields)

    @classmethod
    def linear_sweep(
        cls, start: float, stop: float, points: int, field: float
    ) -> "SignalScenario":
        if not 0 < start < stop < math.inf:
            raise DomainError(f"sweep needs 0 < start < stop < inf, got [{start}, {stop}]")
        if not points >= 2:
            raise DomainError(f"sweep needs at least 2 points, got {points}")
        return cls(np.linspace(start, stop, points), field)


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


def _evaluate(
    plan: CellArrayPlan,
    channels: np.recarray,
    frequencies: np.ndarray,
    fields: np.ndarray,
    index: np.ndarray | None = None,
) -> np.recarray:
    # Point j is read out on plan entry index[j], by default the entry of its
    # nearest line; every point is evaluated in one array pass.
    if not len(plan.entries):
        raise PlannerError("plan has no entries")
    if np.shape(channels) != (len(plan.entries),):
        raise PlannerError(
            f"got {np.size(channels)} channel responses for {len(plan.entries)} plan entries"
        )
    lines = plan.entries.line_frequency
    if not np.all(np.diff(lines) >= 0):
        raise PlannerError("plan entries must be ordered by ascending line frequency")
    if index is None:
        index = nearest_line_index(lines, frequencies)
    frequencies, fields, index = np.broadcast_arrays(frequencies, fields, index)
    # take, not channels[index]: fancy indexing a structured dtype is slow.
    channel = channels.take(index)
    delta_f = frequencies - lines[index]
    rows = np.rec.fromarrays(
        [
            frequencies,
            plan.entries.line_index[index],
            delta_f,
            beat_power(channel, fields, delta_f),
            (fields > 0) & (fields >= min_detectable_field(channel, delta_f)),
            np.abs(delta_f) <= channel.half_width_3db,
        ],
        dtype=BeatRow,
    )
    rows.flags.writeable = False
    return rows


def evaluate_channels(
    plan: CellArrayPlan, channels: np.recarray, frequency: float, field: float
) -> np.recarray:
    """Beat response of every channel to a single tone (isolation checks)."""
    index = np.arange(len(plan.entries))
    return _evaluate(plan, channels, *_stimulus(frequency, field), index)


def stitched_response(
    plan: CellArrayPlan, channels: np.recarray, scenario: SignalScenario
) -> BeatSpectrum:
    """Broadband response stitched from the per-cell channels.

    Each stimulus frequency is routed to its nearest comb line and evaluated
    on that cell's channel; with monotone rolloff and equalized channels this
    per-frequency winner is the maximum over all channels, so the rows trace
    the stitched broadband curve. Frequencies outside every channel's 3 dB
    band are still evaluated but flagged ``in_band = False``.
    """
    return BeatSpectrum(
        rows=_evaluate(plan, channels, scenario.frequencies, scenario.fields)
    )
