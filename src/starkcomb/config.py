"""Configuration schema: validation, defaults, and model assembly.

A configuration is a YAML mapping with the sections ``transition``,
``profile``, ``comb``, ``channel``, ``planner``, ``ladder``, and
``scenarios``. Loading merges the user file over the bundled defaults. One
walk over one schema table, which mirrors the bundled defaults, checks every
leaf (errors name the offending key and constraint), converts it to model
units and returns each section as the keyword arguments of its constructor:
the Stark transition, the fitted field profile, the comb, the channel
calibration, and the ladder system. The channels, one per comb line, are
calibrated on first use of ``ReceiverConfig.channels``. Row counts are
capped at ``MAX_ROWS``. The canonical merged mapping is retained for hashing
so scenario outputs can embed a configuration fingerprint.

The bundled defaults are parsed once per process, on first use; every
configuration gets its own copy, so mutating ``ReceiverConfig.data`` never
changes a later load.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from importlib import resources
from pathlib import Path

import yaml

from .bloch import LadderSystem
from .comb import MAX_LEVEL_DB, FrequencyComb
from .errors import ConfigError, StarkCombError
from .field_map import FieldProfile, fit_profile
from .receiver import ChannelResponse, beat_signal_power, channel_columns, far_field_strength
from .stark import RydbergTransition

__all__ = [
    "MAX_ROWS",
    "ChannelDefaults",
    "ReceiverConfig",
    "build_channels",
    "default_config",
    "load_config",
]

# The most rows a configuration may ask for: comb lines, scenario points, and
# the linearity scenario's lines x points. It bounds the memory and time a
# file can demand; the bundled and benchmark designs stay far below it.
MAX_ROWS = 1_000_000

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ChannelDefaults:
    """Calibration inputs shared by every channel of an array."""

    half_width_3db: float
    rolloff_order: int
    peak_power: float
    reference_field: float
    reference_detuning: float
    center_e_det: float
    edge_e_det: float
    gain_scale_endpoints: tuple[float, float]


@dataclass(frozen=True)
class ReceiverConfig:
    """Fully validated configuration with all defaults filled."""

    transition: RydbergTransition
    profile: FieldProfile
    comb: FrequencyComb
    channel_defaults: ChannelDefaults
    ladder: LadderSystem
    placement_tolerance: float
    min_gap: float
    measurement_time: float
    scenarios: dict
    data: dict

    @property
    def sha256(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @cached_property
    def channels(self) -> tuple[ChannelResponse, ...]:
        """One calibrated channel per comb line, built on first use; may raise ConfigError."""
        return _construct(
            "channel", build_channels, self.channel_defaults, self.comb.line_count
        )


def _is_number(value) -> bool:
    """A finite int or float (booleans excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# Leaf checks: each takes the raw value (None when the key is absent or null)
# and its dotted path, and returns the value in model form or raises.


def _number(value, path: str) -> float:
    if value is None:
        raise ConfigError(f"{path} is required")
    if not _is_number(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _bounded(constraint: str, test):
    def check(value, path: str) -> float:
        value = _number(value, path)
        if not test(value):
            raise ConfigError(f"{path} must be {constraint}, got {value}")
        return value

    return check


_positive = _bounded("> 0", lambda value: value > 0)
_non_negative = _bounded(">= 0", lambda value: value >= 0)
_level = _bounded(f"within +/-{MAX_LEVEL_DB:.1f} dBm", lambda value: abs(value) < MAX_LEVEL_DB)


def _count(minimum: int, maximum: float = math.inf):
    def check(value, path: str) -> int:
        if value is None:
            raise ConfigError(f"{path} is required")
        if not (isinstance(value, int) and _is_number(value)):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{path} must be >= {minimum}, got {value}")
        if value > maximum:
            raise ConfigError(f"{path} must be <= {maximum}, got {value}")
        return value

    return check


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _levels(value, path: str) -> tuple[float, ...] | None:
    # Optional; its length is checked against comb.line_count after the walk.
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        _is_number(p) and abs(p) < MAX_LEVEL_DB for p in value
    ):
        raise ConfigError(
            f"{path} must be a list of numbers within +/-{MAX_LEVEL_DB:.1f} dBm"
        )
    return tuple(float(p) for p in value)


def _gain_pair(value, path: str) -> tuple[float, float]:
    if value is None:
        raise ConfigError(f"{path} is required")
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(_is_number(g) and g > 0 for g in value)
    ):
        raise ConfigError(f"{path} must be two positive numbers [center, edge]")
    return float(value[0]), float(value[1])


def _anchors(value, path: str) -> list[tuple[float, float]]:
    if value is None:
        raise ConfigError(f"{path} is required")
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list")
    anchors = []
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}[{i}] must be a mapping")
        for key in item:
            if key not in _ANCHOR:
                raise ConfigError(f"unknown configuration key {f'{path}[{i}].{key}'!r}")
        anchors.append(tuple(_validated(item, _ANCHOR, f"{path}[{i}]").values()))
    return anchors


# Unit conversions, each in the operation order of its model formula, so no
# bit moves. Rounding Hz to the mHz grain removes double-rounding dust
# (8.13 GHz * 1e9 would otherwise end in ...000.000001 Hz).
_GHZ = lambda value: round(value * 1e9, 3)
_MHZ = lambda value: round(value * 1e6, 3)
_KHZ = lambda value: round(value * 1e3, 3)
_RAD_MHZ = lambda value: value * _TWO_PI * 1e6
_RAD_KHZ = lambda value: value * _TWO_PI * 1e3
_NANO = lambda value: value * 1e-9

# The schema, in the order of the bundled defaults. A nested mapping is a
# section; a leaf maps its key to (model argument, check[, conversion]).
_ANCHOR = {
    "position_cm": ("position", _number),
    "transition_frequency_ghz": ("frequency", _positive, _GHZ),
}
_SCHEMA = {
    "transition": {
        "field_free_frequency_ghz": ("field_free_frequency", _positive, _GHZ),
        "differential_polarizability_mhz_per_v2_cm2": (
            "differential_polarizability", _non_negative, lambda value: value * 1e6
        ),
        "label": ("label", lambda value, path: str(value or "")),
    },
    "profile": {
        "anchors": ("anchors", _anchors),
        "offset_cm": ("offset", _non_negative),
        "decay_exponent": ("decay_exponent", _optional(_positive)),
    },
    "comb": {
        "center_frequency_ghz": ("center_frequency", _positive, _GHZ),
        "line_spacing_mhz": ("line_spacing", _positive, _MHZ),
        "line_count": ("line_count", _count(1, MAX_ROWS)),
        "total_power_dbm": ("total_power", _level),
        "per_line_power_dbm": ("per_line_power", _levels),
    },
    "channel": {
        "half_width_3db_mhz": ("half_width_3db", _positive, _MHZ),
        "rolloff_order": ("rolloff_order", _count(1)),
        "peak_power_dbm": ("peak_power", _level),
        "reference_detuning_khz": ("reference_detuning", _number, _KHZ),
        "center_min_detectable_field_nv_cm": ("center_e_det", _positive, _NANO),
        # Divided by sqrt(measurement_time) after the walk.
        "edge_sensitivity_nv_cm_sqrt_hz": ("edge_e_det", _positive, _NANO),
        "measurement_time_s": ("measurement_time", _positive),
        "gain_scale_endpoints": ("gain_scale_endpoints", _gain_pair),
        "stimulus": {
            "power_dbm": ("power", _level, lambda dbm: 10.0 ** ((dbm - 30.0) / 10.0)),
            "antenna_gain": ("gain", _positive),
            "distance_m": ("distance", _positive),
            "perturbation_factor": ("perturbation", _positive),
        },
    },
    "planner": {
        "placement_tolerance_hz": ("placement_tolerance", _positive),
        "min_gap_cm": ("min_gap", _non_negative),
    },
    "ladder": {
        "probe_rabi_mhz": ("probe_rabi", _positive, _RAD_MHZ),
        "coupling_rabi_mhz": ("coupling_rabi", _non_negative, _RAD_MHZ),
        "mw_rabi_mhz": ("mw_rabi", _non_negative, _RAD_MHZ),
        "decay_e_mhz": ("decay_e", _positive, _RAD_MHZ),
        "decay_r1_khz": ("decay_r1", _non_negative, _RAD_KHZ),
        "decay_r2_khz": ("decay_r2", _non_negative, _RAD_KHZ),
        "dephasing_khz": ("dephasing", _non_negative, _RAD_KHZ),
    },
    "scenarios": {
        "response": {
            "start_ghz": ("start", _positive, _GHZ),
            "stop_ghz": ("stop", _positive, _GHZ),
            "points": ("points", _count(2, MAX_ROWS)),
            "field_v_cm": ("field", _optional(_non_negative)),
        },
        "linearity": {
            "min_field_v_cm": ("min_field", _positive),
            "max_field_v_cm": ("max_field", _positive),
            "points": ("points", _count(2, MAX_ROWS)),
        },
        "sensitivity": {},
        "sweep2cell": {
            "low_line_ghz": ("low_line", _positive, _GHZ),
            "high_line_ghz": ("high_line", _positive, _GHZ),
            "start_ghz": ("start", _positive, _GHZ),
            "stop_ghz": ("stop", _positive, _GHZ),
            "points": ("points", _count(2, MAX_ROWS)),
            "field_v_cm": ("field", _optional(_non_negative)),
        },
        "eit": {
            "probe_span_mhz": ("probe_span", _positive, _MHZ),
            "points": ("points", _count(3, MAX_ROWS)),
        },
    },
}

# Scenario keys whose converted values must be strictly ordered.
_ORDERED = (
    ("response", "start_ghz", "stop_ghz"),
    ("linearity", "min_field_v_cm", "max_field_v_cm"),
    ("sweep2cell", "low_line_ghz", "high_line_ghz"),
    ("sweep2cell", "start_ghz", "stop_ghz"),
)


def _validated(node: dict, table: dict = _SCHEMA, path: str = "") -> dict:
    """Each leaf of ``table`` checked and converted, by model argument; sections nest."""
    out = {}
    for key, spec in table.items():
        where = f"{path}.{key}" if path else key
        value = node.get(key)
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be a mapping")
            out[key] = _validated(value, spec, where)
        else:
            arg, check, *convert = spec
            value = check(value, where)
            out[arg] = convert[0](value) if convert else value
    return out


def _construct(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a model error reported as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except StarkCombError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """``override`` merged over ``base`` as a fresh tree sharing no node with either.

    Each node is copied once: overridden leaves from ``override``, every
    subtree left alone from ``base``. Keys keep the order of ``base``.
    """
    merged = {}
    for key, value in override.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"unknown configuration key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            merged[key] = _merge(base[key], value, where)
        else:
            merged[key] = copy.deepcopy(value)
    return {
        key: merged[key] if key in merged else copy.deepcopy(value)
        for key, value in base.items()
    }


@cache
def _default_data() -> dict:
    # Shared by every load: never handed out, only merged over or copied.
    text = (
        resources.files("starkcomb").joinpath("data/default_config.yaml").read_text()
    )
    return yaml.safe_load(text)


def default_config() -> ReceiverConfig:
    """The bundled default configuration."""
    return _build(copy.deepcopy(_default_data()))


def load_config(path: str | Path) -> ReceiverConfig:
    """Load, validate, and assemble a configuration file.

    The file is merged over the bundled defaults, so partial configurations
    that override a few keys are valid. Raises :class:`ConfigError` naming
    the offending field for any parse or schema violation.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(f"config file {path} is empty")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    return _build(_merge(_default_data(), data))


def build_channels(
    defaults: ChannelDefaults, line_count: int
) -> tuple[ChannelResponse, ...]:
    """One calibrated channel per comb line.

    The minimum detectable field and the gain scale interpolate linearly in
    line index between their center and edge values; each channel's noise
    floor is then set so it detects exactly its target field.
    """
    center = (line_count - 1) / 2.0
    ts = [abs(k - center) / center if line_count > 1 else 0.0 for k in range(line_count)]
    g0, g1 = defaults.gain_scale_endpoints
    e0, e1 = defaults.center_e_det, defaults.edge_e_det
    gains = [g0 + t * (g1 - g0) for t in ts]
    channel = partial(
        ChannelResponse,
        peak_power=defaults.peak_power,
        reference_field=defaults.reference_field,
        half_width_3db=defaults.half_width_3db,
        rolloff_order=defaults.rolloff_order,
    )
    bases = [channel(noise_floor=defaults.peak_power - 200.0, gain_scale=g) for g in gains]
    # Each floor is the signal power of the channel's target field, as in
    # calibrate_noise_floor, for all channels in one array call.
    targets = [e0 + t * (e1 - e0) for t in ts]
    floors = beat_signal_power(channel_columns(bases), targets, defaults.reference_detuning)
    return tuple(
        channel(noise_floor=f, gain_scale=g) for g, f in zip(gains, floors.tolist())
    )


def _build(data: dict) -> ReceiverConfig:
    sections = _validated(data)
    comb, channel, scenarios = sections["comb"], sections["channel"], sections["scenarios"]
    per_line = comb["per_line_power"]
    if per_line is not None and len(per_line) != comb["line_count"]:
        raise ConfigError(
            f"comb.per_line_power_dbm has {len(per_line)} entries but "
            f"comb.line_count is {comb['line_count']}"
        )
    for name, low, high in _ORDERED:
        params, table = scenarios[name], _SCHEMA["scenarios"][name]
        if not params[table[low][0]] < params[table[high][0]]:
            raise ConfigError(f"scenarios.{name}: {low} must be below {high}")

    transition = _construct("transition", RydbergTransition, **sections["transition"])
    stimulus = channel.pop("stimulus")
    measurement_time = channel.pop("measurement_time")
    channel["edge_e_det"] /= math.sqrt(measurement_time)
    # V/m -> V/cm
    reference_field = _construct("channel.stimulus", far_field_strength, **stimulus) / 100.0
    return ReceiverConfig(
        transition=transition,
        profile=_construct("profile", fit_profile, transition=transition, **sections["profile"]),
        comb=_construct("comb", FrequencyComb, **comb),
        channel_defaults=ChannelDefaults(reference_field=reference_field, **channel),
        ladder=_construct("ladder", LadderSystem, **sections["ladder"]),
        measurement_time=measurement_time,
        scenarios=scenarios,
        data=data,
        **sections["planner"],
    )
