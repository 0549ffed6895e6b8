"""Configuration schema: validation, defaults, and model assembly.

A configuration is a YAML mapping with the sections ``transition``,
``profile``, ``comb``, ``channel``, ``planner``, ``ladder``, and
``scenarios``. Loading merges the user file over the bundled defaults,
validates every field (errors name the offending key and constraint), and
assembles the domain objects: the Stark transition, the fitted field
profile, the comb, one calibrated channel per comb line, and the ladder
system. The canonical merged mapping is retained for hashing so scenario
outputs can embed a configuration fingerprint.

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
from functools import cache, partial
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
    "ChannelDefaults",
    "ReceiverConfig",
    "build_channels",
    "default_config",
    "load_config",
]

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
    channels: tuple[ChannelResponse, ...]
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


def _to_hz(value: float, factor: float) -> float:
    # Rounding to the mHz grain removes double-rounding dust from unit
    # conversion (8.13 GHz * 1e9 would otherwise end in ...000.000001 Hz).
    return round(value * factor, 3)


def _get(section: dict, key: str, path: str):
    if key not in section or section[key] is None:
        raise ConfigError(f"{path}.{key} is required")
    return section[key]


def _is_number(value) -> bool:
    """A finite int or float (booleans excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _number(section: dict, key: str, path: str) -> float:
    value = _get(section, key, path)
    if not _is_number(value):
        raise ConfigError(f"{path}.{key} must be a finite number, got {value!r}")
    return float(value)


def _level(section: dict, key: str, path: str) -> float:
    value = _number(section, key, path)
    if not abs(value) < MAX_LEVEL_DB:
        raise ConfigError(f"{path}.{key} must be within +/-{MAX_LEVEL_DB:.1f} dBm, got {value}")
    return value


def _positive(section: dict, key: str, path: str) -> float:
    value = _number(section, key, path)
    if value <= 0:
        raise ConfigError(f"{path}.{key} must be > 0, got {value}")
    return value


def _non_negative(section: dict, key: str, path: str) -> float:
    value = _number(section, key, path)
    if value < 0:
        raise ConfigError(f"{path}.{key} must be >= 0, got {value}")
    return value


def _integer(section: dict, key: str, path: str, minimum: int = 1) -> int:
    value = _get(section, key, path)
    if not (isinstance(value, int) and _is_number(value)):
        raise ConfigError(f"{path}.{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}.{key} must be >= {minimum}, got {value}")
    return value


def _section(data: dict, key: str) -> dict:
    value = data.get(key)
    if not isinstance(value, dict):
        raise ConfigError(f"section {key!r} must be a mapping")
    return value


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


def _build_transition(data: dict) -> RydbergTransition:
    section = _section(data, "transition")
    f0 = _to_hz(_positive(section, "field_free_frequency_ghz", "transition"), 1e9)
    dpol = (
        _non_negative(section, "differential_polarizability_mhz_per_v2_cm2", "transition")
        * 1e6
    )
    label = section.get("label") or ""
    try:
        return RydbergTransition(
            field_free_frequency=f0, differential_polarizability=dpol, label=str(label)
        )
    except StarkCombError as exc:
        raise ConfigError(f"transition: {exc}") from exc


def _build_profile(data: dict, transition: RydbergTransition) -> FieldProfile:
    section = _section(data, "profile")
    raw_anchors = _get(section, "anchors", "profile")
    if not isinstance(raw_anchors, list) or not raw_anchors:
        raise ConfigError("profile.anchors must be a non-empty list")
    anchors = []
    for i, item in enumerate(raw_anchors):
        if not isinstance(item, dict):
            raise ConfigError(f"profile.anchors[{i}] must be a mapping")
        x = _number(item, "position_cm", f"profile.anchors[{i}]")
        f = _to_hz(
            _positive(item, "transition_frequency_ghz", f"profile.anchors[{i}]"), 1e9
        )
        anchors.append((x, f))
    offset = _non_negative(section, "offset_cm", "profile")
    exponent = section.get("decay_exponent")
    if exponent is not None:
        exponent = _positive(section, "decay_exponent", "profile")
    try:
        return fit_profile(
            anchors, transition, offset=offset, decay_exponent=exponent
        )
    except StarkCombError as exc:
        raise ConfigError(f"profile: {exc}") from exc


def _build_comb(data: dict) -> FrequencyComb:
    section = _section(data, "comb")
    count = _integer(section, "line_count", "comb")
    per_line = section.get("per_line_power_dbm")
    if per_line is not None:
        if not isinstance(per_line, list) or not all(
            _is_number(p) and abs(p) < MAX_LEVEL_DB for p in per_line
        ):
            raise ConfigError(
                "comb.per_line_power_dbm must be a list of numbers within "
                f"+/-{MAX_LEVEL_DB:.1f} dBm"
            )
        if len(per_line) != count:
            raise ConfigError(
                f"comb.per_line_power_dbm has {len(per_line)} entries but "
                f"comb.line_count is {count}"
            )
    center = _to_hz(_positive(section, "center_frequency_ghz", "comb"), 1e9)
    spacing = _to_hz(_positive(section, "line_spacing_mhz", "comb"), 1e6)
    total_power = _level(section, "total_power_dbm", "comb")
    try:
        return FrequencyComb(
            center_frequency=center,
            line_spacing=spacing,
            line_count=count,
            per_line_power=tuple(float(p) for p in per_line) if per_line else (),
            total_power=total_power,
        )
    except StarkCombError as exc:
        raise ConfigError(f"comb: {exc}") from exc


def _build_channel_defaults(data: dict) -> tuple[ChannelDefaults, float]:
    section = _section(data, "channel")
    stimulus = _section(section, "stimulus")
    power_w = 10.0 ** ((_level(stimulus, "power_dbm", "channel.stimulus") - 30.0) / 10.0)
    gain = _positive(stimulus, "antenna_gain", "channel.stimulus")
    distance = _positive(stimulus, "distance_m", "channel.stimulus")
    perturbation = _positive(stimulus, "perturbation_factor", "channel.stimulus")
    try:
        # V/m -> V/cm
        reference_field = far_field_strength(power_w, gain, distance, perturbation) / 100.0
    except StarkCombError as exc:
        raise ConfigError(f"channel.stimulus: {exc}") from exc

    measurement_time = _positive(section, "measurement_time_s", "channel")
    center_e_det = (
        _positive(section, "center_min_detectable_field_nv_cm", "channel") * 1e-9
    )
    edge_e_det = (
        _positive(section, "edge_sensitivity_nv_cm_sqrt_hz", "channel")
        * 1e-9
        / math.sqrt(measurement_time)
    )

    endpoints = _get(section, "gain_scale_endpoints", "channel")
    if (
        not isinstance(endpoints, list)
        or len(endpoints) != 2
        or not all(_is_number(g) and g > 0 for g in endpoints)
    ):
        raise ConfigError(
            "channel.gain_scale_endpoints must be two positive numbers "
            "[center, edge]"
        )

    defaults = ChannelDefaults(
        half_width_3db=_to_hz(_positive(section, "half_width_3db_mhz", "channel"), 1e6),
        rolloff_order=_integer(section, "rolloff_order", "channel"),
        peak_power=_level(section, "peak_power_dbm", "channel"),
        reference_field=reference_field,
        reference_detuning=_to_hz(
            _number(section, "reference_detuning_khz", "channel"), 1e3
        ),
        center_e_det=center_e_det,
        edge_e_det=edge_e_det,
        gain_scale_endpoints=(float(endpoints[0]), float(endpoints[1])),
    )
    return defaults, measurement_time


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


def _build_ladder(data: dict) -> LadderSystem:
    section = _section(data, "ladder")
    rates = dict(
        probe_rabi=_positive(section, "probe_rabi_mhz", "ladder") * _TWO_PI * 1e6,
        coupling_rabi=_non_negative(section, "coupling_rabi_mhz", "ladder") * _TWO_PI * 1e6,
        mw_rabi=_non_negative(section, "mw_rabi_mhz", "ladder") * _TWO_PI * 1e6,
        decay_e=_positive(section, "decay_e_mhz", "ladder") * _TWO_PI * 1e6,
        decay_r1=_non_negative(section, "decay_r1_khz", "ladder") * _TWO_PI * 1e3,
        decay_r2=_non_negative(section, "decay_r2_khz", "ladder") * _TWO_PI * 1e3,
        dephasing=_non_negative(section, "dephasing_khz", "ladder") * _TWO_PI * 1e3,
    )
    try:
        return LadderSystem(**rates)
    except StarkCombError as exc:
        raise ConfigError(f"ladder: {exc}") from exc


def _validate_scenarios(data: dict) -> dict:
    section = _section(data, "scenarios")
    out: dict = {}

    sweep = _section(section, "response")
    out["response"] = {
        "start": _to_hz(_positive(sweep, "start_ghz", "scenarios.response"), 1e9),
        "stop": _to_hz(_positive(sweep, "stop_ghz", "scenarios.response"), 1e9),
        "points": _integer(sweep, "points", "scenarios.response", minimum=2),
        "field": _optional_field(sweep, "scenarios.response"),
    }
    if not out["response"]["start"] < out["response"]["stop"]:
        raise ConfigError("scenarios.response: start_ghz must be below stop_ghz")

    lin = _section(section, "linearity")
    out["linearity"] = {
        "min_field": _positive(lin, "min_field_v_cm", "scenarios.linearity"),
        "max_field": _positive(lin, "max_field_v_cm", "scenarios.linearity"),
        "points": _integer(lin, "points", "scenarios.linearity", minimum=2),
    }
    if not out["linearity"]["min_field"] < out["linearity"]["max_field"]:
        raise ConfigError(
            "scenarios.linearity: min_field_v_cm must be below max_field_v_cm"
        )

    out["sensitivity"] = {}

    two = _section(section, "sweep2cell")
    out["sweep2cell"] = {
        "low_line": _to_hz(_positive(two, "low_line_ghz", "scenarios.sweep2cell"), 1e9),
        "high_line": _to_hz(_positive(two, "high_line_ghz", "scenarios.sweep2cell"), 1e9),
        "start": _to_hz(_positive(two, "start_ghz", "scenarios.sweep2cell"), 1e9),
        "stop": _to_hz(_positive(two, "stop_ghz", "scenarios.sweep2cell"), 1e9),
        "points": _integer(two, "points", "scenarios.sweep2cell", minimum=2),
        "field": _optional_field(two, "scenarios.sweep2cell"),
    }
    if not out["sweep2cell"]["low_line"] < out["sweep2cell"]["high_line"]:
        raise ConfigError(
            "scenarios.sweep2cell: low_line_ghz must be below high_line_ghz"
        )
    if not out["sweep2cell"]["start"] < out["sweep2cell"]["stop"]:
        raise ConfigError("scenarios.sweep2cell: start_ghz must be below stop_ghz")

    eit = _section(section, "eit")
    out["eit"] = {
        "probe_span": _to_hz(_positive(eit, "probe_span_mhz", "scenarios.eit"), 1e6),
        "points": _integer(eit, "points", "scenarios.eit", minimum=3),
    }
    return out


def _optional_field(section: dict, path: str) -> float | None:
    if section.get("field_v_cm") is None:
        return None
    return _non_negative(section, "field_v_cm", path)


def _build(data: dict) -> ReceiverConfig:
    transition = _build_transition(data)
    profile = _build_profile(data, transition)
    comb = _build_comb(data)
    channel_defaults, measurement_time = _build_channel_defaults(data)
    try:
        channels = build_channels(channel_defaults, comb.line_count)
    except StarkCombError as exc:
        raise ConfigError(f"channel: {exc}") from exc
    ladder = _build_ladder(data)

    planner = _section(data, "planner")
    placement_tolerance = _positive(planner, "placement_tolerance_hz", "planner")
    min_gap = _non_negative(planner, "min_gap_cm", "planner")

    return ReceiverConfig(
        transition=transition,
        profile=profile,
        comb=comb,
        channels=channels,
        channel_defaults=channel_defaults,
        ladder=ladder,
        placement_tolerance=placement_tolerance,
        min_gap=min_gap,
        measurement_time=measurement_time,
        scenarios=_validate_scenarios(data),
        data=data,
    )
