"""Configuration schema: validation, defaults, and model assembly.

A configuration is a YAML mapping with the sections ``transition``,
``profile``, ``comb``, ``channel``, ``planner``, ``ladder``, and
``scenarios``. One walk over one schema table, which mirrors the bundled
defaults, merges a file over those defaults and checks it in the same pass.
At each mapping it rejects unknown keys, then takes each key in schema order:
a section recurses, and a leaf takes the file's value if present, else the
default, as a copy that is checked (errors name the offending key and
constraint), converted to model units and checked again. Of several faults
the first in schema order is reported. The walk returns the merged mapping,
retained for hashing so scenario outputs can embed a configuration
fingerprint, and each section as the keyword arguments of its constructor.
``build_channels`` calibrates one channel per entry of a plan, for the
scenarios that use channels. Row counts are capped at ``MAX_ROWS``.

Every YAML text, a file's and the bundled defaults', is parsed by one
function, ``_parse``. It uses libyaml when PyYAML was built with it (the same
mappings, several times faster) and PyYAML's Python parser otherwise, rejects
a text nested deeper than ``_MAX_DEPTH`` levels or with a merge key before
building it, and turns every loader failure into a ConfigError of one line.
Error texts show a value, or a loader's message, within the display budget of
:mod:`starkcomb.errors`, so no file can make an error text longer than a few
hundred characters. The bundled defaults are parsed once per process and
never handed out: the default configuration is the walk of an empty file.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .bloch import LadderSystem
from .comb import MAX_LEVEL_DB, MAX_ROWS, FrequencyComb
from .errors import ConfigError, StarkCombError, _shown, is_number
from .field_map import FieldProfile, fit_profile
from .receiver import calibrate_noise_floor, channel_table, far_field_strength
from .stark import RydbergTransition

__all__ = [
    "MAX_ROWS",
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


# Leaf checks: each takes the raw value (None when the key is absent or null)
# and its dotted path, and returns the value in model form or raises.


def _leaf(constraint: str, test, convert):
    """A required leaf that passes ``test``, converted; ``constraint`` may show
    ``{value}``, the value as ``_shown`` writes it, or ``{kind}``, its type name."""

    def check(value, path: str):
        if value is None:
            raise ConfigError(f"{path} is required")
        if not test(value):
            shown = constraint.format(value=_shown(value), kind=type(value).__name__)
            raise ConfigError(f"{path} must be {shown}")
        return convert(value)

    return check


def _optional(check, null=None):
    return lambda value, path: null if value is None else check(value, path)


def _numbers(constraint: str, test, length: int | None = None):
    # A list of finite numbers, each passing ``test``, as a tuple of floats.
    def is_list(value) -> bool:
        return isinstance(value, list) and length in (None, len(value)) and all(
            is_number(v) and test(v) for v in value
        )

    return _leaf(constraint, is_list, lambda value: tuple(map(float, value)))


_number = _leaf("a finite number, got {value}", is_number, float)
_integer = _leaf(
    "an integer, got {value}", lambda value: isinstance(value, int) and is_number(value), int
)
# Only a string or null (the empty label); the type alone is shown, never the value.
_label = _optional(_leaf("a string, got {kind}", lambda value: isinstance(value, str), str), "")


def _bounded(constraint: str, test, base=_number):
    def check(value, path: str):
        value = base(value, path)
        if not test(value):
            raise ConfigError(f"{path} must be {constraint}, got {value}")
        return value

    return check


def _count(minimum: int, maximum: float = math.inf):
    at_least = _bounded(f">= {minimum}", lambda value: value >= minimum, _integer)
    return _bounded(f"<= {maximum}", lambda value: value <= maximum, at_least)


_within_level = lambda value: abs(value) < MAX_LEVEL_DB
_positive = _bounded("> 0", lambda value: value > 0)
_non_negative = _bounded(">= 0", lambda value: value >= 0)
_level = _bounded(f"within +/-{MAX_LEVEL_DB:.1f} dBm", _within_level)
# Within the level bound a dBm value is a finite, nonzero power in W.
_watts = lambda value, path: 10.0 ** ((_level(value, path) - 30.0) / 10.0)
# Optional; its length is checked against comb.line_count after the walk.
_levels = _optional(_numbers(f"a list of numbers within +/-{MAX_LEVEL_DB:.1f} dBm", _within_level))
_gain_pair = _numbers("two positive numbers [center, edge]", lambda value: value > 0, 2)


def _anchors(value, path: str) -> list[tuple[float, float]]:
    if value is None:
        raise ConfigError(f"{path} is required")
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list")
    anchors = []
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}[{i}] must be a mapping")
        anchors.append(tuple(_walk(item, {}, _ANCHOR, f"{path}[{i}].")[1].values()))
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
# section; a leaf maps its key to (model argument, check[, conversion]). The
# check runs on the value and again on its conversion.
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
        "label": ("label", _label),
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
            "power_dbm": ("power", _watts),
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


def _walk(node: dict, default: dict, table: dict = _SCHEMA, prefix: str = "") -> tuple[dict, dict]:
    """``node`` merged over ``default`` as a fresh tree, and each leaf of ``table``
    checked and converted, by model argument; sections nest. ``prefix`` ends in a dot."""
    for key in node:
        if key not in table:
            raise ConfigError(f"unknown configuration key {_shown(prefix + _shown(key, str))}")
    merged, out = {}, {}
    for key, spec in table.items():
        where = prefix + key
        value = node[key] if key in node else default.get(key)
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be a mapping")
            merged[key], out[key] = _walk(value, default[key], spec, where + ".")
        else:
            arg, check, *convert = spec
            # Checked before it is copied: a failing value may nest deep.
            checked = check(value, where)
            # The merged tree owns its containers; the bundled defaults are shared.
            merged[key] = copy.deepcopy(value) if isinstance(value, (list, dict)) else value
            # A unit conversion can overflow to inf or underflow to 0.
            out[arg] = check(convert[0](checked), where) if convert else checked
    return merged, out


def _construct(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a model error reported as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except StarkCombError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


# libyaml's loader when PyYAML was built with it, else the Python one; both give
# the same mappings.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
# The deepest nesting a text may have; the schema nests 4 deep. libyaml nests
# by C recursion and crashes the process some ten thousand levels down, and
# the Python loader runs out of recursion a few hundred levels down.
_MAX_DEPTH = 100
_MERGE = "tag:yaml.org,2002:merge"


def _refusal(text: str) -> str | None:
    """Why ``text`` is not parsed, if it is not: it nests deeper than
    ``_MAX_DEPTH`` levels, or it has a merge key, which PyYAML expands without
    bound (each ``mI: &mI {<<: [*mH, *mH]}`` doubles the keys).

    Such a text is found by scanning its events, which both loaders nest by an
    explicit stack. Each level of nesting needs an indicator of its own, and a
    merge key is a plain ``<<`` or a tag, so other texts are not scanned."""
    if sum(map(text.count, "[{-?:")) <= _MAX_DEPTH and "<<" not in text and "!" not in text:
        return None
    depth = 0
    for event in yaml.parse(text, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                return f"nests deeper than {_MAX_DEPTH} levels"
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
        elif isinstance(event, yaml.ScalarEvent) and (
            event.tag == _MERGE
            or event.tag in (None, "!") and event.implicit[0] and event.value == "<<"
        ):
            return "has a YAML merge key (<<), which is not supported"
    return None


def _problem(exc: Exception) -> str:
    """A loader's message on one line, without its excerpt of the text, cut."""
    if isinstance(exc, yaml.MarkedYAMLError):
        parts = ((exc.context, exc.context_mark), (exc.problem, exc.problem_mark))
        text = "; ".join(
            f"{what} at line {mark.line + 1}, column {mark.column + 1}" if mark else what
            for what, mark in parts
            if what
        )
    elif isinstance(exc, (yaml.YAMLError, ValueError)):
        text = str(exc)
    else:  # PyYAML's own slip, e.g. a KeyError on the tagged scalar ``!!bool x``
        text = f"{type(exc).__name__}: {exc}"
    return _shown(" ".join(text.split()), str)


def _parse(text: str, source: str):
    """The YAML data of ``text``; any failure is a ConfigError naming ``source``."""
    try:
        refusal = _refusal(text)
        if refusal is None:
            return yaml.load(text, Loader=_LOADER)
    except Exception as exc:  # the loaders raise more than YAMLError on some texts
        raise ConfigError(f"{source} is not valid YAML: {_problem(exc)}") from exc
    raise ConfigError(f"{source} {refusal}")


@cache
def _default_data() -> dict:
    # Shared by every load: never handed out, only walked.
    text = (
        resources.files("starkcomb").joinpath("data/default_config.yaml").read_text()
    )
    return _parse(text, "bundled default_config.yaml")


def default_config() -> ReceiverConfig:
    """The bundled default configuration."""
    return _build({})


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
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    data = _parse(text, f"config file {path}")
    if data is None:
        raise ConfigError(f"config file {path} is empty")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    return _build(data)


def build_channels(defaults: ChannelDefaults, entries: np.recarray) -> np.recarray:
    """One calibrated channel per plan entry, as a :data:`ChannelRow` table.

    The minimum detectable field and the gain scale interpolate linearly in
    entry index between their center and edge values; each channel's noise
    floor is then set so it detects exactly its target field. A calibration
    fault is a ConfigError starting ``channel: ``.
    """
    count = len(entries)
    center = (count - 1) / 2.0
    t = np.abs(np.arange(count) - center) / center if count > 1 else np.zeros(count)
    g0, g1 = defaults.gain_scale_endpoints
    e0, e1 = defaults.center_e_det, defaults.edge_e_det
    peak = defaults.peak_power
    uncalibrated = _construct(
        "channel", channel_table, peak, defaults.reference_field, defaults.half_width_3db,
        defaults.rolloff_order, noise_floor=peak - 200.0, gain_scale=g0 + t * (g1 - g0),
    )
    return _construct(
        "channel", calibrate_noise_floor, uncalibrated, (1 - t) * e0 + t * e1,
        defaults.reference_detuning,
    )


def _build(override: dict) -> ReceiverConfig:
    data, sections = _walk(override, _default_data())
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
