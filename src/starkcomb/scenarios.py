"""Scenario runners: deterministic CSV data products plus a run manifest.

Every scenario writes CSV files with a short metadata header (package
version, configuration hash, scenario name) followed by the column row and
data rows, and a JSON manifest listing each output with its SHA-256. Output
bytes are a pure function of the configuration; timestamps are embedded only
when explicitly requested.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .bloch import probe_absorption
from .comb import CellArrayPlan, FrequencyComb, place_cells
from .config import MAX_ROWS, ReceiverConfig, _construct, build_channels
from .errors import ConfigError, InfeasiblePlanError
from .field_map import field_at, transition_frequency_at
from .receiver import (
    BeatSpectrum,
    SignalScenario,
    min_detectable_field,
    sensitivity,
    stitched_response,
)

__all__ = ["SCENARIO_NAMES", "run_scenario"]

SCENARIO_NAMES = ("plan", "response", "linearity", "sensitivity", "sweep2cell", "eit")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _text_column(values) -> tuple[str, list]:
    # One printf conversion and the Python values for one CSV column;
    # '%.10g' % x prints a Python float exactly as format(x, '.10g').
    values = np.asarray(values)
    if values.dtype.kind == "b":
        return "%s", np.where(values, "true", "false").tolist()
    if values.dtype.kind in "iu":
        return "%d", values.tolist()
    if values.dtype.kind == "f":
        return "%.10g", values.tolist()
    return "%s", [_fmt(v) for v in values.tolist()]


def _write_csv(
    path: Path,
    meta: Sequence[tuple[str, object]],
    columns: dict[str, object],
    timestamp: bool,
) -> None:
    """Write a CSV from named, equal-length columns (arrays or sequences)."""
    lines = [f"# {key}: {_fmt(value)}" for key, value in meta]
    if timestamp:
        lines.append(f"# generated_at: {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    conversions, values = zip(*map(_text_column, columns.values()))
    lines.extend(map(",".join(conversions).__mod__, zip(*values)))
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    out_dir: Path, name: str, config: ReceiverConfig, outputs: list[Path]
) -> Path:
    manifest = {
        "scenario": name,
        "version": __version__,
        "config_sha256": config.sha256,
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = out_dir / f"{name}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _meta(config: ReceiverConfig, name: str) -> list[tuple[str, object]]:
    return [
        ("starkcomb_version", __version__),
        ("config_sha256", config.sha256),
        ("scenario", name),
    ]


def _plan(config: ReceiverConfig, comb: FrequencyComb | None = None) -> CellArrayPlan:
    plan = place_cells(
        config.profile,
        config.transition,
        comb or config.comb,
        tol=config.placement_tolerance,
        min_gap=config.min_gap,
    )
    if not plan.feasible:
        raise InfeasiblePlanError(
            f"minimum cell spacing {plan.min_spacing:.4g} cm is below the "
            f"required gap {config.min_gap:.4g} cm"
        )
    return plan


def _sweep(
    config: ReceiverConfig, params: dict, plan: CellArrayPlan, channels
) -> tuple[float, BeatSpectrum]:
    """The swept field (the reference field unless set) and the stitched response."""
    field = params["field"]
    if field is None:
        field = config.channel_defaults.reference_field
    scenario = SignalScenario.linear_sweep(
        params["start"], params["stop"], params["points"], field
    )
    return field, stitched_response(plan, channels, scenario)


def _beat_columns(spectrum: BeatSpectrum) -> dict[str, np.ndarray]:
    rows = spectrum.rows
    return {
        "signal_GHz": rows.signal_frequency / 1e9,
        "channel_index": rows.channel_index,
        "delta_f_kHz": rows.delta_f / 1e3,
        "beat_dBm": rows.beat_power,
        "above_noise": rows.above_noise,
    }


def _run_plan(config: ReceiverConfig, out_dir: Path, timestamp: bool) -> list[Path]:
    plan = _plan(config)
    plan_path = out_dir / "plan.csv"
    _write_csv(
        plan_path,
        _meta(config, "plan")
        + [("min_spacing_cm", plan.min_spacing), ("feasible", plan.feasible)],
        {
            "line_index": plan.entries.line_index,
            "line_GHz": plan.entries.line_frequency / 1e9,
            "position_cm": plan.entries.position,
            "lo_power_dBm": plan.entries.lo_power,
            "spacing_to_next_cm": np.append(-np.diff(plan.entries.position), None),
        },
        timestamp,
    )

    profile_path = out_dir / "field_profile.csv"
    lo, hi = config.profile.valid_range
    xs = np.linspace(lo, hi, 241)
    _write_csv(
        profile_path,
        _meta(config, "plan"),
        {
            "x_cm": xs,
            "field_V_per_cm": field_at(config.profile, xs),
            "transition_GHz": transition_frequency_at(config.profile, config.transition, xs)
            / 1e9,
        },
        timestamp,
    )
    return [plan_path, profile_path]


def _run_response(config: ReceiverConfig, out_dir: Path, timestamp: bool) -> list[Path]:
    plan = _plan(config)
    params = config.scenarios["response"]
    field, spectrum = _sweep(config, params, plan, config.channels)
    path = out_dir / "response.csv"
    _write_csv(
        path,
        _meta(config, "response") + [("field_V_per_cm", field)],
        _beat_columns(spectrum),
        timestamp,
    )
    return [path]


def _run_linearity(config: ReceiverConfig, out_dir: Path, timestamp: bool) -> list[Path]:
    plan = _plan(config)
    params = config.scenarios["linearity"]
    rows = len(plan.entries) * params["points"]
    if rows > MAX_ROWS:
        raise ConfigError(
            f"comb.line_count x scenarios.linearity.points must be <= {MAX_ROWS}, got {rows}"
        )
    fields = np.logspace(
        math.log10(params["min_field"]), math.log10(params["max_field"]),
        params["points"],
    )
    delta = config.channel_defaults.reference_detuning
    # Every field on every line, line-major, in one stitched call.
    lines = np.repeat(plan.entries.line_frequency, fields.size)
    scenario = SignalScenario.tone_list(lines + delta, np.tile(fields, len(plan.entries)))
    spectrum = stitched_response(plan, config.channels, scenario)
    path = out_dir / "linearity.csv"
    _write_csv(
        path,
        _meta(config, "linearity") + [("delta_f_kHz", delta / 1e3)],
        {
            "channel_index": np.repeat(plan.entries.line_index, fields.size),
            "line_GHz": lines / 1e9,
            "field_V_per_cm": scenario.fields,
            "beat_dBm": spectrum.rows.beat_power,
        },
        timestamp,
    )
    return [path]


def _run_sensitivity(config: ReceiverConfig, out_dir: Path, timestamp: bool) -> list[Path]:
    plan = _plan(config)
    delta = config.channel_defaults.reference_detuning
    e_det = min_detectable_field(config.channels, delta)
    path = out_dir / "sensitivity.csv"
    _write_csv(
        path,
        _meta(config, "sensitivity")
        + [
            ("delta_f_kHz", delta / 1e3),
            ("measurement_time_s", config.measurement_time),
        ],
        {
            "channel_index": plan.entries.line_index,
            "line_GHz": plan.entries.line_frequency / 1e9,
            "E_det_nV_per_cm": e_det * 1e9,
            "sensitivity_nV_cm_Hz": sensitivity(e_det, config.measurement_time) * 1e9,
        },
        timestamp,
    )
    return [path]


def _run_sweep2cell(config: ReceiverConfig, out_dir: Path, timestamp: bool) -> list[Path]:
    params = config.scenarios["sweep2cell"]
    low, high = params["low_line"], params["high_line"]
    comb = FrequencyComb(
        center_frequency=(low + high) / 2.0,
        line_spacing=high - low,
        line_count=2,
        total_power=config.comb.total_power,
    )
    plan = _plan(config, comb)
    channels = _construct("channel", build_channels, config.channel_defaults, 2)
    field, spectrum = _sweep(config, params, plan, channels)
    path = out_dir / "sweep2cell.csv"
    _write_csv(
        path,
        _meta(config, "sweep2cell")
        + [
            ("field_V_per_cm", field),
            ("position_low_line_cm", plan.entries.position[0]),
            ("position_high_line_cm", plan.entries.position[1]),
        ],
        _beat_columns(spectrum),
        timestamp,
    )
    return [path]


def _run_eit(config: ReceiverConfig, out_dir: Path, timestamp: bool) -> list[Path]:
    params = config.scenarios["eit"]
    span = params["probe_span"]
    detunings = np.linspace(-span, span, params["points"]) * 2.0 * math.pi
    ladder = config.ladder
    absorption = probe_absorption(ladder, probe_detuning=detunings)
    path = out_dir / "eit.csv"
    two_pi = 2.0 * math.pi
    meta = _meta(config, "eit") + [
        ("probe_rabi_MHz", ladder.probe_rabi / two_pi / 1e6),
        ("coupling_rabi_MHz", ladder.coupling_rabi / two_pi / 1e6),
        ("mw_rabi_MHz", ladder.mw_rabi / two_pi / 1e6),
        ("probe_detuning_MHz", "swept"),
        ("coupling_detuning_MHz", ladder.coupling_detuning / two_pi / 1e6),
        ("mw_detuning_MHz", ladder.mw_detuning / two_pi / 1e6),
        ("decay_e_MHz", ladder.decay_e / two_pi / 1e6),
        ("decay_r1_MHz", ladder.decay_r1 / two_pi / 1e6),
        ("decay_r2_MHz", ladder.decay_r2 / two_pi / 1e6),
        ("dephasing_MHz", ladder.dephasing / two_pi / 1e6),
    ]
    columns = {
        "probe_detuning_MHz": detunings / (2.0 * math.pi * 1e6),
        "absorption": absorption,
    }
    _write_csv(path, meta, columns, timestamp)
    return [path]


_RUNNERS: dict[str, Callable[[ReceiverConfig, Path, bool], list[Path]]] = {
    "plan": _run_plan,
    "response": _run_response,
    "linearity": _run_linearity,
    "sensitivity": _run_sensitivity,
    "sweep2cell": _run_sweep2cell,
    "eit": _run_eit,
}


def run_scenario(
    config: ReceiverConfig,
    name: str,
    out_dir: str | Path = ".",
    *,
    timestamp: bool = False,
) -> list[Path]:
    """Run one scenario and return the paths of every file written."""
    if name not in _RUNNERS:
        raise ConfigError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[name](config, out_dir, timestamp)
    manifest = _write_manifest(out_dir, name, config, outputs)
    return outputs + [manifest]
