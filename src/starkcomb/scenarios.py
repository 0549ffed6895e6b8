"""Scenario runners: deterministic CSV data products plus a run manifest.

Each runner is a pure function of the configuration that returns its tables:
for every CSV file name, the metadata that follows the common header and the
named data columns. ``run_scenario`` is the one writer. It prefixes each
table with the common header (package version, configuration hash, scenario
name), writes each CSV file and hashes it chunk by chunk as the chunks are
formatted, and writes a JSON manifest listing the SHA-256 of the bytes it
wrote for each. Output bytes are a pure function of the configuration;
timestamps are embedded only when explicitly requested.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bloch import LadderSystem, probe_absorption
from .comb import CellArrayPlan, FrequencyComb, place_cells
from .config import MAX_ROWS, ReceiverConfig, _construct, build_channels
from .errors import ConfigError, InfeasiblePlanError
from .field_map import field_at
from .receiver import min_detectable_field, sensitivity, stitched_response
from .stark import stark_shifted_frequency

__all__ = ["SCENARIO_NAMES", "run_scenario"]

# By CSV file name: the metadata after the common header, and the columns.
Tables = dict[str, tuple[list[tuple[str, object]], dict[str, object]]]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _text_column(values: np.ndarray) -> tuple[str, list]:
    # One printf conversion and the Python values for one CSV column;
    # '%.10g' % x prints a Python float exactly as format(x, '.10g').
    if values.dtype.kind == "b":
        return "%s", np.where(values, "true", "false").tolist()
    if values.dtype.kind in "iu":
        return "%d", values.tolist()
    if values.dtype.kind == "f":
        return "%.10g", values.tolist()
    return "%s", [_fmt(v) for v in values.tolist()]


def _printf_rows(columns: Sequence[np.ndarray]) -> bytes:
    """The CSV rows of equal-length columns, one printf conversion per cell."""
    conversions, values = zip(*map(_text_column, columns))
    row = ",".join(conversions) + "\n"
    return "".join(map(row.__mod__, zip(*values))).encode()


# Tables of at least this many cells (rows x columns), all in 1-D bool, int or
# float columns, are printed by _vectorized_csv with the same bytes; below it
# _printf_rows is the faster (crossover measured on a 2-vCPU 2.0 GHz Xeon VM).
_VECTORIZED_MIN_CELLS = 2048


def _vectorizable(columns: Sequence[np.ndarray]) -> bool:
    rows = len(columns[0])
    return rows * len(columns) >= _VECTORIZED_MIN_CELLS and all(
        c.ndim == 1 and len(c) == rows and c.dtype.kind in "biuf" and c.dtype.itemsize <= 8
        for c in columns
    )


def _format_csv(
    meta: Sequence[tuple[str, object]], columns: dict[str, object], timestamp: bool
) -> Iterator[bytes]:
    """The encoded CSV of named, equal-length columns (arrays or sequences),
    in chunks: a small table in one, a large one as its header and then one
    chunk per block of rows."""
    lines = [f"# {key}: {_fmt(value)}" for key, value in meta]
    if timestamp:
        lines.append(f"# generated_at: {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    header = ("\n".join(lines) + "\n").encode()
    arrays = [np.asarray(values) for values in columns.values()]
    if not _vectorizable(arrays):
        yield header + _printf_rows(arrays)
        return
    # Imported here, so that runs without a large table skip its set-up.
    from ._vectorized_csv import vectorized_rows

    yield header
    yield from vectorized_rows(arrays)


def _write(path: Path, chunks: Iterable[bytes]) -> str:
    """Write the chunks to ``path`` as they come; the SHA-256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as file:
        for chunk in chunks:
            file.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


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
) -> tuple[float, dict[str, np.ndarray]]:
    """The swept field (the reference field unless set) and the stitched beat columns."""
    field = params["field"]
    if field is None:
        field = config.channel_defaults.reference_field
    frequencies = np.linspace(params["start"], params["stop"], params["points"])
    rows = stitched_response(plan, channels, frequencies, field).rows
    return field, {
        "signal_GHz": rows.signal_frequency / 1e9,
        "channel_index": rows.channel_index,
        "delta_f_kHz": rows.delta_f / 1e3,
        "beat_dBm": rows.beat_power,
        "above_noise": rows.above_noise,
    }


def _run_plan(config: ReceiverConfig) -> Tables:
    plan = _plan(config)
    meta = [("min_spacing_cm", plan.min_spacing), ("feasible", plan.feasible)]
    columns = {
        "line_index": plan.entries.line_index,
        "line_GHz": plan.entries.line_frequency / 1e9,
        "position_cm": plan.entries.position,
        "lo_power_dBm": plan.entries.lo_power,
        "spacing_to_next_cm": np.append(-np.diff(plan.entries.position), None),
    }
    lo, hi = config.profile.valid_range
    xs = np.linspace(lo, hi, 241)
    field = field_at(config.profile, xs)
    profile = {
        "x_cm": xs,
        "field_V_per_cm": field,
        "transition_GHz": stark_shifted_frequency(config.transition, field) / 1e9,
    }
    return {"plan.csv": (meta, columns), "field_profile.csv": ([], profile)}


def _run_response(config: ReceiverConfig) -> Tables:
    plan = _plan(config)
    field, columns = _sweep(config, config.scenarios["response"], plan, config.channels)
    return {"response.csv": ([("field_V_per_cm", field)], columns)}


def _run_linearity(config: ReceiverConfig) -> Tables:
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
    tiled = np.tile(fields, len(plan.entries))
    spectrum = stitched_response(plan, config.channels, lines + delta, tiled)
    columns = {
        "channel_index": np.repeat(plan.entries.line_index, fields.size),
        "line_GHz": lines / 1e9,
        "field_V_per_cm": tiled,
        "beat_dBm": spectrum.rows.beat_power,
    }
    return {"linearity.csv": ([("delta_f_kHz", delta / 1e3)], columns)}


def _run_sensitivity(config: ReceiverConfig) -> Tables:
    plan = _plan(config)
    delta = config.channel_defaults.reference_detuning
    e_det = min_detectable_field(config.channels, delta)
    meta = [("delta_f_kHz", delta / 1e3), ("measurement_time_s", config.measurement_time)]
    columns = {
        "channel_index": plan.entries.line_index,
        "line_GHz": plan.entries.line_frequency / 1e9,
        "E_det_nV_per_cm": e_det * 1e9,
        "sensitivity_nV_cm_Hz": sensitivity(e_det, config.measurement_time) * 1e9,
    }
    return {"sensitivity.csv": (meta, columns)}


def _run_sweep2cell(config: ReceiverConfig) -> Tables:
    params = config.scenarios["sweep2cell"]
    low, high = params["low_line"], params["high_line"]
    comb = FrequencyComb(
        center_frequency=low / 2.0 + high / 2.0,  # (low + high) / 2 can overflow
        line_spacing=high - low,
        line_count=2,
        total_power=config.comb.total_power,
    )
    plan = _plan(config, comb)
    channels = _construct("channel", build_channels, config.channel_defaults, 2)
    field, columns = _sweep(config, params, plan, channels)
    meta = [
        ("field_V_per_cm", field),
        ("position_low_line_cm", plan.entries.position[0]),
        ("position_high_line_cm", plan.entries.position[1]),
    ]
    return {"sweep2cell.csv": (meta, columns)}


def _run_eit(config: ReceiverConfig) -> Tables:
    params = config.scenarios["eit"]
    span = params["probe_span"]
    detunings = np.linspace(-span, span, params["points"]) * 2.0 * math.pi
    ladder = config.ladder
    two_pi = 2.0 * math.pi
    # Every ladder parameter in MHz; the probe detuning is the swept column.
    meta = [
        (
            f"{f.name}_MHz",
            "swept" if f.name == "probe_detuning" else getattr(ladder, f.name) / two_pi / 1e6,
        )
        for f in dataclasses.fields(LadderSystem)
    ]
    columns = {
        "probe_detuning_MHz": detunings / (2.0 * math.pi * 1e6),
        "absorption": probe_absorption(ladder, probe_detuning=detunings),
    }
    return {"eit.csv": (meta, columns)}


_RUNNERS: dict[str, Callable[[ReceiverConfig], Tables]] = {
    "plan": _run_plan,
    "response": _run_response,
    "linearity": _run_linearity,
    "sensitivity": _run_sensitivity,
    "sweep2cell": _run_sweep2cell,
    "eit": _run_eit,
}

SCENARIO_NAMES = tuple(_RUNNERS)


def run_scenario(
    config: ReceiverConfig,
    name: str,
    out_dir: str | Path = ".",
    *,
    timestamp: bool = False,
) -> list[Path]:
    """Run one scenario and return the paths of every file written.

    Writes each table of the scenario as a CSV under ``out_dir``, then
    ``<name>_manifest.json`` with the SHA-256 of the bytes written for each.
    """
    if name not in _RUNNERS:
        raise ConfigError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = _RUNNERS[name](config)
    config_sha256 = config.sha256
    header = [
        ("starkcomb_version", __version__),
        ("config_sha256", config_sha256),
        ("scenario", name),
    ]
    outputs = {}
    for file_name, (meta, columns) in tables.items():
        chunks = _format_csv(header + meta, columns, timestamp)
        outputs[file_name] = _write(out_dir / file_name, chunks)
    manifest = {
        "scenario": name,
        "version": __version__,
        "config_sha256": config_sha256,
        "outputs": outputs,
    }
    manifest_path = out_dir / f"{name}_manifest.json"
    _write(manifest_path, [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])
    return [out_dir / file_name for file_name in outputs] + [manifest_path]
