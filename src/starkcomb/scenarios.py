"""Scenario runners: deterministic CSV data products plus a run manifest.

Each runner is a pure function of the configuration that returns its tables:
for every CSV file name, the metadata that follows the common header, the
column names and the rows in the blocks of ``receiver.row_blocks``. Every
check runs when the runner is called; the ``response``, ``sweep2cell`` and
``linearity`` blocks are then computed one at a time as they are written, so
no whole column of them is held. ``run_scenario`` is the one writer. It
prefixes each table with the common header (package version, configuration
hash, scenario name), writes and hashes each block as it is formatted, and
writes a JSON manifest listing the SHA-256 of the bytes it wrote for each
file. The files are moved into place only once all of them are written, so a
run that fails partway leaves no file of its own and an earlier run's files
whole. Output bytes are a pure function of the configuration; timestamps are
embedded only when explicitly requested.
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
from .config import MAX_ROWS, ReceiverConfig, build_channels
from .errors import ConfigError, InfeasiblePlanError
from .field_map import field_at
# stitched_response is not called here, but bench/tracer.py wraps it at this
# module and bench/tests/test_bench.py reads it here.
from .receiver import (
    beat_power, min_detectable_field, response_blocks, row_blocks, sensitivity,
    stitched_response,
)
from .stark import stark_shifted_frequency

__all__ = ["SCENARIO_NAMES", "run_scenario"]

# One CSV table: the metadata after the common header, the column names, and
# the rows in blocks, each block one sequence of values per column.
Table = tuple[list[tuple[str, object]], Sequence[str], Iterable[Sequence]]
Tables = dict[str, Table]


def _whole(meta: list[tuple[str, object]], columns: dict[str, object]) -> Table:
    # A table of named whole columns, handed out in blocks of rows.
    arrays = [np.asarray(values) for values in columns.values()]
    blocks = ([a[block] for a in arrays] for block in row_blocks(len(arrays[0])))
    return meta, list(columns), blocks


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
    meta: Sequence[tuple[str, object]],
    names: Sequence[str],
    blocks: Iterable[Sequence],
    timestamp: bool,
) -> Iterator[bytes]:
    """The encoded CSV of a table given in blocks of equal-length columns
    (arrays or sequences): its header, then the rows of each block as the
    block is taken."""
    lines = [f"# {key}: {_fmt(value)}" for key, value in meta]
    if timestamp:
        lines.append(f"# generated_at: {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(names))
    yield ("\n".join(lines) + "\n").encode()
    for columns in blocks:
        arrays = [np.asarray(values) for values in columns]
        if _vectorizable(arrays):
            # Imported here, so that runs without a large block skip its set-up.
            from ._vectorized_csv import vectorized_rows

            yield vectorized_rows(arrays)
        else:
            yield _printf_rows(arrays)


def _write(path: Path, chunks: Iterable[bytes]) -> str:
    """Write the chunks to ``path`` as they come; the SHA-256 of the bytes
    written."""
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


_SWEEP_COLUMNS = ("signal_GHz", "channel_index", "delta_f_kHz", "beat_dBm", "above_noise")


def _sweep(
    config: ReceiverConfig, params: dict, plan: CellArrayPlan
) -> tuple[float, Iterator[tuple]]:
    """The swept field (the reference field unless set) and the blocks of the
    stitched beat columns: ``stitched_response`` streamed."""
    field = params["field"]
    if field is None:
        field = config.channel_defaults.reference_field
    frequencies = np.linspace(params["start"], params["stop"], params["points"])
    channels = build_channels(config.channel_defaults, plan.entries)
    blocks = response_blocks(plan, channels, frequencies, field)
    return field, (
        (frequency / 1e9, channel, delta_f / 1e3, power, above)
        for frequency, channel, delta_f, power, above, _ in blocks
    )


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
    return {"plan.csv": _whole(meta, columns), "field_profile.csv": _whole([], profile)}


def _run_response(config: ReceiverConfig) -> Tables:
    plan = _plan(config)
    field, blocks = _sweep(config, config.scenarios["response"], plan)
    return {"response.csv": ([("field_V_per_cm", field)], _SWEEP_COLUMNS, blocks)}


def _run_linearity(config: ReceiverConfig) -> Tables:
    plan = _plan(config)
    params = config.scenarios["linearity"]
    points = params["points"]
    rows = len(plan.entries) * points
    if rows > MAX_ROWS:
        raise ConfigError(
            f"comb.line_count x scenarios.linearity.points must be <= {MAX_ROWS}, got {rows}"
        )
    fields = np.logspace(
        math.log10(params["min_field"]), math.log10(params["max_field"]), points
    )
    delta = config.channel_defaults.reference_detuning
    channels = build_channels(config.channel_defaults, plan.entries)
    line_index, line_ghz = plan.entries.line_index, plan.entries.line_frequency / 1e9

    def evaluate(block: slice) -> tuple:
        # Row r is field r % points on line r // points. A block is whole lines
        # or part of one, so its fields broadcast over its lines' own channels.
        i, j = np.divmod(np.arange(block.start, block.stop), points)
        lines, field = channels[i[0] : i[-1] + 1, None], fields[j[0] : j[-1] + 1]
        return line_index[i], line_ghz[i], fields[j], beat_power(lines, field, delta).ravel()

    blocks = map(evaluate, row_blocks(rows, points))
    names = ("channel_index", "line_GHz", "field_V_per_cm", "beat_dBm")
    return {"linearity.csv": ([("delta_f_kHz", delta / 1e3)], names, blocks)}


def _run_sensitivity(config: ReceiverConfig) -> Tables:
    plan = _plan(config)
    delta = config.channel_defaults.reference_detuning
    e_det = min_detectable_field(build_channels(config.channel_defaults, plan.entries), delta)
    meta = [("delta_f_kHz", delta / 1e3), ("measurement_time_s", config.measurement_time)]
    columns = {
        "channel_index": plan.entries.line_index,
        "line_GHz": plan.entries.line_frequency / 1e9,
        "E_det_nV_per_cm": e_det * 1e9,
        "sensitivity_nV_cm_Hz": sensitivity(e_det, config.measurement_time) * 1e9,
    }
    return {"sensitivity.csv": _whole(meta, columns)}


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
    field, blocks = _sweep(config, params, plan)
    meta = [
        ("field_V_per_cm", field),
        ("position_low_line_cm", plan.entries.position[0]),
        ("position_high_line_cm", plan.entries.position[1]),
    ]
    return {"sweep2cell.csv": (meta, _SWEEP_COLUMNS, blocks)}


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
    return {"eit.csv": _whole(meta, columns)}


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
    # Each file is written under a temporary name and moved into place once
    # every file of the run is written, so a run that fails in any block or
    # write leaves no file of its own and an earlier run's files whole.
    files = {}  # final path: temporary path

    def write(file_name: str, chunks: Iterable[bytes]) -> str:
        path = out_dir / file_name
        files[path] = out_dir / f".{file_name}.partial"
        return _write(files[path], chunks)

    try:
        outputs = {
            file_name: write(file_name, _format_csv(header + meta, names, blocks, timestamp))
            for file_name, (meta, names, blocks) in tables.items()
        }
        manifest = {
            "scenario": name,
            "version": __version__,
            "config_sha256": config_sha256,
            "outputs": outputs,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        write(f"{name}_manifest.json", [text.encode()])
    except BaseException:
        for temporary in files.values():
            temporary.unlink(missing_ok=True)
        raise
    for path, temporary in files.items():
        temporary.replace(path)
    return list(files)
