"""Scenario runners: deterministic CSV data products plus a run manifest.

Each runner is a pure function of the configuration. It checks its inputs and
returns its tables: for every CSV file name, the metadata after the common
header, the column names and the rows in the blocks of ``receiver.row_blocks``,
one bool, int or float array per column (NaN for a missing value). The
``response``, ``sweep2cell``, ``linearity`` and ``eit`` blocks are computed one
at a time as they are written; only the one-row-per-line ``plan`` and
``sensitivity`` tables and the fixed-size ``field_profile`` are built whole.
``SCENARIOS`` maps each name to its runner and help text. ``run_scenario`` is
the one writer: it makes the output directory once the checks pass, prefixes
each table with the common header (package version, configuration hash,
scenario name), writes and hashes each block as ``_csv`` prints it, and writes a
JSON manifest of the SHA-256 of the bytes written for each file. The files are
moved into place once all are written, so a run that fails partway (a solver
error or overflow in a later block, a full disk) leaves no file of its own, an
earlier run's files whole, and no directory that it made. Output bytes are a
pure function of the configuration; timestamps are embedded only on request.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bloch import LadderSystem, probe_absorption
from .comb import CellArrayPlan, FrequencyComb, place_cells
from .config import MAX_ROWS, ReceiverConfig, build_channels
from .errors import ConfigError, InfeasiblePlanError, _shown, require
from .field_map import field_at
# stitched_response is not called here, but bench/tracer.py wraps it at this
# module and bench/tests/test_bench.py reads it here.
from .receiver import (
    beat_power, min_detectable_field, response_blocks, row_blocks, sensitivity,
    stitched_response,
)
from .stark import stark_shifted_frequency

__all__ = ["SCENARIOS", "SCENARIO_NAMES", "run_scenario"]

# One CSV table: the metadata after the common header, the column names, and
# the rows in blocks, each block one sequence of values per column.
Table = tuple[list[tuple[str, object]], Sequence[str], Iterable[Sequence]]
Tables = dict[str, Table]


def _whole(meta: list[tuple[str, object]], columns: dict[str, object]) -> Table:
    # A table of named whole columns, handed out in blocks of rows.
    arrays = [np.asarray(values) for values in columns.values()]
    blocks = ([a[block] for a in arrays] for block in row_blocks(len(arrays[0])))
    return meta, list(columns), blocks


def _write(path: Path, chunks: Iterable[bytes]) -> str:
    """Write the chunks to ``path`` as they come; the SHA-256 of the bytes
    written."""
    digest = hashlib.sha256()
    with open(path, "wb") as file:
        for chunk in chunks:
            file.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _make_dirs(path: Path) -> list[Path]:
    """``path.mkdir(parents=True, exist_ok=True)``; the directories it made, deepest first."""
    try:
        path.mkdir()
    except FileNotFoundError:
        if path.parent == path:
            raise
        made = _make_dirs(path.parent)
        path.mkdir(exist_ok=True)
        return [path, *made]
    except OSError:
        if not path.is_dir():
            raise
        return []
    return [path]


def _plan(config: ReceiverConfig, comb: FrequencyComb | None = None) -> CellArrayPlan:
    plan = place_cells(
        config.profile,
        config.transition,
        comb or config.comb,
        tol=config.placement_tolerance,
        min_gap=config.min_gap,
    )
    message = "minimum cell spacing {:.4g} cm is below the required gap {:.4g} cm"
    require(plan.feasible, InfeasiblePlanError, message, plan.min_spacing, config.min_gap)
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
        "spacing_to_next_cm": np.append(-np.diff(plan.entries.position), math.nan),
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
    message = f"comb.line_count x scenarios.linearity.points must be <= {MAX_ROWS}, got {{}}"
    require(rows <= MAX_ROWS, ConfigError, message, rows)
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
    sweeps = (detunings[block] for block in row_blocks(len(detunings)))
    blocks = ((d / (two_pi * 1e6), probe_absorption(ladder, probe_detuning=d)) for d in sweeps)
    return {"eit.csv": (meta, ("probe_detuning_MHz", "absorption"), blocks)}


# Each scenario's runner, and the one line that ``starkcomb --help`` prints for it.
SCENARIOS: dict[str, tuple[Callable[[ReceiverConfig], Tables], str]] = {
    "plan": (_run_plan, "place one cell per comb line and export the placement table"),
    "response": (_run_response, "stitched broadband beat response over a frequency sweep"),
    "linearity": (_run_linearity, "beat power versus signal field strength per channel"),
    "sensitivity": (_run_sensitivity, "minimum detectable field and sensitivity per channel"),
    "sweep2cell": (_run_sweep2cell, "frequency-swept reception with a two-cell array"),
    "eit": (_run_eit, "probe-transmission spectrum of a single cell"),
}

SCENARIO_NAMES = tuple(SCENARIOS)


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
    ``out_dir`` and its missing parents are made only once every check has
    passed, and a failed run removes those that are still empty.
    """
    message = f"unknown scenario {{}}; expected one of {', '.join(SCENARIO_NAMES)}"
    require(name in SCENARIOS, ConfigError, message, _shown(name))
    from ._csv import _format_csv  # here, out of the start-up time of import starkcomb

    tables = SCENARIOS[name][0](config)
    out_dir = Path(out_dir)
    made = _make_dirs(out_dir)
    sha = config.sha256
    header = [("starkcomb_version", __version__), ("config_sha256", sha), ("scenario", name)]
    # Files are written under temporary names and moved into place once all are
    # written, so a failed run leaves an earlier run's files whole.
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
        manifest = dict(scenario=name, version=__version__, config_sha256=sha, outputs=outputs)
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        write(f"{name}_manifest.json", [text.encode()])
    except BaseException:
        for temporary in files.values():
            temporary.unlink(missing_ok=True)
        for directory in made:  # rmdir removes only an empty directory
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    for path, temporary in files.items():
        temporary.replace(path)
    return list(files)
