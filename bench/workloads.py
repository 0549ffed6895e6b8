"""Seeded inputs and the operations of the three benchmark workloads.

The program sees only the YAML files written here. Every model constant a
config relies on is written out in full, so the checker can rebuild the
expected outputs from the generated mapping alone, without the bundled
defaults of the code under test.

Workloads (see BENCHMARK.json for why each exists):

- ``eit-spectrum``: a few ladder configs, each running the ``eit`` scenario
  through ``run_scenario``. Almost all time is in ``bloch``.
- ``broadband-sweep``: one 21-line config running ``response``,
  ``linearity`` and ``sweep2cell`` at large point counts. Time is in
  ``receiver`` routing/beat evaluation and ``scenarios`` CSV writing.
- ``design-sweep``: many small design files, each run through
  ``starkcomb.cli.main(["plan", ...])``. Time is in ``config`` parsing,
  ``comb`` bisection, argparse and CSV writing. About a tenth of the designs
  put a comb line outside the reachable band and must exit with code 3.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

WORKLOADS = ("eit-spectrum", "broadband-sweep", "design-sweep")

# Sizes of a full run; the benchmark's own tests pass smaller ones.
FULL_SIZES = {
    "eit-spectrum": {"configs": 8, "points": 301},
    "broadband-sweep": {"response": 100_000, "linearity": 1_000, "sweep2cell": 20_000},
    "design-sweep": {"designs": 200},
}

# Seed-commit defaults, fixed here so generated inputs do not drift when the
# bundled default YAML changes.
TRANSITION = {
    "field_free_frequency_ghz": 7.97,
    "differential_polarizability_mhz_per_v2_cm2": 1.0,
}
ANCHORS = [
    {"position_cm": 2.0, "transition_frequency_ghz": 8.23},
    {"position_cm": 7.98, "transition_frequency_ghz": 8.03},
]
BAND_CENTER_GHZ = 8.13
# Lines of in-band designs stay this far inside the 200 MHz reachable band.
BAND_HALF_MHZ = 100.0
BAND_MARGIN_MHZ = 1.0
LADDER = {
    "probe_rabi_mhz": 6.9,
    "coupling_rabi_mhz": 16.1,
    "mw_rabi_mhz": 5.0,
    "decay_e_mhz": 5.2,
    "decay_r1_khz": 10.0,
    "decay_r2_khz": 10.0,
    "dephasing_khz": 100.0,
}
STIMULUS = {
    "power_dbm": -30.0,
    "antenna_gain": 1.0,
    "distance_m": 1.0,
    "perturbation_factor": 1.0,
}
OUT_OF_BAND_SHARE = 0.1


@dataclass(frozen=True)
class Op:
    """One operation: a scenario run on one generated config."""

    name: str
    config: Path
    scenario: str
    spec: dict
    expected_code: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple[Op, ...]
    via_cli: bool
    input_sha256: str


def generate(name: str, seed: int, input_dir: Path, sizes: dict | None = None) -> Workload:
    """Write the seeded inputs of workload ``name`` and list its operations."""
    sizes = {**FULL_SIZES[name], **(sizes or {})}
    rng = random.Random(f"{name}:{seed}")
    input_dir.mkdir(parents=True, exist_ok=True)
    if name == "eit-spectrum":
        ops = _eit_ops(rng, sizes, input_dir)
    elif name == "broadband-sweep":
        ops = _broadband_ops(rng, sizes, input_dir)
    elif name == "design-sweep":
        ops = _design_ops(rng, sizes, input_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    digest = hashlib.sha256()
    for path in sorted({op.config for op in ops}):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return Workload(
        name=name,
        seed=seed,
        ops=tuple(ops),
        via_cli=name == "design-sweep",
        input_sha256=digest.hexdigest(),
    )


def _write(path: Path, spec: dict) -> Path:
    path.write_text(yaml.safe_dump(spec, sort_keys=True, default_flow_style=False))
    return path


def _base_sections() -> dict:
    return {
        "transition": dict(TRANSITION),
        "profile": {
            "anchors": [dict(a) for a in ANCHORS],
            "offset_cm": 0.0,
            "decay_exponent": None,
        },
        "planner": {"placement_tolerance_hz": 1000.0, "min_gap_cm": 0.0},
    }


def _eit_ops(rng: random.Random, sizes: dict, input_dir: Path) -> list[Op]:
    ops = []
    for i in range(sizes["configs"]):
        ladder = dict(LADDER)
        ladder["mw_rabi_mhz"] = round(rng.uniform(3.0, 8.0), 4)
        ladder["coupling_rabi_mhz"] = round(rng.uniform(12.0, 20.0), 4)
        ladder["dephasing_khz"] = round(rng.uniform(50.0, 200.0), 3)
        spec = {
            "ladder": ladder,
            "scenarios": {"eit": {"probe_span_mhz": 30.0, "points": sizes["points"]}},
        }
        path = _write(input_dir / f"ladder{i:02d}.yaml", spec)
        ops.append(Op(name=f"ladder{i:02d}", config=path, scenario="eit", spec=spec))
    return ops


def _broadband_ops(rng: random.Random, sizes: dict, input_dir: Path) -> list[Op]:
    spacing = round(rng.uniform(8.0, 9.5), 4)  # MHz; 21 lines span <= 190 MHz
    span = 20 * spacing
    slack = BAND_HALF_MHZ - BAND_MARGIN_MHZ - span / 2
    center_mhz = BAND_CENTER_GHZ * 1e3 + rng.uniform(-slack, slack)
    half_width = spacing / 2
    low_line, high_line = center_mhz - span / 2, center_mhz + span / 2
    spec = _base_sections()
    spec["comb"] = {
        "center_frequency_ghz": round(center_mhz / 1e3, 7),
        "line_spacing_mhz": spacing,
        "line_count": 21,
        "total_power_dbm": round(rng.uniform(5.0, 15.0), 3),
        "per_line_power_dbm": None,
    }
    spec["channel"] = {
        "half_width_3db_mhz": half_width,
        "rolloff_order": rng.choice([1, 2, 3]),
        "peak_power_dbm": round(rng.uniform(-40.0, -33.0), 3),
        "reference_detuning_khz": round(rng.uniform(200.0, 800.0), 3),
        "center_min_detectable_field_nv_cm": round(rng.uniform(600.0, 1000.0), 3),
        "edge_sensitivity_nv_cm_sqrt_hz": round(rng.uniform(250.0, 400.0), 3),
        "measurement_time_s": 0.1,
        "gain_scale_endpoints": [1.0, 1.0],
        "stimulus": dict(STIMULUS),
    }
    two_low = round(rng.uniform(8.035, 8.08), 6)
    two_high = round(rng.uniform(8.18, 8.225), 6)
    spec["scenarios"] = {
        "response": {
            "start_ghz": round((low_line - half_width - rng.uniform(2.0, 8.0)) / 1e3, 7),
            "stop_ghz": round((high_line + half_width + rng.uniform(2.0, 8.0)) / 1e3, 7),
            "points": sizes["response"],
            "field_v_cm": float(f"{10 ** rng.uniform(-5.0, -3.0):.4g}"),
        },
        "linearity": {
            "min_field_v_cm": 1.0e-8,
            "max_field_v_cm": 1.0e-2,
            "points": sizes["linearity"],
        },
        "sweep2cell": {
            "low_line_ghz": two_low,
            "high_line_ghz": two_high,
            "start_ghz": round(two_low - 0.01, 6),
            "stop_ghz": round(two_high + 0.01, 6),
            "points": sizes["sweep2cell"],
            "field_v_cm": None,
        },
    }
    path = _write(input_dir / "broadband.yaml", spec)
    return [
        Op(name=scenario, config=path, scenario=scenario, spec=spec)
        for scenario in ("response", "linearity", "sweep2cell")
    ]


def _design_ops(rng: random.Random, sizes: dict, input_dir: Path) -> list[Op]:
    count = sizes["designs"]
    # Stratified line counts over 5..161 keep the per-pass work nearly the
    # same for every seed; the seed decides the order and the details.
    line_counts = [5 + int(157 * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(line_counts)
    out_of_band = set(rng.sample(range(count), max(1, round(OUT_OF_BAND_SHARE * count))))
    usable = 2 * (BAND_HALF_MHZ - BAND_MARGIN_MHZ)
    ops = []
    for i, lines in enumerate(line_counts):
        spacing = round(rng.uniform(0.5, 0.95) * usable / (lines - 1), 6)
        span = spacing * (lines - 1)
        if i in out_of_band:
            # The outermost line lands 1-20 MHz beyond one edge of the band.
            excess = rng.uniform(1.0, 20.0)
            offset = (BAND_HALF_MHZ + excess - span / 2) * rng.choice([-1, 1])
        else:
            slack = BAND_HALF_MHZ - BAND_MARGIN_MHZ - span / 2
            offset = rng.uniform(-slack, slack)
        spec = _base_sections()
        spec["profile"]["offset_cm"] = round(rng.uniform(0.0, 1.0), 4)
        spec["planner"]["placement_tolerance_hz"] = round(10 ** rng.uniform(math.log10(50.0), 3.0), 1)
        spec["comb"] = {
            "center_frequency_ghz": round(BAND_CENTER_GHZ + offset / 1e3, 9),
            "line_spacing_mhz": spacing,
            "line_count": lines,
            "total_power_dbm": round(rng.uniform(5.0, 15.0), 3),
        }
        path = _write(input_dir / f"design{i:03d}.yaml", spec)
        ops.append(
            Op(
                name=f"design{i:03d}",
                config=path,
                scenario="plan",
                spec=spec,
                expected_code=3 if i in out_of_band else 0,
            )
        )
    return ops


def load(workload: Workload) -> dict:
    """Set-up in this process: the configs held in memory before the first op.

    ``run_scenario`` workloads load each distinct config once. The CLI
    workload loads per operation, so set-up parses the bundled default
    config once, the base every design is merged over.
    """
    import starkcomb.config

    if workload.via_cli:
        starkcomb.config.default_config()
        return {}
    return {
        path: starkcomb.config.load_config(path)
        for path in dict.fromkeys(op.config for op in workload.ops)
    }


def run_op(workload: Workload, op: Op, configs: dict, out_dir: Path) -> int:
    """Run one operation and return its exit code.

    Functions are looked up on their modules at call time, so timing wrappers
    installed by the tracer are seen.
    """
    if workload.via_cli:
        import starkcomb.cli

        return starkcomb.cli.main(
            [op.scenario, "--config", str(op.config), "--out", str(out_dir)]
        )
    import starkcomb.scenarios

    starkcomb.scenarios.run_scenario(configs[op.config], op.scenario, out_dir)
    return 0
