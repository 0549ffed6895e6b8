"""Tests of the benchmark harness itself.

Run from the repository root: python3 -m pytest bench/tests -q

They run a tiny version of each workload, show that the checker rejects
deliberately corrupted outputs, and check the tracer's counts and restores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "eit-spectrum": {"configs": 2, "points": 21},
    "broadband-sweep": {"response": 600, "linearity": 12, "sweep2cell": 200},
    "design-sweep": {"designs": 12},
}
SEED = 3


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One untraced tiny run per workload: (measure output, work dir)."""
    runs = {}
    for name, sizes in TINY.items():
        work = tmp_path_factory.mktemp(name)
        runs[name] = (run.measure(name, SEED, 0, False, sizes, work), work)
    return runs


def _op(name: str, op_name: str, work: Path):
    wl = workloads.generate(name, SEED, work / "inputs-again", TINY[name])
    return next(op for op in wl.ops if op.name == op_name)


def _copy_op(work: Path, op_name: str, tmp_path: Path) -> Path:
    target = tmp_path / op_name
    shutil.copytree(work / "p0" / op_name, target)
    return target


def _edit(path: Path, row: int, column: str, change) -> None:
    """Apply ``change`` to one cell of a CSV data row, in place."""
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = change(cells[col])
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_tiny_workloads_are_correct_and_report_every_metric(tiny):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for name, (out, _) in tiny.items():
        result = out["result"]
        assert result["correct"], (name, out["report"])
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_rows_per_pass_counts_csv_data_rows(tiny):
    out, _ = tiny["broadband-sweep"]
    assert out["report"][0].endswith("rows/pass 1052")  # 600 + 21 * 12 + 200


def test_same_seed_repeats_inputs_and_output_bytes(tiny, tmp_path):
    again = run.measure("design-sweep", SEED, 0, False, TINY["design-sweep"], tmp_path / "a")
    first = tiny["design-sweep"][0]["env"]
    assert again["env"]["input_sha256"] == first["input_sha256"]
    assert again["env"]["output_sha256"] == first["output_sha256"]
    other = workloads.generate("design-sweep", SEED + 1, tmp_path / "b", TINY["design-sweep"])
    assert other.input_sha256 != first["input_sha256"]


def test_design_sweep_mixes_in_out_of_band_designs(tmp_path):
    wl = workloads.generate("design-sweep", SEED, tmp_path, {"designs": 200})
    codes = [op.expected_code for op in wl.ops]
    assert codes.count(3) == 20 and codes.count(0) == 180
    counts = [op.spec["comb"]["line_count"] for op in wl.ops]
    assert min(counts) == 5 and max(counts) == 161


def test_checker_rejects_flipped_channel_index(tiny, tmp_path):
    _, work = tiny["broadband-sweep"]
    op = _op("broadband-sweep", "response", work)
    out = _copy_op(work, "response", tmp_path)
    assert checker.check_op(op, out, 0) == []
    _edit(out / "response.csv", 300, "channel_index", lambda v: str(int(v) + 1))
    problems = checker.check_op(op, out, 0)
    assert any("routed row 300" in p for p in problems), problems


def test_checker_rejects_shifted_beat_power(tiny, tmp_path):
    _, work = tiny["broadband-sweep"]
    for op_name, csv in (("linearity", "linearity.csv"), ("sweep2cell", "sweep2cell.csv")):
        op = _op("broadband-sweep", op_name, work)
        out = _copy_op(work, op_name, tmp_path)
        assert checker.check_op(op, out, 0) == []
        _edit(out / csv, 5, "beat_dBm", lambda v: format(float(v) + 1e-6, ".10g"))
        problems = checker.check_op(op, out, 0)
        assert any("beat_dBm: 1 rows off, first row 5" in p for p in problems), problems


def test_checker_rejects_wrong_absorption(tiny, tmp_path):
    _, work = tiny["eit-spectrum"]
    op = _op("eit-spectrum", "ladder01", work)
    out = _copy_op(work, "ladder01", tmp_path)
    assert checker.check_op(op, out, 0) == []
    _edit(out / "eit.csv", 10, "absorption", lambda v: format(float(v) + 1e-7, ".10g"))
    assert any("eit absorption" in p for p in checker.check_op(op, out, 0))


def test_checker_rejects_misplaced_cell_and_wrong_exit_code(tiny, tmp_path):
    _, work = tiny["design-sweep"]
    wl = workloads.generate("design-sweep", SEED, tmp_path / "inputs", TINY["design-sweep"])
    good = next(op for op in wl.ops if op.expected_code == 0)
    bad = next(op for op in wl.ops if op.expected_code == 3)
    out = _copy_op(work, good.name, tmp_path)
    assert checker.check_op(good, out, 0) == []
    _edit(out / "plan.csv", 1, "position_cm", lambda v: format(float(v) + 1e-4, ".10g"))
    assert any("misses its line" in p for p in checker.check_op(good, out, 0))
    assert checker.check_op(good, out, 3) == ["exit code 3, expected 0"]
    assert checker.check_op(bad, work / "p0" / bad.name, 3) == []
    assert checker.check_op(bad, work / "p0" / bad.name, 0) == ["exit code 0, expected 3"]


def test_checker_rejects_manifest_mismatch(tiny, tmp_path):
    _, work = tiny["eit-spectrum"]
    op = _op("eit-spectrum", "ladder00", work)
    out = _copy_op(work, "ladder00", tmp_path)
    with (out / "eit.csv").open("a") as f:
        f.write("\n")
    assert any("manifest hash of eit.csv" in p for p in checker.check_op(op, out, 0))


def test_reference_solver_reaches_two_level_limit():
    ladder = dict(workloads.LADDER, probe_rabi_mhz=0.01, coupling_rabi_mhz=0.0, mw_rabi_mhz=0.0)
    absorption = checker.eit_absorption(ladder, np.array([0.0, ladder["decay_e_mhz"] / 2]))
    # Weak resonant probe: 1; detuned by half the linewidth: 1 / (1 + 1).
    # Saturation by the 10 kHz probe shifts both by ~1e-5.
    np.testing.assert_allclose(absorption, [1.0, 0.5], rtol=1e-4)


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_layers_and_idle_layers(name, tmp_path):
    out = run.measure(name, SEED, 0, True, TINY[name], tmp_path)
    m = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(m) == [s["name"] for s in specs]
    assert out["result"]["correct"]
    assert (tmp_path / "spans.npz").is_file()
    if name == "eit-spectrum":
        assert m["bloch.solves"] == 2 * 21 and m["bloch.solves_per_point"] == 1.0
        assert m["receiver.points"] == 0 and m["config.loads"] == 2
    elif name == "broadband-sweep":
        assert m["bloch.solves"] == 0
        assert m["receiver.points"] == m["receiver.beat_power_calls"] == 1052
        assert m["scenarios.calls"] == 3 and m["scenarios.files_written"] == 6
    else:
        wl = workloads.generate(name, SEED, tmp_path / "again", TINY[name])
        assert m["bloch.solves"] == 0 and m["receiver.points"] == 0
        assert m["cli.calls"] == 12
        assert m["cli.exit_nonzero"] == sum(op.expected_code != 0 for op in wl.ops)
        assert m["config.yaml_parses"] == 2 * 12 + 1
        assert m["comb.evals_per_line"] > 1


def test_tracer_restores_every_original():
    import starkcomb.comb
    import starkcomb.config
    import starkcomb.scenarios

    originals = (
        starkcomb.scenarios.stitched_response,
        starkcomb.comb.transition_frequency_at,
        starkcomb.config.yaml,
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert starkcomb.scenarios.stitched_response is not originals[0]
        assert starkcomb.comb.transition_frequency_at is not originals[1]
        assert starkcomb.config.yaml is not originals[2]
    finally:
        tracer.uninstall()
    assert (
        starkcomb.scenarios.stitched_response,
        starkcomb.comb.transition_frequency_at,
        starkcomb.config.yaml,
    ) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        import starkcomb.config

        starkcomb.config.default_config()
    finally:
        tracer.uninstall()
    m = tracer.metrics(eit_rows=0)
    total = m["config.load_s"][0]
    assert m["config.yaml_parse_s"][0] < total
    assert m["config.loads"][0] == 1 and m["config.yaml_parses"][0] == 1
    assert m["field_map.calls"][0] >= 1 and m["stark.calls"][0] >= 1


def test_harness_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eit-spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
