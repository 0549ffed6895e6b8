"""Correctness checks that do not trust the code under test.

Each check rebuilds the expected output from the generated config mapping
with its own numpy implementation of the documented model, then compares it
with the CSV the program wrote:

- routing against an exhaustive nearest-line search;
- beat powers against the channel formula, within 1e-9 dB;
- cell placement against ``|f(x) - line| <= placement tolerance``;
- EIT absorption against an independent batched Lindblad solve, within 1e-9;
- every manifest hash against a SHA-256 of the file it names.

CSV values are printed with 10 significant digits, so each comparison also
allows one unit in the tenth digit of the reference value.

``check_op`` returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

BEAT_TOL_DB = 1e-9
ABSORPTION_TOL = 1e-9


def check_op(op, out_dir: Path, code) -> list[str]:
    """Problems with one operation's exit code and output files."""
    if code != op.expected_code:
        return [f"exit code {code}, expected {op.expected_code}"]
    if op.expected_code != 0:
        written = sorted(p.name for p in out_dir.glob("*")) if out_dir.exists() else []
        return [f"failed run wrote {written}"] if written else []
    problems = _check_manifest(out_dir, op.scenario)
    try:
        problems += _SCENARIO_CHECKS[op.scenario](op.spec, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


# ---------------------------------------------------------------- parsing


def _read_csv(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    meta, rows, columns = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns or [], rows


def _column(columns: list[str], rows: list[list[str]], name: str) -> np.ndarray:
    i = columns.index(name)
    return np.array([row[i] for row in rows])


def _floats(columns, rows, name) -> np.ndarray:
    return _column(columns, rows, name).astype(float)


def _printed_unit(ref) -> np.ndarray:
    """One unit in the tenth significant digit of ``ref`` (0 for 0)."""
    a = np.abs(np.asarray(ref, dtype=float))
    exponent = np.floor(np.log10(np.where(a > 0, a, 1.0)))
    return np.where(a > 0, 10.0 ** (exponent - 9), 0.0)


def _mismatch(label: str, got, ref, tol: float = 0.0) -> list[str]:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{label}: {got.shape[0] if got.ndim else 1} values, expected {ref.shape[0]}"]
    bad = np.abs(got - ref) > tol + _printed_unit(ref)
    if not bad.any():
        return []
    i = int(np.argmax(bad))
    return [f"{label}: {int(bad.sum())} rows off, first row {i}: {got[i]!r} vs {ref[i]!r}"]


def _check_manifest(out_dir: Path, scenario: str) -> list[str]:
    path = out_dir / f"{scenario}_manifest.json"
    if not path.is_file():
        return [f"missing {path.name}"]
    listed = json.loads(path.read_text())["outputs"]
    problems = []
    for name, digest in sorted(listed.items()):
        target = out_dir / name
        if not target.is_file():
            problems.append(f"manifest names missing file {name}")
        elif hashlib.sha256(target.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest hash of {name} does not match its bytes")
    extra = {p.name for p in out_dir.iterdir()} - set(listed) - {path.name}
    if extra:
        problems.append(f"files not in manifest: {sorted(extra)}")
    return problems


# ------------------------------------------------------- reference model


def _hz(value: float, factor: float) -> float:
    # Configs are converted to Hz at a 1 mHz grain.
    return round(value * factor, 3)


def _lines(center_hz: float, spacing_hz: float, count: int) -> np.ndarray:
    return center_hz + (np.arange(count) - (count - 1) / 2.0) * spacing_hz


def _comb_lines(spec: dict) -> np.ndarray:
    comb = spec["comb"]
    return _lines(
        _hz(comb["center_frequency_ghz"], 1e9),
        _hz(comb["line_spacing_mhz"], 1e6),
        comb["line_count"],
    )


def _nearest(lines: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Exhaustive nearest-line search; ties go to the lower index."""
    return np.argmin(np.abs(freqs[:, None] - lines[None, :]), axis=1)


class _Profile:
    """Power-law field profile through two (position, frequency) anchors."""

    def __init__(self, spec: dict):
        t = spec["transition"]
        self.f0 = _hz(t["field_free_frequency_ghz"], 1e9)
        self.a = t["differential_polarizability_mhz_per_v2_cm2"] * 1e6
        anchors = sorted(
            (a["position_cm"], _hz(a["transition_frequency_ghz"], 1e9))
            for a in spec["profile"]["anchors"]
        )
        (x1, f1), (x2, f2) = anchors
        self.x0 = spec["profile"]["offset_cm"]
        self.e1 = math.sqrt((f1 - self.f0) / self.a)
        e2 = math.sqrt((f2 - self.f0) / self.a)
        self.gamma = -math.log(e2 / self.e1) / math.log((x2 + self.x0) / (x1 + self.x0))
        self.x1 = x1
        self.range = (x1, x2)

    def field(self, x):
        return self.e1 * ((self.x1 + self.x0) / (np.asarray(x) + self.x0)) ** self.gamma

    def frequency(self, x):
        return self.f0 + self.a * self.field(x) ** 2

    def slope(self, x):
        """|df/dx| in Hz/cm, to turn printed-position rounding into Hz."""
        x = np.asarray(x, dtype=float)
        return 2.0 * self.gamma * (self.frequency(x) - self.f0) / (x + self.x0)


class _Channels:
    """Calibrated linear channels of a ``count``-line array."""

    def __init__(self, spec: dict, count: int):
        ch = spec["channel"]
        st = ch["stimulus"]
        power_w = 10.0 ** ((st["power_dbm"] - 30.0) / 10.0)
        self.e_ref = (
            st["perturbation_factor"]
            * math.sqrt(30.0 * power_w * st["antenna_gain"])
            / st["distance_m"]
            / 100.0
        )
        self.peak = ch["peak_power_dbm"]
        self.half_width = _hz(ch["half_width_3db_mhz"], 1e6)
        self.order = ch["rolloff_order"]
        self.ref_detuning = _hz(ch["reference_detuning_khz"], 1e3)
        center_e = ch["center_min_detectable_field_nv_cm"] * 1e-9
        edge_e = ch["edge_sensitivity_nv_cm_sqrt_hz"] * 1e-9 / math.sqrt(ch["measurement_time_s"])
        mid = (count - 1) / 2.0
        t = np.abs(np.arange(count) - mid) / mid if count > 1 else np.zeros(1)
        g0, g1 = ch["gain_scale_endpoints"]
        self.gain_db = 20.0 * np.log10(g0 + t * (g1 - g0))
        target = center_e + t * (edge_e - center_e)
        self.noise = (
            self.peak
            + 20.0 * np.log10(target / self.e_ref)
            + self._rolloff_db(self.ref_detuning)
            + self.gain_db
        )

    def _rolloff_db(self, delta_f):
        x = np.abs(delta_f) / self.half_width
        return -10.0 * np.log10(1.0 + x ** (2 * self.order))

    def beat_dbm(self, k, field, delta_f):
        field = np.broadcast_to(np.asarray(field, dtype=float), np.shape(k))
        noise = self.noise[k]
        safe = np.where(field > 0, field, 1.0)
        signal = (
            self.peak
            + 20.0 * np.log10(safe / self.e_ref)
            + self._rolloff_db(delta_f)
            + self.gain_db[k]
        )
        total = 10.0 * np.log10(10.0 ** (signal / 10.0) + 10.0 ** (noise / 10.0))
        return np.where(field > 0, total, noise)

    def min_field(self, k, delta_f):
        exponent = (self.noise[k] - self.peak - self._rolloff_db(delta_f) - self.gain_db[k]) / 20.0
        return self.e_ref * 10.0**exponent


def eit_absorption(ladder: dict, detunings: np.ndarray) -> np.ndarray:
    """Normalised probe absorption of the four-level ladder, batched.

    Rates are in units of 2*pi*MHz. Uses row-major vectorisation and replaces
    the ground-population equation by the trace condition, then solves the
    square systems directly (the program uses column-major vectorisation and
    least squares).
    """
    n = detunings.size
    probe, coupling, mw = (ladder[k] for k in ("probe_rabi_mhz", "coupling_rabi_mhz", "mw_rabi_mhz"))
    decay_e = ladder["decay_e_mhz"]
    rates = {
        (0, 1): decay_e,
        (1, 2): ladder["decay_r1_khz"] * 1e-3,
        (2, 3): ladder["decay_r2_khz"] * 1e-3,
    }
    dephasing = ladder["dephasing_khz"] * 1e-3
    h = np.zeros((n, 4, 4), dtype=complex)
    # The eit scenario sweeps the probe with coupling and microwave on resonance.
    h[:, 1, 1] = -detunings
    h[:, 2, 2] = -detunings
    h[:, 3, 3] = -detunings
    h[:, 0, 1] = h[:, 1, 0] = probe / 2.0
    h[:, 1, 2] = h[:, 2, 1] = coupling / 2.0
    h[:, 2, 3] = h[:, 3, 2] = mw / 2.0
    eye = np.eye(4)
    # Row-major: vec(A X B) = kron(A, B.T) vec(X).
    liouv = -1j * (
        np.einsum("nij,kl->nikjl", h, eye) - np.einsum("ij,nlk->nikjl", eye, h)
    ).reshape(n, 16, 16)
    collapse = []
    for (i, j), rate in rates.items():
        op = np.zeros((4, 4))
        op[i, j] = math.sqrt(rate)
        collapse.append(op)
    for level in (2, 3):
        op = np.zeros((4, 4))
        op[level, level] = math.sqrt(2.0 * dephasing)
        collapse.append(op)
    dissipator = np.zeros((16, 16))
    for c in collapse:
        cdc = c.T @ c
        dissipator += np.kron(c, c) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    liouv = liouv + dissipator
    liouv[:, 0, :] = 0.0
    liouv[:, 0, [0, 5, 10, 15]] = 1.0
    rhs = np.zeros((n, 16, 1), dtype=complex)
    rhs[:, 0, 0] = 1.0
    rho = np.linalg.solve(liouv, rhs)[:, :, 0].reshape(n, 4, 4)
    return rho[:, 0, 1].imag * decay_e / probe


# ------------------------------------------------------- scenario checks


def _check_beat_rows(label, columns, rows, freqs, field, lines, channels) -> list[str]:
    problems = _mismatch(f"{label} signal_GHz", _floats(columns, rows, "signal_GHz"), freqs / 1e9)
    if problems:
        return problems
    want = _nearest(lines, freqs)
    got = _column(columns, rows, "channel_index").astype(int)
    if not np.array_equal(got, want):
        i = int(np.argmax(got != want))
        return [f"{label}: routed row {i} to channel {got[i]}, nearest line is {want[i]}"]
    delta = freqs - lines[want]
    problems += _mismatch(f"{label} delta_f_kHz", _floats(columns, rows, "delta_f_kHz"), delta / 1e3)
    problems += _mismatch(
        f"{label} beat_dBm",
        _floats(columns, rows, "beat_dBm"),
        channels.beat_dbm(want, field, delta),
        BEAT_TOL_DB,
    )
    e_det = channels.min_field(want, delta)
    decided = np.abs(field / e_det - 1.0) > 1e-9
    above = _column(columns, rows, "above_noise") == "true"
    wrong = decided & (above != ((field > 0) & (field >= e_det)))
    if wrong.any():
        problems.append(f"{label}: above_noise wrong in {int(wrong.sum())} rows")
    return problems


def _check_response(spec: dict, out_dir: Path) -> list[str]:
    params = spec["scenarios"]["response"]
    _, columns, rows = _read_csv(out_dir / "response.csv")
    lines = _comb_lines(spec)
    channels = _Channels(spec, lines.size)
    field = params["field_v_cm"]
    field = channels.e_ref if field is None else field
    freqs = np.linspace(_hz(params["start_ghz"], 1e9), _hz(params["stop_ghz"], 1e9), params["points"])
    return _check_beat_rows("response", columns, rows, freqs, field, lines, channels)


def _check_linearity(spec: dict, out_dir: Path) -> list[str]:
    params = spec["scenarios"]["linearity"]
    _, columns, rows = _read_csv(out_dir / "linearity.csv")
    lines = _comb_lines(spec)
    channels = _Channels(spec, lines.size)
    fields = np.logspace(
        math.log10(params["min_field_v_cm"]), math.log10(params["max_field_v_cm"]), params["points"]
    )
    probed = np.repeat(np.arange(lines.size), fields.size)
    field = np.tile(fields, lines.size)
    freqs = lines[probed] + channels.ref_detuning
    routed = _nearest(lines, freqs)
    problems = []
    if not np.array_equal(_column(columns, rows, "channel_index").astype(int), probed):
        problems.append("linearity: channel_index column out of order")
    problems += _mismatch("linearity line_GHz", _floats(columns, rows, "line_GHz"), lines[probed] / 1e9)
    problems += _mismatch("linearity field_V_per_cm", _floats(columns, rows, "field_V_per_cm"), field)
    problems += _mismatch(
        "linearity beat_dBm",
        _floats(columns, rows, "beat_dBm"),
        channels.beat_dbm(routed, field, freqs - lines[routed]),
        BEAT_TOL_DB,
    )
    return problems


def _check_sweep2cell(spec: dict, out_dir: Path) -> list[str]:
    params = spec["scenarios"]["sweep2cell"]
    meta, columns, rows = _read_csv(out_dir / "sweep2cell.csv")
    low, high = _hz(params["low_line_ghz"], 1e9), _hz(params["high_line_ghz"], 1e9)
    lines = _lines((low + high) / 2.0, high - low, 2)
    channels = _Channels(spec, 2)
    field = params["field_v_cm"]
    field = channels.e_ref if field is None else field
    freqs = np.linspace(_hz(params["start_ghz"], 1e9), _hz(params["stop_ghz"], 1e9), params["points"])
    problems = _check_beat_rows("sweep2cell", columns, rows, freqs, field, lines, channels)
    positions = np.array([float(meta["position_low_line_cm"]), float(meta["position_high_line_cm"])])
    problems += _placement("sweep2cell", _Profile(spec), positions, lines, spec)
    return problems


def _placement(label, profile, positions, lines, spec) -> list[str]:
    tol = spec["planner"]["placement_tolerance_hz"]
    slack = profile.slope(positions) * _printed_unit(positions)
    miss = np.abs(profile.frequency(positions) - lines) - slack
    if (miss > tol).any():
        i = int(np.argmax(miss))
        return [f"{label}: cell {i} misses its line by {miss[i]:.4g} Hz > {tol} Hz"]
    return []


def _check_plan(spec: dict, out_dir: Path) -> list[str]:
    meta, columns, rows = _read_csv(out_dir / "plan.csv")
    lines = _comb_lines(spec)
    profile = _Profile(spec)
    index = _column(columns, rows, "line_index").astype(int)
    if not np.array_equal(index, np.arange(lines.size)):
        return [f"plan: line_index column is not 0..{lines.size - 1}"]
    positions = _floats(columns, rows, "position_cm")
    problems = _mismatch("plan line_GHz", _floats(columns, rows, "line_GHz"), lines / 1e9)
    lo_power = spec["comb"]["total_power_dbm"] - 10.0 * math.log10(lines.size)
    problems += _mismatch("plan lo_power_dBm", _floats(columns, rows, "lo_power_dBm"), np.full(lines.size, lo_power))
    problems += _placement("plan", profile, positions, lines, spec)
    if lines.size > 1 and not (np.diff(positions) < 0).all():
        problems.append("plan: positions do not decrease with line frequency")
    if meta.get("feasible") != "true":
        problems.append(f"plan: feasible is {meta.get('feasible')!r}")

    _, columns, rows = _read_csv(out_dir / "field_profile.csv")
    xs = np.linspace(*profile.range, 241)
    problems += _mismatch("field_profile x_cm", _floats(columns, rows, "x_cm"), xs)
    problems += _mismatch("field_profile field_V_per_cm", _floats(columns, rows, "field_V_per_cm"), profile.field(xs))
    problems += _mismatch(
        "field_profile transition_GHz", _floats(columns, rows, "transition_GHz"), profile.frequency(xs) / 1e9
    )
    return problems


def _check_eit(spec: dict, out_dir: Path) -> list[str]:
    params = spec["scenarios"]["eit"]
    _, columns, rows = _read_csv(out_dir / "eit.csv")
    span = _hz(params["probe_span_mhz"], 1e6) / 1e6
    detunings = np.linspace(-span, span, params["points"])
    problems = _mismatch("eit probe_detuning_MHz", _floats(columns, rows, "probe_detuning_MHz"), detunings, 1e-12)
    if problems:
        return problems
    return _mismatch(
        "eit absorption",
        _floats(columns, rows, "absorption"),
        eit_absorption(spec["ladder"], detunings),
        ABSORPTION_TOL,
    )


_SCENARIO_CHECKS = {
    "response": _check_response,
    "linearity": _check_linearity,
    "sweep2cell": _check_sweep2cell,
    "plan": _check_plan,
    "eit": _check_eit,
}
