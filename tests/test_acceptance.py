"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from starkcomb import (
    LadderSystem,
    SCENARIO_NAMES,
    assign_channel,
    beat_power,
    beat_signal_power,
    comb_lines,
    coverage_union,
    min_detectable_field,
    probe_absorption,
    run_scenario,
    sensitivity,
    steady_state,
    transition_frequency_at,
)
from starkcomb.bloch import at_splitting

from test_bloch import (
    GAMMA_E,
    at_test_system,
    dressed_gap,
    quasi_static_beat_amplitude,
    _random_system,
)
from test_scenarios import read_csv

TWO_PI = 2 * math.pi
HALF_POWER_DB = 10 * math.log10(2.0)  # the "3 dB" point


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_stitched_bandwidth(config, tmp_path):
    started = time.perf_counter()
    run_scenario(config, "response", tmp_path)
    elapsed = time.perf_counter() - started

    _, _, rows = read_csv(tmp_path / "response.csv")
    beats = {float(r["signal_GHz"]): float(r["beat_dBm"]) for r in rows}
    peak = max(beats.values())

    in_band = {f: b for f, b in beats.items() if 8.025 <= f <= 8.235}
    assert in_band, "sweep must cover the stitched band"
    worst_in_band = peak - min(in_band.values())
    assert worst_in_band <= 3.0 + 0.1, f"in-band dip {worst_in_band:.3f} dB"

    shoulder = {
        f: b
        for f, b in beats.items()
        if (8.020 <= f < 8.025 - 1e-9) or (8.235 + 1e-9 < f <= 8.240)
    }
    assert shoulder, "sweep must cover 5 MHz beyond both band edges"
    best_shoulder = peak - max(shoulder.values())
    assert best_shoulder >= 3.0 - 0.1, f"out-of-band only {best_shoulder:.3f} dB down"

    assert elapsed < 10.0, f"response scenario took {elapsed:.2f} s"
    report(
        1,
        f"8.025-8.235 GHz within {worst_in_band:.3f} dB of peak; out-of-band "
        f">= {best_shoulder:.3f} dB down; runtime {elapsed:.2f} s",
    )


def test_criterion_2_two_cell_sweep(config, tmp_path):
    started = time.perf_counter()
    run_scenario(config, "sweep2cell", tmp_path)
    elapsed = time.perf_counter() - started

    _, _, rows = read_csv(tmp_path / "sweep2cell.csv")
    peaks = {}
    for r in rows:
        ch, f, b = int(r["channel_index"]), float(r["signal_GHz"]), float(r["beat_dBm"])
        if ch not in peaks or b > peaks[ch][1]:
            peaks[ch] = (f, b)
    assert set(peaks) == {0, 1}
    separation = abs(peaks[1][0] - peaks[0][0]) * 1e9
    assert abs(separation - 200e6) <= 1e6, f"separation {separation/1e6:.3f} MHz"
    assert elapsed < 5.0, f"sweep2cell scenario took {elapsed:.2f} s"
    report(
        2,
        f"two-cell peaks separated by {separation/1e6:.3f} MHz "
        f"(200 +/- 1 MHz); runtime {elapsed:.2f} s",
    )


def test_criterion_3_sensitivity_chain(config):
    delta = config.channel_defaults.reference_detuning
    t = config.measurement_time

    center_e_det = min_detectable_field(config.channels[10], delta)
    assert math.isclose(center_e_det, 798.2e-9, rel_tol=1e-9), (
        f"center E_det {center_e_det*1e9:.4f} nV/cm"
    )
    center_s = sensitivity(center_e_det, t)
    assert math.isclose(center_s, 253.4e-9, rel_tol=0.01), (
        f"center sensitivity {center_s*1e9:.4f} (documented 252.4 vs 253.4 rounding)"
    )

    worst_s = max(
        sensitivity(min_detectable_field(ch, delta), t) for ch in config.channels
    )
    assert math.isclose(worst_s, 326.6e-9, rel_tol=0.01), (
        f"worst sensitivity {worst_s*1e9:.4f}"
    )
    report(
        3,
        f"center E_det = {center_e_det*1e9:.4f} nV/cm -> S = {center_s*1e9:.4f} "
        f"(1% of 253.4); worst channel S = {worst_s*1e9:.4f} (1% of 326.6)",
    )


def test_criterion_4_linearity(config):
    delta = config.channel_defaults.reference_detuning

    # Pre-floor slope is exactly 20 dB/decade.
    for channel in config.channels:
        for field in (1e-7, 1e-6, 1e-5):
            step = beat_signal_power(channel, 10 * field, delta) - beat_signal_power(
                channel, field, delta
            )
            assert math.isclose(step, 20.0, abs_tol=1e-9)

    # Floored slope within +/- 0.1 dB/decade for fields >= 10 * E_det.
    worst_slope_error = 0.0
    for channel in config.channels:
        e_det = min_detectable_field(channel, delta)
        fields = 10 * e_det * 10.0 ** np.arange(0, 4)
        for low, high in zip(fields, fields[1:]):
            slope = beat_power(channel, high, delta) - beat_power(channel, low, delta)
            worst_slope_error = max(worst_slope_error, abs(slope - 20.0))
    assert worst_slope_error <= 0.1, f"floored slope off by {worst_slope_error:.4f}"

    # All 21 channels coincide within 0.2 dB at equal field in the linear region.
    floor_field = 10 * max(
        min_detectable_field(ch, delta) for ch in config.channels
    )
    worst_spread = 0.0
    for field in floor_field * 10.0 ** np.arange(0, 4):
        powers = [beat_power(ch, field, delta) for ch in config.channels]
        worst_spread = max(worst_spread, max(powers) - min(powers))
    assert worst_spread <= 0.2, f"channel curves spread {worst_spread:.4f} dB"
    report(
        4,
        "pre-floor slope exactly 20 dB/decade; floored slope error "
        f"{worst_slope_error:.4f} dB/decade (<= 0.1); equal-field channel "
        f"spread {worst_spread:.4f} dB (<= 0.2)",
    )


def test_criterion_5_placement(config, plan21, profile, transition):
    worst_residual = max(
        abs(
            transition_frequency_at(profile, transition, entry.position)
            - entry.line_frequency
        )
        for entry in plan21.entries
    )
    assert worst_residual <= 1e3, f"placement residual {worst_residual:.3g} Hz"

    low_end = plan21.entries[-1].position  # highest line, high-field end
    high_end = plan21.entries[0].position
    assert abs(low_end - 2.0) <= 1e-6
    assert abs(high_end - 7.98) <= 1e-6
    report(
        5,
        f"all 21 cells within {worst_residual:.3g} Hz of their lines "
        f"(<= 1 kHz); endpoints {low_end} cm and {high_end} cm",
    )


def test_criterion_6_eit_at_physics():
    # Density-matrix physicality over 1000 random parameter sets.
    rng = np.random.default_rng(20260809)
    worst_hermiticity = worst_trace = worst_negativity = 0.0
    for _ in range(1000):
        rho = steady_state(_random_system(rng)).rho
        worst_hermiticity = max(
            worst_hermiticity, float(np.max(np.abs(rho - rho.conj().T)))
        )
        worst_trace = max(worst_trace, abs(np.trace(rho) - 1.0))
        eigenvalues = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        worst_negativity = max(worst_negativity, float(-eigenvalues.min()))
    assert worst_hermiticity <= 1e-10
    assert worst_trace <= 1e-10
    assert worst_negativity <= 1e-8

    # AT splitting within 2% of the dressed-eigenvalue oracle over the
    # strong-field range.
    worst_at_error = 0.0
    for multiple in (5, 10, 20, 35, 50):
        mw = multiple * GAMMA_E
        system = at_test_system(mw)
        sweep = np.linspace(-0.75 * mw, 0.75 * mw, 1501)
        measured = at_splitting(system, sweep)
        error = abs(measured - dressed_gap(mw) / TWO_PI) / (dressed_gap(mw) / TWO_PI)
        worst_at_error = max(worst_at_error, error)
    assert worst_at_error <= 0.02, f"AT error {worst_at_error:.4f}"

    # Heterodyne beat amplitude: log-log slope 1.00 +/- 0.01 over two decades.
    base = LadderSystem(
        probe_rabi=TWO_PI * 6.9e6,
        coupling_rabi=TWO_PI * 16.1e6,
        mw_rabi=TWO_PI * 5e6,
    )
    signals = np.logspace(-4, -2, 13) * base.mw_rabi
    amplitudes = [abs(quasi_static_beat_amplitude(base, s)) for s in signals]
    slope = np.polyfit(np.log10(signals), np.log10(amplitudes), 1)[0]
    assert abs(slope - 1.0) <= 0.01, f"beat slope {slope:.4f}"
    report(
        6,
        f"physicality over 1000 random sets (hermiticity {worst_hermiticity:.2e}, "
        f"trace {worst_trace:.2e}, negativity {worst_negativity:.2e}); AT error "
        f"{worst_at_error*100:.2f}% (<= 2%); beat slope {slope:.4f} (1.00 +/- 0.01)",
    )


def test_criterion_7_channel_assignment(config, comb21):
    lines = np.array(comb_lines(comb21))
    rng = np.random.default_rng(1234)
    frequencies = rng.uniform(lines[0] - 5e6, lines[-1] + 5e6, 10_000)
    for f in frequencies:
        index, delta = assign_channel(comb21, float(f), half_width=5e6)
        brute = int(np.argmin(np.abs(f - lines)))
        assert index == brute
        assert delta == f - lines[brute]

    half_width = 5e6
    from starkcomb import FrequencyComb

    pair = FrequencyComb(8.13e9, 2 * half_width, 2, total_power=0.0)
    intervals = coverage_union(comb_lines(pair), half_width=half_width)
    assert len(intervals) == 1, "two-cell coverage must be contiguous"
    width = intervals[0][1] - intervals[0][0]
    assert width == 4 * half_width
    report(
        7,
        "assign_channel matches exhaustive search on 10^4 random in-band "
        f"frequencies; two-cell coverage contiguous, width {width/1e6:.1f} MHz "
        "= 4 x half-width",
    )


def test_criterion_8_determinism(config, tmp_path):
    for name in SCENARIO_NAMES:
        paths_a = run_scenario(config, name, tmp_path / "a" / name)
        paths_b = run_scenario(config, name, tmp_path / "b" / name)
        assert [p.name for p in paths_a] == [p.name for p in paths_b]
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes(), f"{name}/{pa.name} differs"
    report(8, "repeated runs of all six scenarios are byte-identical")
