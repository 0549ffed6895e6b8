"""The one input guard, ``errors.require``, at every site that calls it.

Each failing input below names the exact error type and text that the site
gave before the guard was shared, so the texts are part of the contract.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from starkcomb import (
    CellArrayPlan,
    ConfigError,
    CoverageError,
    DegenerateSystemError,
    DegenerateTransitionError,
    DomainError,
    FieldProfile,
    FrequencyComb,
    InfeasibleProfileError,
    LadderSystem,
    PlannerError,
    PlanRow,
    ProfileRangeError,
    RegimeError,
    RydbergTransition,
    StarkCombError,
    UnderdeterminedError,
    UnreachableFrequencyError,
    at_splitting,
    beat_power,
    beat_signal_power,
    build_channels,
    channel_table,
    coverage_union,
    default_config,
    far_field_strength,
    field_at,
    field_for_frequency,
    fit_profile,
    heterodyne_gain,
    min_detectable_field,
    place_cells,
    position_at,
    probe_absorption,
    rolloff,
    sensitivity,
    stark_shifted_frequency,
    steady_state,
    stitched_response,
    transition_frequency_at,
)
from starkcomb.config import MAX_ROWS
from starkcomb.errors import after_first_failure, require

from conftest import ANCHORS, DPOL_HZ_PER_V2, FIELD_FREE_HZ

T = RydbergTransition(FIELD_FREE_HZ, DPOL_HZ_PER_V2)
FLAT = RydbergTransition(FIELD_FREE_HZ, 0.0)  # cannot be tuned
P = fit_profile(ANCHORS, T)  # valid over [2.0, 7.98] cm
COMB = FrequencyComb(8.13e9, 10e6, 21, total_power=11.0)
PLAN = place_cells(P, T, COMB)
DEFAULTS = default_config().channel_defaults
CH = build_channels(DEFAULTS, PLAN.entries)
GAMMA = 2.0 * math.pi * 5.2e6
S = LadderSystem(0.1 * GAMMA, GAMMA, 0.0)
STRONG = LadderSystem(0.1 * GAMMA, GAMMA, 20.0 * GAMMA)
EMPTY_PLAN = CellArrayPlan(np.recarray(0, dtype=PlanRow), math.inf, True)
SHUFFLED = CellArrayPlan(PLAN.entries[::-1], PLAN.min_spacing, True)
# Coupling and microwave off, Rydberg levels draining at 8e-15 decay_e: the
# condition number passes the limit.
DRAINING = LadderSystem(0.1 * GAMMA, 0.0, 0.0, decay_r1=8e-15 * GAMMA, decay_r2=8e-15 * GAMMA,
                        dephasing=0.0)

# (call, error type, exact text)
FAILURES = {
    "stark_shifted_frequency": (
        lambda: stark_shifted_frequency(T, [1.0, -2.0, math.nan]),
        DomainError, "field must be >= 0, got -2.0"),
    "field_for_frequency": (
        lambda: field_for_frequency(T, [8.0e9, 7.0e9]),
        UnreachableFrequencyError,
        "target 7000000000.0 Hz is not at or above the field-free frequency 7970000000.0 Hz"),
    "field_for_frequency degenerate first": (
        lambda: field_for_frequency(FLAT, [7.97e9, 8.0e9, 7.0e9]),
        DegenerateTransitionError, "differential_polarizability is zero; transition cannot be tuned"),
    "field_for_frequency unreachable first": (
        lambda: field_for_frequency(FLAT, [7.97e9, 7.0e9, 8.0e9]),
        UnreachableFrequencyError,
        "target 7000000000.0 Hz is not at or above the field-free frequency 7970000000.0 Hz"),
    "FieldProfile valid_range": (
        lambda: FieldProfile(2.0, 10.0, 0.5, valid_range=(8.0, 2.0)),
        InfeasibleProfileError, "valid_range must satisfy x_min < x_max, got (8.0, 2.0)"),
    "FieldProfile reference_field": (
        lambda: FieldProfile(2.0, -1.0, 0.5, valid_range=(2.0, 8.0)),
        InfeasibleProfileError, "reference_field must be > 0, got -1.0"),
    "FieldProfile decay_exponent": (
        lambda: FieldProfile(2.0, 10.0, 0.0, valid_range=(2.0, 8.0)),
        InfeasibleProfileError, "decay_exponent must be > 0, got 0.0"),
    "FieldProfile offset": (
        lambda: FieldProfile(2.0, 10.0, 0.5, -1.0, (2.0, 8.0)),
        InfeasibleProfileError, "offset must be >= 0, got -1.0"),
    "FieldProfile x_min + offset": (
        lambda: FieldProfile(2.0, 10.0, 0.5, 0.5, (-1.0, 8.0)),
        InfeasibleProfileError, "x_min + offset must be > 0, got -0.5"),
    "field_at": (
        lambda: field_at(P, [3.0, 9.0, 1.0]),
        ProfileRangeError, "position 9.0 cm outside valid range [2.0, 7.98] cm"),
    "position_at range first": (
        lambda: position_at(P, [10.0, 100.0, -1.0]),
        ProfileRangeError,
        "field 100.0 V/cm is reached at 0.06386025987035594 cm, outside valid range "
        "[2.0, 7.98] cm"),
    "position_at domain first": (
        lambda: position_at(P, [10.0, -1.0, 100.0]),
        DomainError, "field must be > 0, got -1.0"),
    "fit_profile no anchors": (
        lambda: fit_profile([], T),
        UnderdeterminedError, "at least one anchor is required"),
    "fit_profile shared first": (
        lambda: fit_profile([(2.0, 8.23e9), (2.0, 8.1e9), (5.0, 8.0e9), (6.0, 8.2e9)], T),
        UnderdeterminedError, "anchors share position x + offset = 2.0 cm"),
    "fit_profile non-monotone first": (
        lambda: fit_profile([(2.0, 8.0e9), (3.0, 8.1e9), (5.0, 8.05e9), (5.0, 8.0e9)], T),
        InfeasibleProfileError,
        "anchor frequencies must decrease strictly with position: "
        "f(2.0 cm) = 8000000000.0 Hz, f(3.0 cm) = 8100000000.0 Hz"),
    "fit_profile shared and non-monotone": (
        lambda: fit_profile([(2.0, 8.1e9), (2.0, 8.2e9)], T),
        UnderdeterminedError, "anchors share position x + offset = 2.0 cm"),
    "fit_profile int anchors": (
        lambda: fit_profile([(2, 8000000000), (3, 8100000000)], T),
        InfeasibleProfileError,
        "anchor frequencies must decrease strictly with position: "
        "f(2 cm) = 8000000000 Hz, f(3 cm) = 8100000000 Hz"),
    "fit_profile one anchor": (
        lambda: fit_profile([(2.0, 8.23e9)], T),
        UnderdeterminedError, "two anchors are required to fit the decay exponent"),
    "fit_profile misfit": (
        lambda: fit_profile([(2.0, 8.23e9), (5.0, 8.2e9), (7.98, 8.03e9)], T),
        InfeasibleProfileError,
        "power-law profile misses anchor at x = 5.0 cm by 1.19e+08 Hz (> 1000 Hz); anchors "
        "are not consistent with a single monotone decay"),
    "FrequencyComb center_frequency": (
        lambda: FrequencyComb(0.0, 1e7, 3),
        DomainError, "center_frequency must be finite and > 0, got 0.0"),
    "FrequencyComb line_spacing": (
        lambda: FrequencyComb(8e9, math.inf, 3),
        DomainError, "line_spacing must be finite and > 0, got inf"),
    "FrequencyComb line_count": (
        lambda: FrequencyComb(8e9, 1e7, 0),
        DomainError, "line_count must be >= 1, got 0"),
    "FrequencyComb line_count float": (
        lambda: FrequencyComb(8e9, 1e7, 2.5),
        DomainError, "line_count must be an integer, got 2.5"),
    "FrequencyComb line_count whole float": (
        lambda: FrequencyComb(8e9, 1e7, 2.0, per_line_power=(0.0, 0.0)),
        DomainError, "line_count must be an integer, got 2.0"),
    "FrequencyComb line_count bool": (
        lambda: FrequencyComb(8e9, 1e7, True),
        DomainError, "line_count must be an integer, got True"),
    # The cap is checked before the equal-split per_line_power tuple is built.
    "FrequencyComb line_count above MAX_ROWS": (
        lambda: FrequencyComb(8e9, 1e7, MAX_ROWS + 1),
        DomainError, f"line_count must be <= {MAX_ROWS}, got {MAX_ROWS + 1}"),
    "FrequencyComb line_count 10**9": (
        lambda: FrequencyComb(8e9, 1e7, 10**9),
        DomainError, f"line_count must be <= {MAX_ROWS}, got 1000000000"),
    "FrequencyComb per_line_power length": (
        lambda: FrequencyComb(8e9, 1e7, 3, per_line_power=(0.0, 1.0)),
        DomainError, "per_line_power has 2 entries but line_count is 3"),
    "FrequencyComb per_line_power levels": (
        lambda: FrequencyComb(8e9, 1e7, 3, per_line_power=(0.0, math.nan, 4000.0)),
        DomainError, "per_line_power must be within +/-3082.5 dBm, got 0.0, nan, 4000.0"),
    "FrequencyComb total_power": (
        lambda: FrequencyComb(8e9, 1e7, 3, total_power=4000.0),
        DomainError, "total_power must be within +/-3082.5 dBm, got 4000.0"),
    "place_cells not decreasing": (
        lambda: place_cells(P, FLAT, COMB),
        PlannerError, "profile is not strictly decreasing over its valid range"),
    "place_cells outside band": (
        lambda: place_cells(P, T, FrequencyComb(8.13e9, 20e6, 21)),
        CoverageError,
        "line 0: line at 7930000000.0 Hz outside reachable band [8030000000.0, 8230000000.0] Hz"),
    "place_cells misses line": (
        lambda: place_cells(P, T, FrequencyComb(8.13e9, 10e6, 3), tol=-1.0),
        PlannerError,
        "position 3.360968787072967 cm misses line at 8120000000.0 Hz by 0 Hz (tolerance -1 Hz)"),
    "place_cells spacing": (
        # Every line within tol of the top band end snaps to its position.
        lambda: place_cells(P, T, FrequencyComb(8.13e9, 10e6, 3), tol=1e9),
        PlannerError,
        "positions not strictly decreasing with line frequency: x[0] = 2.0 cm, x[1] = 2.0 cm"),
    "coverage_union half_width": (
        lambda: coverage_union([8e9], math.nan),
        DomainError, "half_width must be finite and > 0, got nan"),
    "coverage_union no lines": (
        lambda: coverage_union([], 5e6),
        DomainError, "coverage requires at least one line"),
    "coverage_union scalar": (
        lambda: coverage_union(8e9, 5e6),
        DomainError, "lines must be 1-D, got 0-D"),
    "coverage_union row": (
        lambda: coverage_union([[8e9, 8.01e9]], 5e6),
        DomainError, "lines must be 1-D, got 2-D"),
    "coverage_union column": (
        lambda: coverage_union([[8e9], [8.01e9]], 5e6),
        DomainError, "lines must be 1-D, got 2-D"),
    "coverage_union empty 2-D": (
        lambda: coverage_union(np.zeros((0, 2)), 5e6),
        DomainError, "lines must be 1-D, got 2-D"),
    "channel_table reference_field": (
        lambda: channel_table(-36.5, [1e-5, -1.0]),
        DomainError, "reference_field must be > 0, got -1.0"),
    "channel_table half_width_3db": (
        lambda: channel_table(-36.5, 1e-5, [5e6, math.inf]),
        DomainError, "half_width_3db must be > 0, got inf"),
    "channel_table rolloff_order": (
        lambda: channel_table(-36.5, 1e-5, 5e6, [2, 2.5]),
        DomainError, "rolloff_order must be a positive integer, got 2.5"),
    "channel_table gain_scale": (
        lambda: channel_table(-36.5, 1e-5, gain_scale=[1.0, 0.0]),
        DomainError, "gain_scale must be > 0, got 0.0"),
    "channel_table noise_floor": (
        lambda: channel_table([-36.5, -36.5], 1e-5, noise_floor=[-80.0, -30.0]),
        DomainError,
        "noise_floor (-30.0 dBm) must be below peak_power (-36.5 dBm), both finite"),
    "sensitivity": (
        lambda: sensitivity([1e-7, -1e-7], 1.0),
        DomainError, "e_det must be finite and > 0, got -1e-07"),
    "beat_signal_power": (
        lambda: beat_signal_power(CH[10], [1e-5, 1e308], 0.0),
        DomainError, "beat signal power must be below +inf dBm, got inf"),
    "build_channels calibration": (
        # A 1e291 V/cm center target needs a noise floor far above the peak.
        lambda: build_channels(dataclasses.replace(DEFAULTS, center_e_det=1e291), PLAN.entries),
        ConfigError,
        "channel: noise_floor (5848.728353180034 dBm) must be below peak_power (-36.5 dBm), "
        "both finite"),
    "stimulus 2-D": (
        lambda: stitched_response(PLAN, CH, [[8.13e9]], 1e-5),
        DomainError, "stimulus needs a non-empty 1-D array of frequencies"),
    "stimulus signal frequency": (
        lambda: stitched_response(PLAN, CH, math.nan, 1e-5),
        DomainError, "signal frequency must be finite and > 0, got nan"),
    "stimulus field": (
        lambda: stitched_response(PLAN, CH, 8.13e9, -1.0),
        DomainError, "field must be finite and >= 0, got -1.0"),
    "plan no entries": (
        lambda: stitched_response(EMPTY_PLAN, CH, 8.13e9, 1e-5),
        PlannerError, "plan has no entries"),
    "plan channel count": (
        lambda: stitched_response(PLAN, CH[:-1], 8.13e9, 1e-5),
        PlannerError, "got 20 channel responses for 21 plan entries"),
    "plan unsorted": (
        lambda: stitched_response(SHUFFLED, CH, 8.13e9, 1e-5),
        PlannerError, "plan entries must be ordered by ascending line frequency"),
    "LadderSystem finite": (
        lambda: LadderSystem(1.0, 1.0, math.nan),
        DomainError, "mw_rabi must be finite, got nan"),
    "LadderSystem rate": (
        lambda: LadderSystem(1.0, -1.0, 0.0),
        DomainError, "coupling_rabi must be >= 0, got -1.0"),
    "LadderSystem decay_e": (
        lambda: LadderSystem(1.0, 1.0, 1.0, decay_e=0.0),
        DomainError, "decay_e must be > 0, got 0.0"),
    "steady_state condition": (
        # The condition number's digits depend on the LAPACK build.
        lambda: steady_state(DRAINING),
        DegenerateSystemError,
        re.compile(r"steady state is not unique \(condition number \d\.\d{3}e\+\d\d exceeds "
                   r"2\.815e\+14\); the level structure is disconnected or undamped")),
    "steady_state swept finite": (
        lambda: steady_state(S, probe_detuning=[0.0, math.nan]),
        DomainError, "swept probe_detuning must be finite"),
    "steady_state swept mw_rabi": (
        lambda: steady_state(S, mw_rabi=[1.0, -1.0]),
        DomainError, "swept mw_rabi must be >= 0"),
    "probe_absorption probe_rabi": (
        lambda: probe_absorption(LadderSystem(0.0, GAMMA, 0.0)),
        DomainError, "probe_rabi must be > 0 to define probe absorption"),
    "at_splitting regime": (
        lambda: at_splitting(S, np.linspace(-1e8, 1e8, 11)),
        RegimeError,
        "mw_rabi = 0.000e+00 rad/s is below the strong-field regime "
        "(5 * decay_e = 1.634e+08 rad/s)"),
    "at_splitting sweep": (
        lambda: at_splitting(STRONG, [0.0, 1.0]),
        DomainError, "probe_sweep must be a 1-D array of at least 5 detunings"),
    "at_splitting windows": (
        lambda: at_splitting(STRONG, np.linspace(-1e6, 1e6, 5)),
        RegimeError,
        "found 0 transparency window(s); need two to measure a splitting "
        "(widen or refine the probe sweep)"),
    "heterodyne_gain": (
        lambda: heterodyne_gain(S, mw_rabi=[1.0, 0.0]),
        DomainError, "mw_rabi must be > 0 to define the heterodyne gain"),
}


@pytest.mark.parametrize("call, error, text", FAILURES.values(), ids=FAILURES.keys())
def test_first_failure_text(call, error, text):
    with pytest.raises(StarkCombError) as info:
        call()
    assert type(info.value) is error
    if isinstance(text, re.Pattern):
        assert text.fullmatch(str(info.value)), str(info.value)
    else:
        assert str(info.value) == text


# Empty arrays pass every guard: nothing fails, so no column is read.
EMPTY = {
    "stark": lambda: (stark_shifted_frequency(T, []), field_for_frequency(T, [])),
    "field_map": lambda: (field_at(P, []), position_at(P, []), transition_frequency_at(P, T, [])),
    "receiver": lambda: (rolloff(CH[0], []), beat_power(CH[0], [], []),
                         min_detectable_field(CH[0], []), sensitivity([], 1.0)),
    "channel_table": lambda: channel_table([], [], [], [], [], []),
    "every line snapped": lambda: place_cells(P, T, FrequencyComb(8.13e9, 200e6, 2)),
    "one line": lambda: place_cells(P, T, FrequencyComb(8.13e9, 10e6, 1)),
    "one anchor": lambda: fit_profile([(2.0, 8.23e9)], T, decay_exponent=0.53),
}


@pytest.mark.parametrize("call", EMPTY.values(), ids=EMPTY.keys())
def test_empty_input_passes(call):
    call()


@pytest.mark.parametrize("count", [1, 2, 21])
def test_build_channels_gives_one_channel_per_plan_entry(count):
    plan = place_cells(P, T, FrequencyComb(8.13e9, 10e6, count))
    assert len(plan.entries) == count
    assert build_channels(DEFAULTS, plan.entries).shape == (count,)


# ---------------------------------------------------------------- the guard


def test_require_names_the_first_false_element():
    ok = np.array([[True, False], [False, True]])
    columns = np.array([[1.0, 2.0], [3.0, 4.0]]), ["a", "b", "c", "d"]
    with pytest.raises(DomainError, match=r"^2\.0 b$"):
        require(ok, DomainError, "{} {}", *columns)
    require(np.ones((2, 2), bool), DomainError, "{}", [])  # columns unread


def test_require_fails_on_nan():
    values = np.array([1.0, math.nan])
    with pytest.raises(DomainError, match="got nan"):
        require(values >= 0, DomainError, "got {}", values)


def test_require_keeps_python_values():
    with pytest.raises(DomainError, match=r"^3 2\.5$"):
        require([True, False], DomainError, "{} {}", [1, 3], (0.5, 2.5))


def test_after_first_failure():
    ok = np.array([True, False, True, False])
    assert after_first_failure(ok).tolist() == [False, False, True, True]
    assert after_first_failure(np.ones(3, bool)).tolist() == [False] * 3
    assert after_first_failure(np.array(False)).shape == ()


# ---------------------------------------------------------------- new guards


@pytest.mark.parametrize(
    "args, text",
    [
        ((math.inf, 1.0, 1.0), "power must be finite and >= 0, got inf"),
        ((-1.0, 1.0, 1.0), "power must be finite and >= 0, got -1.0"),
        ((1.0, math.nan, 1.0), "gain must be finite and > 0, got nan"),
        ((1.0, 1.0, math.inf), "distance must be finite and > 0, got inf"),
        ((1.0, 1.0, 1.0, math.inf), "perturbation must be finite and > 0, got inf"),
        ((1e300, 1e300, 1.0), "field strength must be below +inf V/m, got inf"),
        ((1.0, 1.0, 5e-324), "field strength must be below +inf V/m, got inf"),
    ],
)
def test_far_field_strength_rejects_non_finite(args, text):
    with pytest.raises(DomainError) as info:
        far_field_strength(*args)
    assert str(info.value) == text


@pytest.mark.parametrize(
    "args, text",
    [
        ((math.inf, 1e6), "field_free_frequency must be finite and > 0, got inf"),
        ((0.0, 1e6), "field_free_frequency must be finite and > 0, got 0.0"),
        ((7.97e9, math.inf), "differential_polarizability must be finite and >= 0 "
                             "(upward-shifting state pairs only), got inf"),
        ((7.97e9, -1.0), "differential_polarizability must be finite and >= 0 "
                         "(upward-shifting state pairs only), got -1.0"),
    ],
)
def test_transition_rejects_non_finite(args, text):
    with pytest.raises(DomainError) as info:
        RydbergTransition(*args)
    assert str(info.value) == text


@pytest.mark.parametrize(
    "args, text",
    [
        ((2.0, math.inf, 0.5, 0.0, (2.0, 8.0)), "reference_field must be finite, got inf"),
        ((math.nan, 10.0, 0.5, 0.0, (2.0, 8.0)), "reference_position must be finite, got nan"),
        ((2.0, 10.0, math.inf, 0.0, (2.0, 8.0)), "decay_exponent must be finite, got inf"),
        ((2.0, 10.0, 0.5, math.inf, (2.0, 8.0)), "offset must be finite, got inf"),
        ((2.0, 10.0, 0.5, 0.0, (2.0, math.inf)), "x_max must be finite, got inf"),
    ],
)
def test_profile_rejects_infinite_parameters(args, text):
    with pytest.raises(DomainError) as info:
        FieldProfile(*args)
    assert str(info.value) == text


@pytest.mark.parametrize("lines", [[8.0e9, math.nan, 8.01e9], [8.0e9, math.inf]])
def test_coverage_union_rejects_non_finite_lines(lines):
    with pytest.raises(DomainError, match="lines must be finite, got (nan|inf)"):
        coverage_union(lines, 5e6)


def test_nan_detuning_is_named():
    channel = CH[10]
    for call in (
        lambda: rolloff(channel, math.nan),
        lambda: min_detectable_field(channel, [0.0, math.nan]),
        lambda: beat_power(channel, 1e-5, math.nan),
    ):
        with pytest.raises(DomainError, match="^delta_f must not be NaN, got nan$"):
            call()
    assert rolloff(channel, math.inf) == rolloff(channel, -math.inf) == 0.0
    assert beat_power(channel, 1e-5, math.inf) == channel.noise_floor
