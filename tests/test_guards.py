"""The input contract of ``errors``, at every site that calls it: the one
guard, ``require``, the scalar rule, ``is_number``, the sequence rule,
``as_floats``, and the display budget of every error text.

Each failing input in ``FAILURES`` names the exact error type and text of its
site, so the texts are part of the contract: the first rows are the texts the
sites gave before the guard was shared, the later ones those of the scalar
rule, of the sequence rule and of the checks added with them. The oversized
rows, and the budget test after them, give values that would take megabytes
to write out. The input-contract property at the end swaps odd values into
every number, array and sequence parameter of the public callables, one table
row at a time.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    calibrate_noise_floor,
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
from starkcomb.errors import after_first_failure, is_number, require
from starkcomb.comb import nearest_line_index
from starkcomb.receiver import response_blocks

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
    # A scalar parameter passes errors.is_number: an array, a string or a bool
    # given for one is named, and shown whole.
    "RydbergTransition array": (
        lambda: RydbergTransition(np.array([1.0, 2.0]), DPOL_HZ_PER_V2),
        DomainError, "field_free_frequency must be finite and > 0, got [1. 2.]"),
    "RydbergTransition string": (
        lambda: RydbergTransition(FIELD_FREE_HZ, "1e6"),
        DomainError, "differential_polarizability must be finite and >= 0 "
                     "(upward-shifting state pairs only), got 1e6"),
    "FrequencyComb center_frequency array": (
        lambda: FrequencyComb(np.array([8e9]), 1e7, 3),
        DomainError, "center_frequency must be finite and > 0, got [8.e+09]"),
    "FrequencyComb line_spacing string": (
        lambda: FrequencyComb(8e9, "1e7", 3),
        DomainError, "line_spacing must be finite and > 0, got 1e7"),
    # Checked before it is split, so no line gets an array of powers.
    "FrequencyComb total_power array": (
        lambda: FrequencyComb(8e9, 1e7, 3, total_power=np.array([1.0, 2.0])),
        DomainError, "total_power must be within +/-3082.5 dBm, got [1. 2.]"),
    "LadderSystem array": (
        lambda: LadderSystem(1.0, np.array([1.0, 2.0]), 0.0),
        DomainError, "coupling_rabi must be finite, got [1. 2.]"),
    "LadderSystem string": (
        lambda: LadderSystem(1.0, 1.0, "0"),
        DomainError, "mw_rabi must be finite, got 0"),
    "LadderSystem bool": (
        lambda: LadderSystem(1.0, 1.0, 0.0, dephasing=True),
        DomainError, "dephasing must be finite, got True"),
    "FieldProfile array": (
        lambda: FieldProfile(2.0, np.array([1.0, 2.0]), 0.5, valid_range=(2.0, 8.0)),
        DomainError, "reference_field must be finite, got [1. 2.]"),
    # Named before the bounds, which would compare the string.
    "FieldProfile string": (
        lambda: FieldProfile(2.0, 10.0, 0.5, valid_range=(2.0, "8")),
        DomainError, "x_max must be finite, got 8"),
    "FieldProfile int beyond float": (
        lambda: FieldProfile(2.0, 10.0, 0.5, 10**309, (2.0, 8.0)),
        DomainError, f"offset must be finite, got {10**309}"),
    "coverage_union half_width array": (
        lambda: coverage_union([8e9], np.array([5e6])),
        DomainError, "half_width must be finite and > 0, got [5000000.]"),
    "fit_profile offset array": (
        lambda: fit_profile(ANCHORS, T, offset=np.array([0.1, 0.2])),
        InfeasibleProfileError,
        "anchors must be finite with position + offset > 0, got [(2.0, 8230000000.0), "
        "(7.98, 8030000000.0)] and offset [0.1 0.2] cm"),
    "far_field_strength empty": (
        lambda: far_field_strength(np.array([]), 1.0, 1.0),
        DomainError, "power must be finite and >= 0, got []"),
    "far_field_strength 2-D": (
        lambda: far_field_strength(1.0, np.ones((1, 2)), 1.0),
        DomainError, "gain must be finite and > 0, got [[1. 1.]]"),
    "place_cells tol": (
        lambda: place_cells(P, T, COMB, tol=math.nan),
        DomainError, "tol must be finite, got nan"),
    "place_cells tol array": (
        lambda: place_cells(P, T, COMB, tol=np.array([1e3, 2e3])),
        DomainError, "tol must be finite, got [1000. 2000.]"),
    "place_cells min_gap": (
        lambda: place_cells(P, T, COMB, min_gap=math.nan),
        DomainError, "min_gap must be finite and >= 0, got nan"),
    "place_cells min_gap negative": (
        lambda: place_cells(P, T, COMB, min_gap=-1.0),
        DomainError, "min_gap must be finite and >= 0, got -1.0"),
    # The field squared overflows.
    "stark_shifted_frequency overflow": (
        lambda: stark_shifted_frequency(T, 1e160),
        DomainError, "field 1e+160 V/cm gives non-finite frequency inf Hz"),
    # 0 * inf is NaN.
    "stark_shifted_frequency flat at inf": (
        lambda: stark_shifted_frequency(FLAT, math.inf),
        DomainError, "field inf V/cm gives non-finite frequency nan Hz"),
    # Each element's first failing check names it: the overflow comes first.
    "stark_shifted_frequency overflow first": (
        lambda: stark_shifted_frequency(T, [1.0, 1e160, -2.0]),
        DomainError, "field 1e+160 V/cm gives non-finite frequency inf Hz"),
    "field_for_frequency inf": (
        lambda: field_for_frequency(T, [8.0e9, math.inf]),
        DomainError, "target inf Hz needs an infinite field"),
    "calibrate_noise_floor shapes": (
        lambda: calibrate_noise_floor(CH, np.ones(3) * 1e-6, 500e3),
        DomainError, "channel and argument shapes [(21,), (3,), ()] do not broadcast"),
    "rolloff shapes": (
        lambda: rolloff(CH, np.zeros((2, 2))),
        DomainError, "channel and argument shapes [(21,), (2, 2)] do not broadcast"),
    "min_detectable_field shapes": (
        lambda: min_detectable_field(CH, np.zeros(20)),
        DomainError, "channel and argument shapes [(21,), (20,)] do not broadcast"),
    # A value over the display budget is named by its type or bit count (rows
    # marked "oversized"; written out whole, the first two texts took 8 000 047
    # and 2 598 157 characters, and the two ints exceeded Python's int-to-str limit).
    "FrequencyComb per_line_power oversized": (
        lambda: FrequencyComb(8e9, 1e3, 10**6, per_line_power=(4000.0,) * 10**6),
        DomainError, "per_line_power must be within +/-3082.5 dBm, got <tuple too large to show>"),
    "fit_profile anchors oversized": (
        lambda: fit_profile([(2.0 + 1e-5 * k, 8.23e9 - k) for k in range(100_000)]
                            + [(math.nan, 8.0e9)], T),
        InfeasibleProfileError,
        "anchors must be finite with position + offset > 0, got <list too large to show> and "
        "offset 0.0 cm"),
    "FrequencyComb line_count oversized": (
        lambda: FrequencyComb(8e9, 1e7, 10**5000),
        DomainError, "line_count must be <= 1000000, got <int of 16610 bits>"),
    "RydbergTransition field_free_frequency oversized": (
        lambda: RydbergTransition(-(10**5000), 1.0),
        DomainError, "field_free_frequency must be finite and > 0, got <int of 16610 bits>"),
    # A sequence parameter passes errors.as_floats: a value numpy cannot read as
    # numbers of the parameter's shape is named. None alone means "not given".
    "FrequencyComb per_line_power empty": (
        lambda: FrequencyComb(8.13e9, 1e7, 21, per_line_power=[]),
        DomainError, "per_line_power has 0 entries but line_count is 21"),
    "FrequencyComb per_line_power array": (
        lambda: FrequencyComb(8e9, 1e7, 2, per_line_power=np.array([1.0, 5000.0])),
        DomainError, "per_line_power must be within +/-3082.5 dBm, got 1.0, 5000.0"),
    "FrequencyComb per_line_power float": (
        lambda: FrequencyComb(8e9, 1e7, 2, per_line_power=1.0),
        DomainError, "per_line_power must be a 1-D sequence of numbers, got 1.0"),
    "FrequencyComb per_line_power nested": (
        lambda: FrequencyComb(8e9, 1e7, 2, per_line_power=((0.0,), (1.0,))),
        DomainError, "per_line_power must be a 1-D sequence of numbers, got ((0.0,), (1.0,))"),
    "fit_profile anchors float": (
        lambda: fit_profile(math.nan, T),
        DomainError, "anchors must be a sequence of (position, frequency) pairs, got nan"),
    "fit_profile anchors flat": (
        lambda: fit_profile([2.0, 8.2e9], T),
        DomainError,
        "anchors must be a sequence of (position, frequency) pairs, got [2.0, 8200000000.0]"),
    "FieldProfile valid_range float": (
        lambda: FieldProfile(2.0, 10.0, 0.5, 0.0, math.nan),
        DomainError, "valid_range must be a pair (x_min, x_max), got nan"),
    "coverage_union lines string": (
        lambda: coverage_union("x", 5e6),
        DomainError, "lines must be numbers, got x"),
    "nearest_line_index no lines": (
        lambda: nearest_line_index([], [1.0]),
        DomainError, "routing requires at least one line"),
    "channel_table shapes": (
        lambda: channel_table([1.0, 2.0], [1e-3] * 3),
        DomainError, "channel and argument shapes [(2,), (3,), (), (), (), ()] do not broadcast"),
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


# Beyond the oversized rows, a 10**7-character string for a scalar field and
# a 10**6-tuple for another, which the texts of the scalar rule show.
OVERSIZED = {
    **{name: FAILURES[name][0] for name in FAILURES if name.endswith("oversized")},
    "FrequencyComb center_frequency string": lambda: FrequencyComb("x" * 10**7, 1e7, 3),
    "LadderSystem coupling_rabi tuple": lambda: LadderSystem(1.0, (1.0,) * 10**6, 0.0),
}


@pytest.mark.parametrize("call", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_error_text_stays_within_the_display_budget(call):
    with pytest.raises(StarkCombError) as info:
        call()
    assert len(str(info.value)) <= 600


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


def test_require_shows_each_column_whole_for_a_scalar():
    with pytest.raises(DomainError, match=r"^got \[1\. 2\.\] and x$"):
        require(False, DomainError, "got {} and {}", np.array([1.0, 2.0]), "x")
    with pytest.raises(DomainError, match=r"^got 3$"):
        require(np.array(False), DomainError, "got {}", np.array(3))


def test_require_shows_each_value_within_the_budget():
    # A number keeps its format spec; a string is cut, an int too long to print is named.
    with pytest.raises(DomainError) as info:
        require(False, DomainError, "{:.3e} {} {}", 5, "y" * 10**6, 10**5000)
    assert str(info.value) == "5.000e+00 " + "y" * 500 + "... <int of 16610 bits>"


def test_is_number():
    numbers = (0, -3, 1.5, 5e-324, -1e308, 10**300, np.float64(2.0), np.int64(7), np.float32(1.0))
    for value in numbers:
        assert is_number(value), value
    others = (True, np.True_, math.nan, math.inf, -math.inf, np.float64("nan"), 10**309, -(10**309),
              np.longdouble("1e400"), 1j, "1", None, np.array(1.0), [1.0], np.zeros(0))
    for value in others:
        assert not is_number(value), value


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


# ------------------------------------------------------- the input contract
#
# Each public callable that takes numbers, one parameter per row: the call of
# the row's valid value returns finite values, and with an odd value swapped
# in (NaN, +/-inf, 1e308, 5e-324, True, a string, None, or a 0-d, 1-D, 2-D or
# empty array) it returns finite values or raises a StarkCombError, with
# warnings as errors. A NUMBER parameter passes errors.is_number, so it returns
# only for a finite int or float; an OPTIONAL one also takes None. An ARRAY
# parameter is converted by numpy (``np.asarray(value, dtype=float)`` or a
# broadcast), element by element: a string or None that numpy cannot convert
# raises numpy's own TypeError or ValueError, and that is the contract for
# non-numeric types there. A SEQUENCE parameter (FrequencyComb's
# per_line_power, fit_profile's anchors, FieldProfile's valid_range as a whole,
# coverage_union's lines) passes errors.as_floats, so no bare TypeError or
# ValueError escapes it, whatever the value; nested and ragged lists are drawn
# for these rows as well. Not drawn: the parameters that take model objects
# (transition, profile, comb, plan, channels, system), and the helpers of a
# pass that the package does not export (nearest_line_index, row_blocks),
# which take a plan's checked lines and size.

NUMBER, OPTIONAL, ARRAY, SEQUENCE = "number", "optional", "array", "sequence"
WEAK_LO = LadderSystem(0.1 * GAMMA, GAMMA, 0.5 * GAMMA)  # a positive LO Rabi rate
LADDER = {f.name: getattr(S, f.name) for f in dataclasses.fields(S)}
CHANNEL = dict(peak_power=-36.5, reference_field=1e-5, half_width_3db=5e6, rolloff_order=2,
               noise_floor=-80.0, gain_scale=1.0)
PROFILE = dict(reference_position=2.0, reference_field=10.0, decay_exponent=0.5, offset=0.0)
STIMULUS = dict(power=1e-3, gain=1.0, distance=1.0, perturbation=1.0)


def _rows():
    # (call of the one value, valid value, kind), by "callable parameter".
    rows = {
        "RydbergTransition field_free_frequency": (
            lambda v: RydbergTransition(v, DPOL_HZ_PER_V2), FIELD_FREE_HZ, NUMBER),
        "RydbergTransition differential_polarizability": (
            lambda v: RydbergTransition(FIELD_FREE_HZ, v), DPOL_HZ_PER_V2, NUMBER),
        "stark_shifted_frequency field": (lambda v: stark_shifted_frequency(T, v), 10.0, ARRAY),
        "field_for_frequency target": (lambda v: field_for_frequency(T, v), 8.1e9, ARRAY),
        "FieldProfile x_min": (
            lambda v: FieldProfile(**PROFILE, valid_range=(v, 8.0)), 2.0, NUMBER),
        "FieldProfile x_max": (
            lambda v: FieldProfile(**PROFILE, valid_range=(2.0, v)), 8.0, NUMBER),
        "field_at x": (lambda v: field_at(P, v), 3.0, ARRAY),
        "position_at field": (lambda v: position_at(P, v), field_at(P, 3.0), ARRAY),
        "transition_frequency_at x": (lambda v: transition_frequency_at(P, T, v), 3.0, ARRAY),
        "FieldProfile valid_range": (
            lambda v: FieldProfile(**PROFILE, valid_range=v), (2.0, 8.0), SEQUENCE),
        "fit_profile anchors": (lambda v: fit_profile(v, T), ANCHORS, SEQUENCE),
        "fit_profile offset": (lambda v: fit_profile(ANCHORS, T, offset=v), 0.0, NUMBER),
        "fit_profile decay_exponent": (
            lambda v: fit_profile(ANCHORS[:1], T, decay_exponent=v), 0.53, OPTIONAL),
        "FrequencyComb center_frequency": (lambda v: FrequencyComb(v, 1e7, 3), 8.13e9, NUMBER),
        "FrequencyComb line_spacing": (lambda v: FrequencyComb(8.13e9, v, 3), 1e7, NUMBER),
        "FrequencyComb line_count": (lambda v: FrequencyComb(8.13e9, 1e7, v), 3, NUMBER),
        "FrequencyComb total_power": (
            lambda v: FrequencyComb(8.13e9, 1e7, 3, total_power=v), 11.0, NUMBER),
        "FrequencyComb per_line_power": (
            lambda v: FrequencyComb(8.13e9, 1e7, 3, per_line_power=v), (0.0, 1.0, 2.0), SEQUENCE),
        "place_cells tol": (lambda v: place_cells(P, T, COMB, tol=v), 1e3, NUMBER),
        "place_cells min_gap": (lambda v: place_cells(P, T, COMB, min_gap=v), 0.0, NUMBER),
        "coverage_union lines": (lambda v: coverage_union(v, 5e6), [8.0e9, 8.01e9], SEQUENCE),
        "coverage_union half_width": (lambda v: coverage_union([8.0e9], v), 5e6, NUMBER),
        "rolloff delta_f": (lambda v: rolloff(CH, v), 1e6, ARRAY),
        "beat_signal_power field": (lambda v: beat_signal_power(CH, v, 0.0), 1e-5, ARRAY),
        "beat_signal_power delta_f": (lambda v: beat_signal_power(CH, 1e-5, v), 1e6, ARRAY),
        "beat_power field": (lambda v: beat_power(CH, v, 0.0), 1e-5, ARRAY),
        "beat_power delta_f": (lambda v: beat_power(CH, 1e-5, v), 1e6, ARRAY),
        "min_detectable_field delta_f": (lambda v: min_detectable_field(CH, v), 1e6, ARRAY),
        "calibrate_noise_floor target_field": (
            lambda v: calibrate_noise_floor(CH, v, 5e5), 1e-6, ARRAY),
        "calibrate_noise_floor delta_f": (
            lambda v: calibrate_noise_floor(CH, 1e-6, v), 5e5, ARRAY),
        "sensitivity e_det": (lambda v: sensitivity(v, 0.1), 1e-7, ARRAY),
        "sensitivity measurement_time": (lambda v: sensitivity(1e-7, v), 0.1, ARRAY),
        "stitched_response frequencies": (
            lambda v: stitched_response(PLAN, CH, v, 1e-5), [8.13e9], ARRAY),
        "stitched_response fields": (
            lambda v: stitched_response(PLAN, CH, [8.13e9], v), 1e-5, ARRAY),
        "response_blocks frequencies": (
            lambda v: list(response_blocks(PLAN, CH, v, 1e-5)), [8.13e9], ARRAY),
        "response_blocks fields": (
            lambda v: list(response_blocks(PLAN, CH, [8.13e9], v)), 1e-5, ARRAY),
        "steady_state probe_detuning": (
            lambda v: steady_state(S, probe_detuning=v), 1e6, ARRAY),
        "steady_state mw_rabi": (lambda v: steady_state(S, mw_rabi=v), 1e6, ARRAY),
        "probe_absorption probe_detuning": (
            lambda v: probe_absorption(S, probe_detuning=v), 1e6, ARRAY),
        "probe_absorption mw_rabi": (lambda v: probe_absorption(S, mw_rabi=v), 1e6, ARRAY),
        "heterodyne_gain mw_rabi": (lambda v: heterodyne_gain(WEAK_LO, mw_rabi=v), 1e6, ARRAY),
        "at_splitting probe_sweep": (
            lambda v: at_splitting(STRONG, v), np.linspace(-1e9, 1e9, 201), ARRAY),
    }
    # Callables whose every keyword is a row: one keyword swapped, the rest valid.
    for label, make, fixed, kind in (
        ("FieldProfile", lambda **kw: FieldProfile(**kw, valid_range=(2.0, 8.0)), PROFILE, NUMBER),
        ("channel_table", channel_table, CHANNEL, ARRAY),
        ("far_field_strength", far_field_strength, STIMULUS, NUMBER),
        ("LadderSystem", LadderSystem, LADDER, NUMBER),
    ):
        for name, valid in fixed.items():
            call = lambda v, make=make, fixed=fixed, name=name: make(**{**fixed, name: v})
            rows[f"{label} {name}"] = call, valid, kind
    return rows


INPUTS = _rows()
# The documented limits far off line, where the rolloff underflows to 0: no
# signal power (-inf dBm), and no detectable field (inf V/cm).
LIMITS = {"beat_signal_power delta_f": -math.inf, "min_detectable_field delta_f": math.inf}
ODD_FLOATS = (math.nan, math.inf, -math.inf, 1e308, 5e-324)
ODD_SCALARS = ODD_FLOATS + (True, "x", None)
# Float arrays of 0 to 2 dimensions, empty ones included, of odd elements and
# of elements valid for some row.
ODD_ARRAYS = hnp.arrays(
    float,
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
    elements=st.sampled_from(ODD_FLOATS + (-1.0, 0.0, 1e-5, 3.0, 1e6, 8.13e9)),
)


def _all_finite(result, limit=math.nan) -> bool:
    # Every number a result holds, its fields, items, record columns and
    # elements, is finite or ``limit``.
    if isinstance(result, str):  # a label
        return True
    if dataclasses.is_dataclass(result):
        fields = dataclasses.fields(result)
        return all(_all_finite(getattr(result, f.name), limit) for f in fields)
    if isinstance(result, (list, tuple)):
        return all(_all_finite(item, limit) for item in result)
    result = np.asarray(result)
    if result.dtype.names:
        return all(_all_finite(result[name], limit) for name in result.dtype.names)
    return bool((np.isfinite(result) | (result == limit)).all())


def _each_odd_scalar(test):
    # An explicit example of each odd scalar, run before the drawn values.
    for value in reversed(ODD_SCALARS):
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("name", INPUTS)
def test_valid_inputs_give_finite_results(name):
    call, valid, _ = INPUTS[name]
    assert _all_finite(call(valid))


# Each row runs the 8 odd scalars and 12 drawn values: 20 examples per row.
@pytest.mark.parametrize("name", INPUTS)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(value=st.one_of(st.sampled_from(ODD_SCALARS), ODD_ARRAYS))
@_each_odd_scalar
def test_odd_input_is_named_or_returns_finite(name, value):
    _check_odd_input(name, value)


# Lists and tuples nested up to 6 items deep, ragged or not, of odd scalars and
# valid anchor values: 25 drawn values per sequence row.
NESTED = st.recursive(
    st.sampled_from(ODD_SCALARS + (2.0, 5.0, 8.13e9)),
    lambda items: st.lists(items, max_size=3) | st.tuples(items, items),
    max_leaves=6,
)


@pytest.mark.parametrize("name", [name for name, row in INPUTS.items() if row[2] == SEQUENCE])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(value=NESTED)
def test_odd_sequence_is_named_or_returns_finite(name, value):
    _check_odd_input(name, value)


def _check_odd_input(name, value):
    call, _, kind = INPUTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(value)
        except StarkCombError:
            return
        except (TypeError, ValueError):
            if kind == ARRAY and (isinstance(value, str) or value is None):
                return  # numpy's own conversion of a non-number
            raise
    number = type(value) in (int, float) and math.isfinite(value)  # the rule, restated
    assert kind in (ARRAY, SEQUENCE) or number or (kind == OPTIONAL and value is None), value
    assert _all_finite(result, LIMITS.get(name, math.nan)), result
