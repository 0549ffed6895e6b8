"""The array receiver against the per-point loop it replaced."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starkcomb.receiver
import starkcomb.scenarios
from starkcomb import (
    CellArrayPlan,
    ChannelRow,
    DomainError,
    PlannerError,
    PlanRow,
    beat_power,
    channel_table,
    default_config,
    evaluate_channels,
    min_detectable_field,
    place_cells,
    run_scenario,
    stitched_response,
)
from starkcomb.comb import nearest_line_index

# SHA-256 of every default data product (manifests aside), by scenario and
# file. The response, linearity and sweep2cell pins date from the per-point
# receiver; the others were recorded before the channels became one table.
DEFAULT_SHA256 = {
    "plan": {
        "plan.csv": "72ec030e1893b0c0298078b89e6bf17115323523ce1cbe566067a2cedcf52acb",
        "field_profile.csv": "ce02aa9ea48af65c2c2e422cd39bb97b019bee4732fd17fd33bdb3b8f6c5a132",
    },
    "response": {
        "response.csv": "670995cde2587b0802604212ac39f2243fa9b73ea1d0efbb9406b17c3f3f2118",
    },
    "linearity": {
        "linearity.csv": "2df1f0bdfb538f1b88be33f4e04b4d5dfaa2b01bea887ecf1416196663854788",
    },
    "sensitivity": {
        "sensitivity.csv": "14dc75d05ca95d8b9f90b63f0266666ac0d956c1c828c6129bba3834aacd8707",
    },
    "sweep2cell": {
        "sweep2cell.csv": "fa374ed2ca7d678a487cb75f4de9a9759fe645f3ae861a20cffe7a413676771d",
    },
    "eit": {
        "eit.csv": "64e8409f31fe3260f2e771f1f77dfb3ac41eee1d78b6128238b6dbb339edde87",
    },
}


# ---------------------------------------------------------------- reference
# One point at a time: brute-force routing and scalar math-module beats.


def _nearest_entry(lines, frequency):
    # Brute-force nearest line; ties resolve to the lower index.
    best = 0
    best_dist = abs(frequency - lines[0])
    for i in range(1, len(lines)):
        d = abs(frequency - lines[i])
        if d < best_dist:
            best, best_dist = i, d
    return best


def _rolloff(channel, delta_f):
    x = abs(delta_f) / channel.half_width_3db
    return 1.0 / (1.0 + x ** (2 * channel.rolloff_order))


def _beat_power(channel, field, delta_f):
    if field == 0:
        return channel.noise_floor
    s = (
        channel.peak_power
        + 20.0 * math.log10(field / channel.reference_field)
        + 10.0 * math.log10(_rolloff(channel, delta_f))
        + 20.0 * math.log10(channel.gain_scale)
    )
    return 10.0 * math.log10(10.0 ** (s / 10.0) + 10.0 ** (channel.noise_floor / 10.0))


def _min_detectable_field(channel, delta_f):
    exponent = (
        channel.noise_floor
        - channel.peak_power
        - 10.0 * math.log10(_rolloff(channel, delta_f))
        - 20.0 * math.log10(channel.gain_scale)
    ) / 20.0
    return channel.reference_field * 10.0**exponent


def _row(channel, index, frequency, delta_f, field):
    above = field > 0 and field >= _min_detectable_field(channel, delta_f)
    return (
        frequency,
        index,
        delta_f,
        _beat_power(channel, field, delta_f),
        above,
        abs(delta_f) <= channel.half_width_3db,
    )


def reference_response(plan, responses, frequencies, fields):
    lines = [e.line_frequency for e in plan.entries]
    rows = []
    for frequency, field in zip(frequencies, fields):
        i = _nearest_entry(lines, frequency)
        rows.append(
            _row(responses[i], plan.entries[i].line_index, frequency, frequency - lines[i], field)
        )
    return rows


def assert_rows_match(rows, expected):
    assert len(rows) == len(expected)
    got = list(zip(*(rows[name].tolist() for name in rows.dtype.names)))
    for row, ref in zip(got, expected):
        freq, index, delta_f, power, above, in_band = row
        assert (freq, index, delta_f, above, in_band) == (ref[0], ref[1], ref[2], ref[4], ref[5])
        assert abs(power - ref[3]) <= 1e-12


# ---------------------------------------------------------------- inputs


@st.composite
def receivers(draw):
    """A plan of 1, 2 or up to 30 ascending lines with unequal channels."""
    count = draw(st.sampled_from([1, 2]) | st.integers(3, 30))
    # Whole-Hz lines and half-widths put line +/- half_width exactly on the
    # band edge. A zero gap repeats a line; the lower index must win ties.
    start = draw(st.integers(7_900_000_000, 8_300_000_000))
    gaps = draw(
        st.lists(
            st.just(0) | st.integers(1_000, 50_000_000),
            min_size=count - 1,
            max_size=count - 1,
        )
    )
    lines = np.cumsum([start, *gaps]).astype(float).tolist()
    k = np.arange(count)
    entries = np.rec.fromarrays([k, lines, 10.0 - 0.1 * k, np.zeros(count)], dtype=PlanRow)
    def column(strategy):
        return np.array(draw(st.lists(strategy, min_size=count, max_size=count)), dtype=float)

    peak = column(st.floats(-60.0, -20.0))
    channels = channel_table(
        peak_power=peak,
        reference_field=column(st.floats(1e-6, 1e-3)),
        half_width_3db=column(st.integers(100_000, 20_000_000)),
        rolloff_order=column(st.integers(1, 4)),
        noise_floor=peak - column(st.floats(5.0, 80.0)),
        gain_scale=column(st.floats(0.2, 2.0)),
    )
    plan = CellArrayPlan(entries=entries, min_spacing=0.1, feasible=True)
    return plan, channels


def stimuli(plan, channels):
    """Frequencies on lines, at midpoints, on band edges, inside and outside."""
    lines = [e.line_frequency for e in plan.entries]
    lo, hi = lines[0], lines[-1]
    on_line = st.sampled_from(lines)
    midpoint = st.integers(0, max(len(lines) - 2, 0)).map(
        lambda k: (lines[k] + lines[min(k + 1, len(lines) - 1)]) / 2.0
    )
    edge = st.tuples(st.integers(0, len(lines) - 1), st.sampled_from([-1.0, 1.0])).map(
        lambda ks: lines[ks[0]] + ks[1] * channels[ks[0]].half_width_3db
    )
    inside = st.floats(lo - 2e7, hi + 2e7)
    outside = st.floats(1e6, 1e9).flatmap(lambda d: st.sampled_from([lo - d, hi + d]))
    frequency = on_line | midpoint | edge | inside | outside
    field = st.just(0.0) | st.floats(-9.0, -2.0).map(lambda p: 10.0**p)
    return st.lists(st.tuples(frequency, field), min_size=1, max_size=60)


# ---------------------------------------------------------------- properties


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), receiver=receivers())
def test_stitched_response_matches_per_point_loop(data, receiver):
    plan, channels = receiver
    tones = data.draw(stimuli(plan, channels))
    frequencies, fields = (list(column) for column in zip(*tones))
    spectrum = stitched_response(plan, channels, frequencies, fields)
    assert_rows_match(spectrum.rows, reference_response(plan, channels, frequencies, fields))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), receiver=receivers())
def test_evaluate_channels_matches_per_channel_rows(data, receiver):
    plan, channels = receiver
    frequency, field = data.draw(stimuli(plan, channels))[0]
    expected = [
        _row(channel, e.line_index, frequency, frequency - e.line_frequency, field)
        for channel, e in zip(channels, plan.entries)
    ]
    assert_rows_match(evaluate_channels(plan, channels, frequency, field), expected)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    lines=st.lists(st.floats(1e10, 1e10 + 1e-4) | st.floats(7e9, 9e9), min_size=1, max_size=30),
    frequencies=st.lists(st.floats(6e9, 1.1e10), min_size=1, max_size=30),
)
def test_router_equals_exhaustive_first_minimum(lines, frequencies):
    # Lines a few ulps apart make distances round to equal values.
    lines = np.sort(lines)
    probes = np.concatenate([frequencies, lines, (lines[:-1] + lines[1:]) / 2.0])
    expected = [int(np.argmin(np.abs(f - lines))) for f in probes]
    assert nearest_line_index(lines, probes).tolist() == expected


# ---------------------------------------------------------------- blocks
# The stitched pass evaluates receiver._BLOCK points at a time. With a small
# block, sizes on either side of a block edge must give the same rows.

SMALL_BLOCK = 5


@pytest.mark.parametrize(
    "size", [1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 2]
)
def test_block_edges_match_per_point_loop(monkeypatch, plan21, config, size):
    # Unequal channels, so that every term of the dB sum differs by point.
    table = {name: config.channels[name] for name in ChannelRow.names}
    table["gain_scale"] = np.linspace(0.3, 1.9, 21)
    table["peak_power"] = table["peak_power"] - np.linspace(0.0, 7.0, 21)
    channels = channel_table(**table)
    frequencies = np.linspace(8.02e9, 8.24e9, size)
    fields = np.geomspace(1e-9, 1e-2, size)
    fields[::3] = 0.0
    whole = stitched_response(plan21, channels, frequencies, fields).rows
    plan = CellArrayPlan(entries=plan21.entries[:size], min_spacing=1.0, feasible=True)
    one_tone = evaluate_channels(plan, channels[:size], 8.1e9, 1e-5)
    monkeypatch.setattr(starkcomb.receiver, "_BLOCK", SMALL_BLOCK)
    rows = stitched_response(plan21, channels, frequencies, fields).rows
    assert_rows_match(rows, reference_response(plan21, channels, frequencies, fields))
    assert rows.tobytes() == whole.tobytes()
    # Bit for bit what the public functions give on each point's channel.
    channel = channels.take(nearest_line_index(plan21.entries.line_frequency, frequencies))
    power = beat_power(channel, fields, rows.delta_f)
    assert rows.beat_power.tobytes() == np.asarray(power, dtype=float).tobytes()
    minimum = min_detectable_field(channel, rows.delta_f)
    assert rows.above_noise.tolist() == ((fields > 0) & (fields >= minimum)).tolist()
    expected = [
        _row(channel, e.line_index, 8.1e9, 8.1e9 - e.line_frequency, 1e-5)
        for channel, e in zip(channels[:size], plan.entries)
    ]
    blocked = evaluate_channels(plan, channels[:size], 8.1e9, 1e-5)
    assert_rows_match(blocked, expected)
    assert blocked.tobytes() == one_tone.tobytes()


@pytest.mark.parametrize("first, text", [("off line", "nan"), ("on line", "inf")])
def test_overflow_in_two_blocks_names_the_earlier(monkeypatch, first, text):
    # A field whose ratio to the reference field overflows has a signal of
    # +inf dBm on line, and of nan far off line, where the rolloff
    # underflows to -inf dB. Of two such points in different blocks, the
    # error names the one earlier in the stimulus, as the whole-array pass did.
    entries = np.rec.fromarrays([[0, 1], [8.0e9, 8.1e9], [5.0, 4.0], [0.0, 0.0]], dtype=PlanRow)
    plan = CellArrayPlan(entries=entries, min_spacing=1.0, feasible=True)
    channels = channel_table(
        peak_power=[-30.0, -30.0], reference_field=1e-10, half_width_3db=1e3, rolloff_order=40
    )
    size = 3 * SMALL_BLOCK + 2
    frequencies = np.full(size, 8.0e9)
    fields = np.full(size, 1e-5)
    early, late = SMALL_BLOCK + 2, 2 * SMALL_BLOCK + 2
    fields[[early, late]] = 1e300
    frequencies[early if first == "off line" else late] = 8.04e9
    message = f"^beat signal power must be below \\+inf dBm, got {text}$"
    for block in (starkcomb.receiver._BLOCK, SMALL_BLOCK):
        monkeypatch.setattr(starkcomb.receiver, "_BLOCK", block)
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match=message):
            stitched_response(plan, channels, frequencies, fields)


# ---------------------------------------------------------------- guards


def test_default_outputs_are_byte_identical(tmp_path):
    config = default_config()
    for name, digests in DEFAULT_SHA256.items():
        *outputs, manifest = run_scenario(config, name, tmp_path)
        assert manifest.name == f"{name}_manifest.json"
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs}
        assert got == digests, name
        # The manifest hashes the bytes as written, so they match the file read back.
        assert json.loads(manifest.read_text())["outputs"] == got, name


def test_default_pins_cover_both_csv_paths():
    # The pins above hold the vectorized CSV writer to the printf one only
    # while default tables take each path, so a change of the cutoff that
    # moves a default table across it must show here.
    config = default_config()
    cutoff = starkcomb.scenarios._VECTORIZED_MIN_CELLS
    vectorized, kinds = set(), set()
    for name in DEFAULT_SHA256:
        for file_name, (_, columns) in starkcomb.scenarios._RUNNERS[name](config).items():
            arrays = [np.asarray(c) for c in columns.values()]
            numeric = all(a.dtype.kind in "biuf" for a in arrays)
            large = len(arrays[0]) * len(arrays) >= cutoff
            assert starkcomb.scenarios._vectorizable(arrays) == (numeric and large)
            if numeric and large:
                vectorized.add(file_name)
                kinds.update(a.dtype.kind for a in arrays)
    assert vectorized == {"response.csv", "linearity.csv"}
    assert kinds == set("bif")


def test_linearity_is_one_stitched_call(monkeypatch, tmp_path):
    config = default_config()
    calls = []

    def counting(plan, responses, frequencies, fields):
        calls.append(np.size(frequencies))
        return stitched_response(plan, responses, frequencies, fields)

    monkeypatch.setattr(starkcomb.scenarios, "stitched_response", counting)
    run_scenario(config, "linearity", tmp_path)
    points = config.scenarios["linearity"]["points"]
    assert calls == [config.comb.line_count * points]


def test_spectrum_rows_are_records(plan21, config):
    sweep = np.linspace(8.02e9, 8.24e9, 11)
    rows = stitched_response(plan21, config.channels, sweep, 1e-5).rows
    assert len(rows) == 11
    assert rows[3].beat_power == rows.beat_power[3]
    assert rows.channel_index.tolist() == [
        nearest_line_index([e.line_frequency for e in plan21.entries], f) for f in sweep
    ]


def test_spectrum_rows_are_read_only(plan21, config):
    sweep = np.linspace(8.02e9, 8.24e9, 11)
    for rows in (
        stitched_response(plan21, config.channels, sweep, 1e-5).rows,
        evaluate_channels(plan21, config.channels, 8.13e9, 1e-5),
    ):
        before = rows.beat_power.tolist()
        with pytest.raises(ValueError, match="read-only"):
            rows.beat_power[0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = rows[1]
        assert rows.beat_power.tolist() == before


def test_tone_list_from_arrays_equals_pairs(plan21, config):
    # The stimulus arrays evaluate each (frequency, field) pair as a one-tone
    # call would, and one field applies to every tone.
    frequencies = np.array([8.1e9, 8.2e9, 8.15e9])
    fields = np.array([1e-5, 0.0, 2e-5])
    rows = stitched_response(plan21, config.channels, frequencies, fields).rows
    pairs = zip(frequencies, fields)
    one_tone = [stitched_response(plan21, config.channels, f, e).rows[0] for f, e in pairs]
    assert rows.tolist() == [row.tolist() for row in one_tone]
    one_field = stitched_response(plan21, config.channels, frequencies, 3e-5).rows
    tiled = stitched_response(plan21, config.channels, frequencies, [3e-5] * 3).rows
    assert one_field.tolist() == tiled.tolist()


def _stitched(frequencies, fields):
    config = default_config()
    plan = place_cells(config.profile, config.transition, config.comb)
    return stitched_response(plan, config.channels, frequencies, fields)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _stitched([math.nan], 1e-5),
        lambda: _stitched([math.inf], 1e-5),
        lambda: _stitched([8.1e9], math.nan),
        lambda: _stitched([8.1e9], math.inf),
        lambda: _stitched([8.1e9, 8.2e9], [1e-5, -1e-5]),
        lambda: _stitched([8.1e9, -math.inf], 1e-5),
        lambda: _stitched([8.1e9, 8.2e9], [math.nan, 1e-5]),
        lambda: _stitched(np.linspace(8.1e9, 8.2e9, 11), [1e-5] * 10 + [math.nan]),
        lambda: beat_power(default_config().channels[0], math.nan, 0.0),
        lambda: beat_power(default_config().channels[0], np.array([1e-5, math.inf]), 0.0),
    ],
)
def test_non_finite_stimulus_rejected(build):
    with pytest.raises(DomainError):
        build()


def test_non_finite_single_tone_rejected(plan21, config):
    with pytest.raises(DomainError):
        evaluate_channels(plan21, config.channels, math.nan, 1e-5)
    with pytest.raises(DomainError):
        evaluate_channels(plan21, config.channels, 8.13e9, math.nan)


def test_unsorted_plan_rejected(plan21, config):
    shuffled = CellArrayPlan(
        entries=plan21.entries[::-1], min_spacing=plan21.min_spacing, feasible=True
    )
    with pytest.raises(PlannerError, match="ordered by ascending line frequency"):
        stitched_response(shuffled, config.channels, 8.13e9, 1e-5)
