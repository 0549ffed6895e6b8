"""The array receiver against the per-point loop it replaced."""

import functools
import hashlib
import json
import math
import tracemalloc

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
    build_channels,
    channel_table,
    default_config,
    load_config,
    min_detectable_field,
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
    assert_rows_match(spectrum, reference_response(plan, channels, frequencies, fields))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), receiver=receivers())
def test_one_tone_on_every_channel_matches_per_channel_rows(data, receiver):
    # The isolation reading: one tone on every channel, each at its own detuning.
    plan, channels = receiver
    frequency, field = data.draw(stimuli(plan, channels))[0]
    delta_f = frequency - plan.entries.line_frequency
    power = beat_power(channels, field, delta_f)
    above = (field > 0) & (field >= min_detectable_field(channels, delta_f))
    expected = [
        _row(channel, e.line_index, frequency, frequency - e.line_frequency, field)
        for channel, e in zip(channels, plan.entries)
    ]
    assert delta_f.tolist() == [row[2] for row in expected]
    assert np.abs(power - [row[3] for row in expected]).max() <= 1e-12
    assert above.tolist() == [row[4] for row in expected]


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
def test_block_edges_match_per_point_loop(monkeypatch, plan21, channels21, size):
    # Unequal channels, so that every term of the dB sum differs by point.
    table = {name: channels21[name] for name in ChannelRow.names}
    table["gain_scale"] = np.linspace(0.3, 1.9, 21)
    table["peak_power"] = table["peak_power"] - np.linspace(0.0, 7.0, 21)
    channels = channel_table(**table)
    frequencies = np.linspace(8.02e9, 8.24e9, size)
    fields = np.geomspace(1e-9, 1e-2, size)
    fields[::3] = 0.0
    whole = stitched_response(plan21, channels, frequencies, fields)
    monkeypatch.setattr(starkcomb.receiver, "_BLOCK", SMALL_BLOCK)
    rows = stitched_response(plan21, channels, frequencies, fields)
    assert_rows_match(rows, reference_response(plan21, channels, frequencies, fields))
    assert rows.tobytes() == whole.tobytes()
    # Bit for bit what the public functions give on each point's channel.
    channel = channels.take(nearest_line_index(plan21.entries.line_frequency, frequencies))
    power = beat_power(channel, fields, rows.delta_f)
    assert rows.beat_power.tobytes() == np.asarray(power, dtype=float).tobytes()
    minimum = min_detectable_field(channel, rows.delta_f)
    assert rows.above_noise.tolist() == ((fields > 0) & (fields >= minimum)).tolist()


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


# ---------------------------------------------------------------- streaming
# run_scenario writes response, sweep2cell and linearity a block at a time as
# the receiver evaluates them. The file must hold the bytes of the collected
# table printed whole, at every size around a block edge, on the printf path
# and (with the cutoff at 0) on the vectorized path in every block.


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    block=st.integers(1, 12), group=st.integers(1, 30), runs=st.integers(0, 6),
    tail=st.integers(0, 29),
)
def test_row_blocks_are_whole_runs_or_part_of_one(block, group, runs, tail):
    # The blocks tile the rows in order, none longer than a block, each whole
    # runs of ``group`` rows (as many as fit) or part of one longer run.
    size = runs * group + tail % group
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(starkcomb.receiver, "_BLOCK", block)
        blocks = list(starkcomb.receiver.row_blocks(size, group))
    edges = [0] + [b.stop for b in blocks]
    assert [b.start for b in blocks] == edges[:-1] and edges[-1] == size
    for b in blocks:
        assert 0 < b.stop - b.start <= block
        whole = b.start % group == 0 and (b.stop % group == 0 or b.stop == size)
        if group <= block:
            full = b.stop - b.start == block // group * group
            assert whole and (full or b.stop == size)
        else:
            assert b.start // group == (b.stop - 1) // group


def _config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return load_config(path)


def _written_rows(path, names) -> bytes:
    """The data rows of a written CSV: the bytes after its column-name line."""
    header, line, rows = path.read_bytes().partition(("\n" + ",".join(names) + "\n").encode())
    assert line and header.startswith(b"# starkcomb_version: ")
    return rows


@pytest.mark.parametrize("cutoff", [starkcomb.scenarios._VECTORIZED_MIN_CELLS, 0])
# A sweep has at least two points.
@pytest.mark.parametrize(
    "size", [2, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 2]
)
@pytest.mark.parametrize("name", ["response", "sweep2cell"])
def test_streamed_sweep_equals_the_collected_table(monkeypatch, tmp_path, name, size, cutoff):
    config = _config(tmp_path, f"scenarios:\n  {name}:\n    points: {size}\n")
    calls = []

    def spy(*args):
        calls.append(args)
        return blocks(*args)

    blocks = starkcomb.scenarios.response_blocks
    monkeypatch.setattr(starkcomb.scenarios, "response_blocks", spy)
    monkeypatch.setattr(starkcomb.scenarios, "_VECTORIZED_MIN_CELLS", cutoff)
    monkeypatch.setattr(starkcomb.receiver, "_BLOCK", SMALL_BLOCK)
    csv, _ = run_scenario(config, name, tmp_path / "out")
    monkeypatch.undo()
    ((plan, channels, frequencies, fields),) = calls
    rows = stitched_response(plan, channels, frequencies, fields)
    assert len(rows) == size
    columns = [
        rows.signal_frequency / 1e9,
        rows.channel_index,
        rows.delta_f / 1e3,
        rows.beat_power,
        rows.above_noise,
    ]
    names = starkcomb.scenarios._SWEEP_COLUMNS
    assert _written_rows(csv, names) == starkcomb.scenarios._printf_rows(columns)


# (comb lines, points per line, at least two): rows 2, block - 1, block,
# block + 1 and 3 * block + 2, in blocks that hold part of one line, whole
# lines, or cross from one line into the next.
LINEARITY_GRIDS = [(1, 2), (1, 4), (1, 5), (1, 6), (1, 17), (2, 2), (3, 2), (9, 2), (2, 6)]


@pytest.mark.parametrize("cutoff", [starkcomb.scenarios._VECTORIZED_MIN_CELLS, 0])
@pytest.mark.parametrize("lines, points", LINEARITY_GRIDS)
def test_streamed_linearity_equals_the_collected_table(
    monkeypatch, tmp_path, lines, points, cutoff
):
    text = f"comb:\n  line_count: {lines}\nscenarios:\n  linearity:\n    points: {points}\n"
    config = _config(tmp_path, text)
    monkeypatch.setattr(starkcomb.scenarios, "_VECTORIZED_MIN_CELLS", cutoff)
    monkeypatch.setattr(starkcomb.receiver, "_BLOCK", SMALL_BLOCK)
    csv, _ = run_scenario(config, "linearity", tmp_path / "out")
    monkeypatch.undo()
    # The whole table as one beat_power call over every line and field.
    entries = starkcomb.scenarios._plan(config).entries
    channels = build_channels(config.channel_defaults, entries)
    params = config.scenarios["linearity"]
    fields = np.logspace(
        math.log10(params["min_field"]), math.log10(params["max_field"]), params["points"]
    )
    delta = config.channel_defaults.reference_detuning
    columns = [
        np.repeat(entries.line_index, fields.size),
        np.repeat(entries.line_frequency / 1e9, fields.size),
        np.tile(fields, len(entries)),
        beat_power(channels[:, None], fields, delta).ravel(),
    ]
    names = ["channel_index", "line_GHz", "field_V_per_cm", "beat_dBm"]
    assert _written_rows(csv, names) == starkcomb.scenarios._printf_rows(columns)


@pytest.mark.parametrize("name", ["response", "linearity"])
def test_run_memory_does_not_grow_with_the_table(tmp_path, name):
    # The receiver's tables stream from model to file, so from 50k to 200k rows
    # the traced peak of run_scenario grows by less than the 8-byte stimulus
    # column per row plus one block of the file. A whole-table column would
    # add at least as much again.
    peaks, sizes, rows = {}, {}, {}
    for target in (50_000, 200_000):
        points = target // 21 if name == "linearity" else target
        config = _config(tmp_path, f"scenarios:\n  {name}:\n    points: {points}\n")
        tracemalloc.start()
        try:
            csv, _ = run_scenario(config, name, tmp_path / str(target))
            peaks[target] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes[target] = csv.stat().st_size
        rows[target] = csv.read_bytes().count(b"\n") - csv.read_bytes().count(b"#") - 1
    block_bytes = sizes[50_000] * starkcomb.receiver._BLOCK // rows[50_000]
    assert rows[200_000] - rows[50_000] > 10 * starkcomb.receiver._BLOCK
    assert peaks[200_000] - peaks[50_000] < 8 * (rows[200_000] - rows[50_000]) + block_bytes


def test_eit_memory_per_point_is_bounded(tmp_path):
    # eit holds its two columns whole, and the solver keeps per point only its
    # scaled rate row, its scale and the one coordinate that probe_absorption
    # reads. So from 4 000 to 16 000 points (63 to 250 solver blocks) the
    # traced peak of run_scenario grows by less than 250 B per point. A
    # complex rho per point, or the mw_rabi slope, would add more than that.
    # The two runs add about 0.5 s to the suite.
    peaks = {}
    for points in (4_000, 16_000):
        config = _config(tmp_path, f"scenarios:\n  eit:\n    points: {points}\n")
        tracemalloc.start()
        try:
            run_scenario(config, "eit", tmp_path / str(points))
            peaks[points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16_000] - peaks[4_000] < 250 * (16_000 - 4_000)


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
        runner, _ = starkcomb.scenarios.SCENARIOS[name]
        for file_name, (_, _, blocks) in runner(config).items():
            for columns in blocks:
                arrays = [np.asarray(c) for c in columns]
                numeric = all(a.dtype.kind in "biuf" for a in arrays)
                large = len(arrays[0]) * len(arrays) >= cutoff
                assert starkcomb.scenarios._vectorizable(arrays) == (numeric and large)
                if numeric and large:
                    vectorized.add(file_name)
                    kinds.update(a.dtype.kind for a in arrays)
    assert vectorized == {"response.csv", "linearity.csv"}
    assert kinds == set("bif")


@pytest.mark.parametrize("detuning_khz", [500.0, 6000.0])
def test_linearity_rows_read_each_lines_own_channel(tmp_path, detuning_khz):
    # At 6 MHz, more than half the 10 MHz line spacing, line i + delta is
    # nearer line i + 1; row i must still read channel i at exactly delta.
    path = tmp_path / "detuning.yaml"
    path.write_text(f"channel:\n  reference_detuning_khz: {detuning_khz}\n")
    config = load_config(path)
    runner, _ = starkcomb.scenarios.SCENARIOS["linearity"]
    ((_, names, blocks),) = runner(config).values()
    columns = dict(zip(names, map(np.concatenate, zip(*blocks))))
    entries = starkcomb.scenarios._plan(config).entries
    channels = build_channels(config.channel_defaults, entries)
    delta = config.channel_defaults.reference_detuning
    points = config.scenarios["linearity"]["points"]
    rows = np.arange(len(entries) * points) // points
    assert columns["channel_index"].tolist() == entries.line_index[rows].tolist()
    assert columns["beat_dBm"].tolist() == [
        beat_power(channels[i], field, delta)
        for i, field in zip(rows, columns["field_V_per_cm"])
    ]


def test_spectrum_rows_are_records(plan21, channels21):
    sweep = np.linspace(8.02e9, 8.24e9, 11)
    rows = stitched_response(plan21, channels21, sweep, 1e-5)
    assert len(rows) == 11
    assert rows[3].beat_power == rows.beat_power[3]
    assert rows.channel_index.tolist() == [
        nearest_line_index([e.line_frequency for e in plan21.entries], f) for f in sweep
    ]


def test_spectrum_rows_are_read_only(plan21, channels21):
    sweep = np.linspace(8.02e9, 8.24e9, 11)
    rows = stitched_response(plan21, channels21, sweep, 1e-5)
    before = rows.beat_power.tolist()
    with pytest.raises(ValueError, match="read-only"):
        rows.beat_power[0] = 99.0
    with pytest.raises(ValueError, match="read-only"):
        rows[0] = rows[1]
    assert rows.beat_power.tolist() == before


def test_tone_list_from_arrays_equals_pairs(plan21, channels21):
    # The stimulus arrays evaluate each (frequency, field) pair as a one-tone
    # call would, and one field applies to every tone.
    frequencies = np.array([8.1e9, 8.2e9, 8.15e9])
    fields = np.array([1e-5, 0.0, 2e-5])
    rows = stitched_response(plan21, channels21, frequencies, fields)
    pairs = zip(frequencies, fields)
    one_tone = [stitched_response(plan21, channels21, f, e)[0] for f, e in pairs]
    assert rows.tolist() == [row.tolist() for row in one_tone]
    one_field = stitched_response(plan21, channels21, frequencies, 3e-5)
    tiled = stitched_response(plan21, channels21, frequencies, [3e-5] * 3)
    nested = stitched_response(plan21, channels21, frequencies, [[3e-5]])
    assert one_field.tolist() == tiled.tolist() == nested.tolist()


@pytest.mark.parametrize(
    "build",
    [
        lambda stitched, channel: stitched([math.nan], 1e-5),
        lambda stitched, channel: stitched([math.inf], 1e-5),
        lambda stitched, channel: stitched([8.1e9], math.nan),
        lambda stitched, channel: stitched([8.1e9], math.inf),
        lambda stitched, channel: stitched([8.1e9, 8.2e9], [1e-5, -1e-5]),
        lambda stitched, channel: stitched([8.1e9, -math.inf], 1e-5),
        lambda stitched, channel: stitched([8.1e9, 8.2e9], [math.nan, 1e-5]),
        lambda stitched, channel: stitched(
            np.linspace(8.1e9, 8.2e9, 11), [1e-5] * 10 + [math.nan]
        ),
        lambda stitched, channel: beat_power(channel, math.nan, 0.0),
        lambda stitched, channel: beat_power(channel, np.array([1e-5, math.inf]), 0.0),
        # A field count that is neither one nor the frequency count.
        lambda stitched, channel: stitched([8.1e9, 8.2e9, 8.3e9], [1e-5, 2e-5]),
        lambda stitched, channel: stitched([8.1e9, 8.2e9], np.full((2, 1), 1e-5)),
    ],
)
def test_non_finite_stimulus_rejected(build, plan21, channels21):
    with pytest.raises(DomainError):
        build(functools.partial(stitched_response, plan21, channels21), channels21[0])


@pytest.mark.parametrize(
    "frequency, field, message",
    [
        (math.nan, 1e-5, "signal frequency"),
        (8.13e9, math.nan, "field"),
        (8.1e9, [1e-5, 2e-5], "got 2 fields for 1 frequencies$"),
    ],
    ids=["nan frequency", "nan field", "two fields"],
)
def test_non_finite_single_tone_rejected(plan21, channels21, frequency, field, message):
    with pytest.raises(DomainError, match=message):
        stitched_response(plan21, channels21, frequency, field)


def test_unsorted_plan_rejected(plan21, channels21):
    shuffled = CellArrayPlan(
        entries=plan21.entries[::-1], min_spacing=plan21.min_spacing, feasible=True
    )
    with pytest.raises(PlannerError, match="ordered by ascending line frequency"):
        stitched_response(shuffled, channels21, 8.13e9, 1e-5)


# ---------------------------------------------------------------- stimulus
# _stimulus validates the caller's frequencies and fields and hands the pass
# read-only views of them: no copy of float frequencies, and a scalar field
# broadcast rather than expanded.


def _copied_stimulus(frequencies, fields):
    """Full-length float copies of the stimulus: the reference the views must
    match bit for bit."""
    frequencies = np.array(frequencies, dtype=float, ndmin=1)
    return frequencies, np.array(np.broadcast_to(fields, frequencies.shape), dtype=float)


def test_stimulus_leaves_the_callers_arrays_writable_and_unchanged(plan21, channels21):
    frequencies = np.linspace(8.02e9, 8.24e9, 11)
    fields = np.geomspace(1e-9, 1e-2, 11)
    tone, tone_field = np.array(8.13e9), np.array([1e-5])
    callers = (frequencies, fields, tone, tone_field)
    before = [a.copy() for a in callers]
    stitched_response(plan21, channels21, frequencies, fields)
    stitched_response(plan21, channels21, frequencies[::2], fields[3])
    stitched_response(plan21, channels21, tone, tone_field)
    viewed, broadcast = starkcomb.receiver._stimulus(frequencies, fields)
    assert np.shares_memory(viewed, frequencies) and np.shares_memory(broadcast, fields)
    assert not viewed.flags.writeable and not broadcast.flags.writeable
    for array, saved in zip(callers, before):
        assert array.flags.writeable
        assert array.tobytes() == saved.tobytes()
        array[...] = 0.0  # still writable


STIMULI = {
    "array field": (np.linspace(8.02e9, 8.24e9, 101), np.geomspace(1e-9, 1e-2, 101)),
    "scalar field": (np.linspace(8.02e9, 8.24e9, 101), 1e-5),
    "zero int field": (np.linspace(8.02e9, 8.24e9, 101), 0),
    "strided": (np.linspace(8.02e9, 8.24e9, 202)[::2], np.geomspace(1e-9, 1e-2, 303)[::3]),
    "float32 list": (np.linspace(8.02e9, 8.24e9, 7, dtype=np.float32), [1e-5] * 7),
    "big-endian": (np.linspace(8.02e9, 8.24e9, 9).astype(">f8"), np.array(2e-5, ">f8")),
    "one tone": (8.13e9, np.array([1e-5])),
    "past two blocks": (
        np.linspace(8.02e9, 8.24e9, 2 * starkcomb.receiver._BLOCK + 3),
        np.array([3e-5]),
    ),
}


@pytest.mark.parametrize("stimulus", list(STIMULI))
def test_stimulus_views_give_the_rows_of_full_copies(plan21, channels21, stimulus):
    frequencies, fields = STIMULI[stimulus]
    copied = _copied_stimulus(frequencies, fields)
    rows = stitched_response(plan21, channels21, frequencies, fields)
    expected = stitched_response(plan21, channels21, *copied)
    assert rows.dtype == expected.dtype and rows.tobytes() == expected.tobytes()
    expected = stitched_response(plan21, channels21, copied[0][:1].copy(), copied[1][:1].copy())
    tone = np.atleast_1d(frequencies)[:1], np.atleast_1d(fields)[:1]
    assert stitched_response(plan21, channels21, *tone).tobytes() == expected.tobytes()


def test_scalar_field_is_not_expanded():
    # A million frequencies and one field: _stimulus allocates less than one
    # full-length float array (8 MB); a copy of either input would exceed it.
    frequencies = np.linspace(8.02e9, 8.24e9, 10**6)
    tracemalloc.start()
    try:
        viewed, fields = starkcomb.receiver._stimulus(frequencies, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fields.shape == frequencies.shape and fields.strides == (0,)
    assert peak < frequencies.nbytes, peak
