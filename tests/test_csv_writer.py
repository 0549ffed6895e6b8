"""The vectorized CSV writer prints every cell as its printf conversion does.

``scenarios._format_csv`` prints tables of at least
``_VECTORIZED_MIN_CELLS`` bool, int and float cells with numpy, and every
other table one printf conversion per cell. The numpy path must give the same
bytes: floats as ``'%.10g' % float(v)``, ints as ``'%d'``, bools as
``true``/``false``. Hypothesis draws floats over every bit pattern, plus the
values where a shortcut would go wrong: 10-significant-digit rounding ties,
``9.9999999995 * 10**j`` carries into the next exponent, powers of ten and
their neighbours, and the -4/-5 and 9/10 exponent switches between fixed and
exponent notation. Whole tables are drawn on both sides of the cutoff.
"""

import hashlib
import json
import math
import struct
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import starkcomb.receiver
import starkcomb.scenarios
from starkcomb import __version__, default_config, run_scenario
from starkcomb._vectorized_csv import vectorized_rows
from starkcomb.receiver import _BLOCK
from starkcomb.scenarios import (
    _VECTORIZED_MIN_CELLS,
    _format_csv,
    _printf_rows,
    _vectorizable,
    _whole,
    _write,
)


def _cells(column) -> list[str]:
    return vectorized_rows([np.asarray(column)]).decode().split("\n")[:-1]


def _decimal(numerator: int, denominator: int, exponent: int) -> float:
    """The double nearest numerator / denominator * 10**exponent."""
    return float(Fraction(numerator, denominator) * Fraction(10) ** exponent)


SIGN = st.sampled_from([1, -1])
ANY_DOUBLE = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
# (2m + 1)/2 * 10**j for a 10-digit m: exact ties for small j >= 0, the
# doubles nearest them otherwise.
TIES = st.builds(
    lambda sign, m, j: sign * _decimal(2 * m + 1, 2, j),
    SIGN, st.integers(10**9, 10**10 - 1), st.integers(-22, 22),
)
# 9.9999999995 * 10**j rounds up to 10**(j + 1) or down to 9.999999999 * 10**j.
CARRIES = st.builds(
    lambda sign, j, ulps: sign * np.nextafter(_decimal(99_999_999_995, 10**10, j), math.inf * ulps)
    if ulps else sign * _decimal(99_999_999_995, 10**10, j),
    SIGN, st.integers(-30, 40), st.integers(-1, 1),
)
POWERS = st.builds(
    lambda sign, j, ulps: sign * (
        np.nextafter(_decimal(1, 1, j), math.inf * ulps) if ulps else _decimal(1, 1, j)
    ),
    SIGN, st.integers(-323, 308), st.integers(-1, 1),
)
# Fixed notation for exponents -4..9, exponent notation for -5 and 10.
SWITCHES = st.builds(
    lambda sign, digits, j: sign * _decimal(digits, 10**9, j),
    SIGN, st.integers(10**9, 10**10 - 1), st.sampled_from([-5, -4, 9, 10]),
)
FLOATS = st.one_of(ANY_DOUBLE, st.floats(), TIES, CARRIES, POWERS, SWITCHES)
INT_EDGES = [0, 1, 9, 10, 9_999, 10_000, 99_999_999, 100_000_000, -1, -(2**63), 2**63 - 1]


# Carries, powers and their neighbours at the -4/-5 and 9/10 switches and past
# the ends of the exponents that one exact power of ten can scale (-13..31).
HARD = [
    v
    for j in (-15, -14, -13, -6, -5, -4, 0, 8, 9, 10, 30, 31, 32)
    for center in (_decimal(99_999_999_995, 10**10, j), _decimal(1, 1, j))
    for v in (np.nextafter(center, -math.inf), center, np.nextafter(center, math.inf))
]


def test_hard_floats_match_printf():
    values = HARD + [-v for v in HARD]
    assert _cells(np.array(values)) == ["%.10g" % v for v in values]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(FLOATS, min_size=1, max_size=50))
def test_float_cells_match_printf(values):
    assert _cells(np.array(values, dtype=np.float64)) == ["%.10g" % float(v) for v in values]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT_EDGES)), min_size=1),
        st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 10**9)), min_size=1),
    )
)
def test_int_cells_match_printf(values):
    column = np.array(values, dtype=np.uint64 if max(values) >= 2**63 else np.int64)
    assert _cells(column) == ["%d" % v for v in values]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    hnp.arrays(
        st.one_of(
            hnp.boolean_dtypes(),
            hnp.integer_dtypes(),
            hnp.unsigned_integer_dtypes(),
            hnp.floating_dtypes(sizes=(16, 32, 64)),
        ),
        st.integers(1, 40),
    )
)
def test_every_dtype_and_byte_order_matches_printf(column):
    # Bools print as true/false; narrow, wide and big-endian ints and floats
    # print their Python values.
    assert vectorized_rows([column]) == _printf_rows([column])
    if column.dtype.kind == "b":
        assert _cells(column) == ["true" if v else "false" for v in column.tolist()]


def test_special_floats_raise_no_warning():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = _cells(np.array(values))
    assert cells == ["0", "-0", "inf", "-inf", "nan", "4.940656458e-324", "1.797693135e+308"]


COLUMN_KINDS = {
    "f": FLOATS,
    "i": st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT_EDGES)),
    "b": st.booleans(),
}


@st.composite
def tables(draw, size):
    """Named columns of equal length: one row, one cell short of the cutoff,
    at the cutoff, or one row into a second block."""
    kinds = draw(st.lists(st.sampled_from("fib"), min_size=1, max_size=6))
    cutoff_rows = -(-_VECTORIZED_MIN_CELLS // len(kinds))
    rows = {
        "one row": 1,
        "below the cutoff": (_VECTORIZED_MIN_CELLS - 1) // len(kinds),
        "at the cutoff": cutoff_rows,
        "past a block": _BLOCK + 1,
    }[size]
    columns = {}
    for index, kind in enumerate(kinds):
        pool = draw(st.lists(COLUMN_KINDS[kind], min_size=1, max_size=20))
        dtype = {"f": np.float64, "i": np.int64, "b": bool}[kind]
        columns[f"{kind}{index}"] = np.resize(np.array(pool, dtype=dtype), rows)
    return columns


@pytest.mark.parametrize("size", ["one row", "below the cutoff", "at the cutoff", "past a block"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_tables_are_byte_identical_on_both_sides_of_the_cutoff(size, data):
    columns = data.draw(tables(size))
    arrays = list(columns.values())
    assert _vectorizable(arrays) == (size in ("at the cutoff", "past a block"))
    expected = _printf_rows(arrays)
    assert vectorized_rows(arrays) == expected
    meta = [("scenario", "drawn"), ("feasible", True)]
    header = "# scenario: drawn\n# feasible: true\n" + ",".join(columns) + "\n"
    chunks = _format_csv(*_whole(meta, columns), timestamp=False)
    assert b"".join(chunks) == header.encode() + expected


@pytest.mark.parametrize("order", "<>")
@pytest.mark.parametrize("last", ["float", "int"])
def test_strided_columns_match_printf(order, last):
    # Record-array fields (as stitched_response gives BeatRow columns) and
    # step-2 slices, with printf cells in the last column.
    rows = _BLOCK + 3
    rng = np.random.default_rng(rows)
    fields = [("x", order + "f8"), ("i", order + "i8"), ("flag", bool), ("y", order + "f8")]
    record = np.zeros(rows, fields)
    record["x"] = rng.uniform(-1e3, 1e3, rows)
    record["i"] = rng.integers(-10, 10**9, rows)
    record["flag"] = rng.random(rows) < 0.5
    record["y"] = np.round(rng.uniform(0.0, 1.0, rows), 3)
    floats = rng.uniform(-1e9, 1e9, 2 * rows).astype(order + "f8")
    ints = rng.integers(0, 10**8, 2 * rows).astype(order + "i8")
    bools = rng.random(2 * rows) < 0.5
    if last == "float":
        tail = record["y"]
        tail[::7], tail[1::7], tail[2::7] = math.nan, math.inf, -math.inf
    else:
        tail = record["i"]
        tail[::5] = 10**8 + np.arange(0, rows, 5)
    columns = [record["x"], record["i"], record["flag"], floats[::2], ints[::2], bools[::2], tail]
    assert all(c.strides[0] > c.itemsize for c in columns)
    assert _vectorizable(columns)
    assert vectorized_rows(columns) == _printf_rows(columns)


def test_object_columns_and_unequal_lengths_take_printf():
    rows = _VECTORIZED_MIN_CELLS
    floats = np.linspace(0.0, 1.0, rows)
    assert _vectorizable([floats])
    assert not _vectorizable([floats, np.append(floats[1:], None)])
    assert not _vectorizable([floats, floats[1:]])
    assert not _vectorizable([floats.astype(np.longdouble)])


def test_default_tables_are_byte_identical_on_both_paths():
    config = default_config()
    for runner in starkcomb.scenarios._RUNNERS.values():
        for _, _, blocks in runner(config).values():
            for columns in blocks:
                arrays = [np.asarray(c) for c in columns]
                if all(a.dtype.kind in "biuf" for a in arrays):
                    assert vectorized_rows(arrays) == _printf_rows(arrays)


# ---------------------------------------------------------------- streaming
# run_scenario writes and hashes each table chunk by chunk as _format_csv
# yields it: the header, then one chunk per block of receiver._BLOCK rows,
# the blocks in which every table (whole columns through _whole) is given.


def _numeric_table(rows: int, bits: bool = False) -> dict[str, np.ndarray]:
    """Float, int and bool columns. With ``bits``, the floats take every bit
    pattern and the ints both signs, so that many cells fall back to printf."""
    rng = np.random.default_rng(rows)
    floats = rng.uniform(-1e3, 1e3, rows)
    ints = rng.integers(0, 10**8, rows)
    if bits:
        floats = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
        ints -= 5 * 10**7
    return {
        "x": floats,
        "index": ints,
        "flag": rng.random(rows) < 0.5,
        "y": np.round(rng.uniform(0.0, 1.0, rows), 3),
    }


@pytest.mark.parametrize("block_rows", [7, _BLOCK])
@pytest.mark.parametrize(
    "rows", [1, (_VECTORIZED_MIN_CELLS - 1) // 4, _VECTORIZED_MIN_CELLS // 4, _BLOCK + 1]
)
def test_run_scenario_writes_and_hashes_the_chunks(monkeypatch, tmp_path, block_rows, rows):
    monkeypatch.setattr(starkcomb.receiver, "_BLOCK", block_rows)
    columns = _numeric_table(rows, bits=True)
    arrays = list(columns.values())
    # A table with a None cell takes the printf path at any size.
    spacing = {"spacing": np.append(arrays[3][1:], None)}
    config = default_config()
    meta = [("rows", rows)]
    tables = {"numeric.csv": (meta, columns), "spacing.csv": ([], spacing)}

    def runner(_):
        return {name: _whole(*table) for name, table in tables.items()}

    monkeypatch.setitem(starkcomb.scenarios._RUNNERS, "response", runner)
    *paths, manifest = run_scenario(config, "response", tmp_path)
    common = [("starkcomb_version", __version__), ("config_sha256", config.sha256)]
    common.append(("scenario", "response"))
    outputs = json.loads(manifest.read_bytes().decode("utf-8"))["outputs"]
    assert [path.name for path in paths] == list(tables) == sorted(outputs)
    for path, (table_meta, table) in zip(paths, tables.values()):
        chunks = list(_format_csv(*_whole(common + table_meta, table), timestamp=False))
        table_arrays = [np.asarray(c) for c in table.values()]
        assert len(chunks) == 1 + -(-rows // block_rows)
        # The bytes on disk are the joined chunks, which are the header and the
        # printf rows of the whole table.
        header = "".join(f"# {key}: {value}\n" for key, value in common + table_meta)
        header += ",".join(table) + "\n"
        data = path.read_bytes()
        assert data == b"".join(chunks) == header.encode() + _printf_rows(table_arrays)
        assert outputs[path.name] == hashlib.sha256(data).hexdigest()


def test_write_memory_does_not_grow_with_the_table(tmp_path):
    # A table of whole columns is formatted a block at a time, and the writer
    # holds about one block, so from 50k to 200k rows its traced peak grows by
    # less than one block of the file. Formatting the whole table at once, or
    # joining the file before writing it, would add the 150k rows between.
    peaks, sizes = {}, {}
    for rows in (50_000, 200_000):
        path = tmp_path / f"{rows}.csv"
        chunks = _format_csv(*_whole([], _numeric_table(rows)), timestamp=False)
        tracemalloc.start()
        try:
            _write(path, chunks)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes[rows] = path.stat().st_size
    block_bytes = sizes[50_000] * _BLOCK // 50_000
    assert sizes[200_000] - sizes[50_000] > 10 * block_bytes
    assert peaks[200_000] - peaks[50_000] < block_bytes


@pytest.mark.parametrize("failing", ["first.csv", "second.csv"])
def test_a_failed_run_leaves_no_file(monkeypatch, tmp_path, failing):
    # One table's chunks fail after its first block, as a full disk or a model
    # error in a later block would. The run leaves no file of its own in a new
    # directory, and over an earlier run it leaves that run's files as they
    # were, its manifest included.
    def blocks(offset, fail):
        yield [np.arange(3) + offset]
        if fail:
            raise OSError(28, "No space left on device")
        yield [np.arange(3, 5) + offset]

    def runner(offset, fail):
        names = ("first.csv", "second.csv")
        tables = {name: ([], ["x"], blocks(offset, fail and name == failing)) for name in names}
        monkeypatch.setitem(starkcomb.scenarios._RUNNERS, "response", lambda _: tables)

    config = default_config()
    runner(0, fail=False)
    run_scenario(config, "response", tmp_path / "earlier")
    before = {path.name: path.read_bytes() for path in (tmp_path / "earlier").iterdir()}
    assert sorted(before) == ["first.csv", "response_manifest.json", "second.csv"]
    for out, files in (("new", {}), ("earlier", before)):
        runner(10, fail=True)
        with pytest.raises(OSError, match="No space left on device"):
            run_scenario(config, "response", tmp_path / out)
        assert {path.name: path.read_bytes() for path in (tmp_path / out).iterdir()} == files
