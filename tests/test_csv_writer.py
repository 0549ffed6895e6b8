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

import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import starkcomb.scenarios
from starkcomb import default_config
from starkcomb._vectorized_csv import BLOCK_ROWS, vectorized_rows
from starkcomb.scenarios import _VECTORIZED_MIN_CELLS, _format_csv, _printf_rows, _vectorizable


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
        "past a block": BLOCK_ROWS + 1,
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
    assert _format_csv(meta, columns, timestamp=False) == header.encode() + expected


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
        for _, columns in runner(config).values():
            arrays = [np.asarray(c) for c in columns.values()]
            if all(a.dtype.kind in "biuf" for a in arrays):
                assert vectorized_rows(arrays) == _printf_rows(arrays)
