"""CSV text: the header and rows of every table that ``run_scenario`` writes.

Every column is bool, int or float, and ``_column_text`` is the one rule for
its cells: ``true``/``false``, ``'%d'``, ``'%.10g' % float(v)``, and the empty
cell for a NaN (as ``pandas.to_csv`` writes a missing value). A block of fewer
than ``_VECTORIZED_MIN_CELLS`` cells is printed one ``%`` per row, a larger one
by ``vectorized_rows`` with the same bytes. There each cell is a fixed-width
run of little-endian uint64 words whose unused bytes are NUL, and its last byte
holds the comma or newline after it. A block is one word-major table, one row
per word of a cell, which each column's kernel fills in place; its transpose is
the rows, and deleting their NULs lays them out. Cells the arithmetic below
cannot print exactly (0, inf, nan, a rounding tie, a float exponent outside
-13..31, an int outside 0..10**8 - 1) are printed by ``_column_text`` into
their run. ``run_scenario`` imports this module when called, and the kernels
build their tables on the first large block, so that a run of small tables
never builds them.
"""

from __future__ import annotations

import functools
from datetime import datetime, timezone
from typing import Iterable, Iterator, Sequence

import numpy as np


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For 0..9999: words of the four ASCII digits, first in the low byte,
    zero-padded and with leading zeros NUL (0 all NUL); the trailing zero
    digits of the padded four (4 for 0); and the low four digits of a number
    n, stripped at n (but "0" for 0) and padded at n + 10**4."""
    digits = np.indices((10,) * 4).reshape(4, -1)  # column n holds n's digits
    zero = digits == 0
    chars = (digits + ord("0")) << np.array([[0], [8], [16], [24]])
    padded = chars.sum(axis=0).astype(np.uint64)
    stripped = np.where(np.logical_and.accumulate(zero), 0, chars).sum(axis=0).astype(np.uint64)
    low = np.concatenate([stripped, padded])
    low[0] = ord("0") << 24
    return padded, stripped, np.logical_and.accumulate(zero[::-1]).sum(axis=0), low


_TRUE, _FALSE = np.frombuffer(b"true\0\0\0\0false\0\0\0", "<u8").astype(np.uint64)

# A float is printed from the 10-digit integer nearest a / 10**(X - 9), X being
# its decimal exponent. Every 10**k with k <= 22 is a double, so for
# _X_MIN <= X <= _X_MAX that scaling is one correctly rounded product or
# quotient: by _MULTIPLY[i] and _DIVIDE[i] at i = _X_MAX - X, one of them 1.
_X_MIN, _X_MAX = 9 - 22, 9 + 22
_POW10 = np.array([float(10**k) for k in range(23)])
_MULTIPLY = np.concatenate([np.ones(22), _POW10])
_DIVIDE = np.concatenate([_POW10[::-1], np.ones(22)])


@functools.cache
def _float_layout() -> tuple[np.ndarray, np.ndarray]:
    """The mask and constant words of each '%.10g' cell shape.

    A cell is 32 bytes: sign, "0.000", ten digit slots, ".", nine fraction
    slots, "e", exponent sign, two exponent digits, and two free bytes. Every
    cell carries its ten digits in the digit slots and digits 1..9 again in
    the fraction slots; a shape's mask keeps the digits it prints and its
    constant adds the other characters. The shape index is (negative,
    X - _X_MIN, trailing zero digits) in row-major order.
    """
    negative, x, trailing = (
        a.ravel()
        for a in np.meshgrid(range(2), range(_X_MIN, _X_MAX + 1), range(10), indexing="ij")
    )
    digits = 10 - trailing  # digits printed
    exponent = (x < -4) | (x >= 10)
    small = (x < 0) & ~exponent  # "0." and -X - 1 zeros, then the digits
    # The last digit slot printed; the fraction slots print the digits after it.
    last = np.select([exponent, small], [0, digits - 1], x)[:, None]
    j = np.arange(10)
    mask = np.zeros((x.size, 32), np.uint8)
    const = np.zeros((x.size, 32), np.uint8)
    const[:, 0] = np.where(negative, ord("-"), 0)
    const[:, 1:6] = np.where(small[:, None] & (np.arange(5) < 1 - x[:, None]), list(b"0.000"), 0)
    mask[:, 6:16] = np.where(j <= last, 0xFF, 0)
    const[:, 16] = np.where(digits - 1 > last[:, 0], ord("."), 0)
    mask[:, 17:26] = np.where((j[1:] > last) & (j[1:] < digits[:, None]), 0xFF, 0)
    const[:, 26] = np.where(exponent, ord("e"), 0)
    const[:, 27] = np.where(exponent, np.where(x < 0, ord("-"), ord("+")), 0)
    const[:, 28] = np.where(exponent, ord("0") + abs(x) // 10, 0)
    const[:, 29] = np.where(exponent, ord("0") + abs(x) % 10, 0)
    return tuple(t.view("<u8").T.astype(np.uint64, order="C") for t in (mask, const))


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer nearest a / 10**(x - 9), and whether the quotient sits on a tie.

    The quotient is rounded once, and rounding is monotone, so it falls on
    the same side as the exact quotient of every tie n + 0.5 (a double below
    2**52), or on the tie itself. Only then can its nearest integer differ
    from the exact one's.
    """
    i = np.clip(_X_MAX - x, 0, _X_MAX - _X_MIN)
    s = a * _MULTIPLY.take(i)
    s /= _DIVIDE.take(i)
    r = np.rint(s)
    return r, np.abs(s - r) == 0.5


def _float_words(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    digits4, _, trailing4, _ = _digit_tables()
    mask, const = _float_layout()
    values = values.astype(np.float64, copy=False)
    with np.errstate(all="ignore"):
        a = np.abs(values)
        finite = (a > 0) & (a < np.inf)
        a[~finite] = 1.0
        x = np.floor(np.log10(a)).astype(np.int64)
        r, tie = _scaled(a, x)
        # log10 can be one off next to a power of ten, and rounding can carry
        # to 10**10: step X and scale once more (few cells, often none). A tie
        # on either pass is left to printf, since it may have decided the step.
        moved = np.flatnonzero((r < 1e9) | (r >= 1e10))
        if moved.size:
            x[moved] += np.where(r[moved] < 1e9, -1, 1)
            r[moved], near = _scaled(a[moved], x[moved])
            tie[moved] |= near
        printf = ~finite | tie | (r < 1e9) | (r >= 1e10) | (x < _X_MIN) | (x > _X_MAX)
        r[printf] = 1e9
        m = r.astype(np.int64)
    high = m // 100_000_000
    rest = m - high * 100_000_000
    middle = rest // 10_000
    low = rest - middle * 10_000
    trailing = trailing4.take(low)
    zero = np.flatnonzero(low == 0)  # few, often none: the last four digits are 0
    if zero.size:
        more = trailing4.take(middle[zero])
        more += (middle[zero] == 0) * trailing4.take(high[zero])
        trailing[zero] += more
    # Cells left to printf may have any shape; the takes below clip it.
    shape = (np.where(values < 0, _X_MAX - _X_MIN + 1, 0) + x - _X_MIN) * 10 + trailing
    # The digit words, built in their rows of ``out`` (the later rows serve as
    # scratch first), then masked and completed by their shape's columns.
    digits4.take(low, out=out[3], mode="clip")
    np.left_shift(out[3], 32, out=out[1])
    digits4.take(middle, out=out[2], mode="clip")
    out[1] |= out[2]  # digits 2..9
    digits4.take(high, out=out[0], mode="clip")
    out[0] <<= 32  # digits 0 and 1 in the last two bytes
    np.right_shift(out[0], 48, out=out[3])
    np.left_shift(out[1], 16, out=out[2])
    out[2] |= out[3]  # digits 1..7 after byte 0
    np.right_shift(out[1], 48, out=out[3])  # digits 8 and 9
    out &= mask.take(shape, axis=1, mode="clip")
    out |= const.take(shape, axis=1, mode="clip")
    return np.flatnonzero(printf)


def _int_words(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    _, lead4, _, low4 = _digit_tables()
    values = values.astype(np.uint64 if values.dtype.kind == "u" else np.int64, copy=False)
    printf = (values < 0) | (values >= 100_000_000)
    v = np.where(printf, values.dtype.type(0), values).astype(np.int64)
    high = v // 10_000
    low = v - high * 10_000
    low4.take(np.where(high > 0, low + 10_000, low), out=out[0], mode="clip")
    out[0] <<= 32
    lead4.take(high, out=out[1], mode="clip")  # an int cell has two words or more
    out[0] |= out[1]
    out[1:] = 0
    return np.flatnonzero(printf)


def _bool_words(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[0] = _FALSE
    np.copyto(out[0], _TRUE, where=values)
    return np.empty(0, np.intp)


# By dtype kind: the kernel that writes a column's cell words into their rows
# of the block table and returns the cells it leaves to printf.
_COLUMN_WORDS = {"b": _bool_words, "i": _int_words, "u": _int_words, "f": _float_words}


def _cell_words(values: np.ndarray) -> int:
    """Whole words for a cell of the column and its separator byte. Only ints
    can have a printf text longer than their kernel's bytes, the longest at an
    extreme of the column ('%.10g' takes at most 17 bytes)."""
    if values.dtype.kind not in "iu":
        return 4 if values.dtype.kind == "f" else 1  # 30 or 5 bytes
    return (max(8, len("%d" % values.min()), len("%d" % values.max())) + 8) // 8


def vectorized_rows(columns: Sequence[np.ndarray]) -> bytes:
    """The CSV rows of equal-length 1-D bool, int and float columns."""
    # One uninitialised word-major table: a column's cells take ``width`` rows,
    # row k holding word k of every cell, so each write fills contiguous rows.
    # A kernel writes every word of its rows, printf texts overwrite the cells
    # left to them, and each separator goes into its cell's free last byte.
    widths = [_cell_words(values) for values in columns]
    table = np.empty((sum(widths), len(columns[0])), "<u8")
    end = 0
    for values, width in zip(columns, widths):
        start, end = end, end + width
        cell = table[start:end]
        fallback = _COLUMN_WORDS[values.dtype.kind](values, cell)
        if fallback.size:  # ints or floats: bools never fall back
            conversion, cells = _column_text(values[fallback])
            texts = np.array([conversion % v for v in cells], f"S{8 * width}")
            cell[:, fallback] = texts.view("<u8").reshape(-1, width).T
        cell[-1] |= np.uint64(ord("\n" if end == len(table) else ",") << 56)
    return table.T.tobytes().translate(None, b"\0")


def _column_text(values: np.ndarray) -> tuple[str, list]:
    """The printf conversion of a bool, int or float column and the Python
    values it takes; '%.10g' % x prints a Python float as format(x, '.10g')."""
    if values.dtype.kind == "b":
        return "%s", np.where(values, "true", "false").tolist()
    if values.dtype.kind in "iu":
        return "%d", values.tolist()
    if np.isnan(values).any():
        return "%s", ["%.10g" % v if v == v else "" for v in values.tolist()]
    return "%.10g", values.tolist()


def _printf_rows(columns: Sequence[np.ndarray]) -> bytes:
    """The CSV rows of equal-length columns, one printf conversion per cell."""
    conversions, values = zip(*map(_column_text, columns))
    row = ",".join(conversions) + "\n"
    return "".join(map(row.__mod__, zip(*values))).encode()


# Blocks of at least this many cells (rows x columns) are printed by
# vectorized_rows; below it _printf_rows is the faster (crossover measured on
# a 2-vCPU 2.0 GHz Xeon VM).
_VECTORIZED_MIN_CELLS = 2048


def _vectorizable(columns: Sequence[np.ndarray]) -> bool:
    rows = len(columns[0])
    return rows * len(columns) >= _VECTORIZED_MIN_CELLS and all(
        c.ndim == 1 and len(c) == rows and c.dtype.kind in "biuf" and c.dtype.itemsize <= 8
        for c in columns
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _format_csv(
    meta: Sequence[tuple[str, object]],
    names: Sequence[str],
    blocks: Iterable[Sequence],
    timestamp: bool,
) -> Iterator[bytes]:
    """The encoded CSV of a table given in blocks of equal-length columns
    (arrays or sequences): its header, then the rows of each block as the
    block is taken."""
    lines = [f"# {key}: {_fmt(value)}" for key, value in meta]
    if timestamp:
        lines.append(f"# generated_at: {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(names))
    yield ("\n".join(lines) + "\n").encode()
    for columns in blocks:
        arrays = [np.asarray(values) for values in columns]
        yield (vectorized_rows if _vectorizable(arrays) else _printf_rows)(arrays)
