"""Vectorized CSV rows: the bytes of one printf conversion per cell, from numpy.

``vectorized_rows`` prints 1-D bool, int and float columns as
``scenarios._printf_rows`` does: floats as ``'%.10g' % float(v)``, ints as
``'%d'``, bools as ``true``/``false``. Each cell is a fixed-width run of
little-endian uint64 words whose unused bytes are NUL; the cells, commas and
newlines of a block of rows are one matrix, and deleting its NULs lays out
the rows. Cells the arithmetic below cannot print exactly (0, inf, nan, a
rounding tie, a float exponent outside -13..31, an int outside 0..10**8 - 1)
are printed by printf into their run.

``scenarios`` imports this module on its first large table, so that smaller
runs do not pay for building its tables.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# Rows per block, so that a block's arrays stay in the CPU cache (about 2 MB
# for a response block). On a 2-vCPU Xeon VM, blocks of 4096 rows printed
# the broadband-sweep tables within 5% of blocks of 8192 and gave that
# workload a lower median op time (21.7 against 22.6 ms in bench/run.py);
# blocks of 2048 were slower.
BLOCK_ROWS = 4096


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For 0..9999: words of the four ASCII digits, first in the low byte,
    zero-padded and with leading zeros NUL (0 all NUL); and the trailing
    zero digits of the padded four (4 for 0)."""
    digits = np.indices((10,) * 4).reshape(4, -1)  # column n holds n's digits
    zero = digits == 0
    chars = (digits + ord("0")) << np.array([[0], [8], [16], [24]])
    padded = chars.sum(axis=0).astype(np.uint64)
    stripped = np.where(np.logical_and.accumulate(zero), 0, chars).sum(axis=0).astype(np.uint64)
    return padded, stripped, np.logical_and.accumulate(zero[::-1]).sum(axis=0)


_DIGITS4, _LEAD4, _TRAILING4 = _digit_tables()
# The low four digits of a number: stripped below 10**4 (but "0" for 0),
# padded at index + 10**4.
_LOW4 = np.concatenate([_LEAD4, _DIGITS4])
_LOW4[0] = ord("0") << 24

_TRUE, _FALSE = np.frombuffer(b"true\0\0\0\0false\0\0\0", "<u8").astype(np.uint64)

# A float is printed from the 10-digit integer nearest a / 10**(X - 9), X being
# its decimal exponent. Every 10**k with k <= 22 is a double, so for
# _X_MIN <= X <= _X_MAX that scaling is one correctly rounded product or
# quotient: by _MULTIPLY[i] and _DIVIDE[i] at i = _X_MAX - X, one of them 1.
_X_MIN, _X_MAX = 9 - 22, 9 + 22
_POW10 = np.array([float(10**k) for k in range(23)])
_MULTIPLY = np.concatenate([np.ones(22), _POW10])
_DIVIDE = np.concatenate([_POW10[::-1], np.ones(22)])


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


_FLOAT_MASK, _FLOAT_CONST = _float_layout()


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


def _float_words(values: np.ndarray) -> tuple[np.ndarray, int, str, np.ndarray]:
    values = values.astype(np.float64, copy=False)
    with np.errstate(all="ignore"):
        a = np.abs(values)
        finite = (a > 0) & (a < np.inf)
        a[~finite] = 1.0
        x = np.floor(np.log10(a)).astype(np.int64)
        r, tie = _scaled(a, x)
        # log10 can be one off next to a power of ten, and rounding can carry
        # to 10**10: step X and scale once more. A tie on either pass is left
        # to printf, since it may have decided the step.
        moved = np.flatnonzero((r < 1e9) | (r >= 1e10))
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
    trailing = _TRAILING4.take(low)
    zero = np.flatnonzero(low == 0)  # few: the last four digits are 0
    more = _TRAILING4.take(middle[zero])
    more += (middle[zero] == 0) * _TRAILING4.take(high[zero])
    trailing[zero] += more
    # Cells left to printf may have any shape; the takes below clip it.
    shape = (np.where(values < 0, _X_MAX - _X_MIN + 1, 0) + x - _X_MIN) * 10 + trailing
    high, middle, low = _DIGITS4.take(high), _DIGITS4.take(middle), _DIGITS4.take(low)
    words = np.empty((values.size, 4), np.uint64)
    for i, digits in enumerate(
        (
            high << 32,  # digits 0 and 1 in the last two bytes
            middle | (low << 32),  # digits 2..9
            (high >> 16) | (middle << 16) | (low << 48),  # digits 1..7 after byte 0
            low >> 16,  # digits 8 and 9
        )
    ):
        digits &= _FLOAT_MASK[i].take(shape, mode="clip")
        np.bitwise_or(digits, _FLOAT_CONST[i].take(shape, mode="clip"), out=words[:, i])
    return words, 30, "%.10g", printf


def _int_words(values: np.ndarray) -> tuple[np.ndarray, int, str, np.ndarray]:
    values = values.astype(np.uint64 if values.dtype.kind == "u" else np.int64, copy=False)
    printf = (values < 0) | (values >= 100_000_000)
    v = np.where(printf, values.dtype.type(0), values).astype(np.int64)
    high = v // 10_000
    low = v - high * 10_000
    words = _LEAD4.take(high) | (_LOW4.take(np.where(high > 0, low + 10_000, low)) << 32)
    return words[:, None], 8, "%d", printf


def _bool_words(values: np.ndarray) -> tuple[np.ndarray, int, str, np.ndarray]:
    return np.where(values, _TRUE, _FALSE)[:, None], 5, "%s", np.zeros(values.size, bool)


# By dtype kind: a column's words, the bytes they use, and its printf
# conversion and the mask of cells left to it.
_COLUMN_WORDS = {"b": _bool_words, "i": _int_words, "u": _int_words, "f": _float_words}


def _block(columns: Sequence[np.ndarray]) -> bytes:
    cells = []
    for values in columns:
        words, used, conversion, printf = _COLUMN_WORDS[values.dtype.kind](values)
        fallback = np.flatnonzero(printf)
        texts = [conversion % v for v in values[fallback].tolist()]
        # Whole words for the cell and its separator.
        cells.append((words, fallback, texts, (max([used, *map(len, texts)]) + 8) // 8))
    table = np.zeros((len(columns[0]), sum(cell[3] for cell in cells)), "<u8")
    table_bytes = table.view(np.uint8)
    end = 0
    for words, fallback, texts, width in cells:
        start, end = end, end + width
        table[:, start : start + words.shape[1]] = words
        if texts:
            size = 8 * width - 1
            table_bytes[fallback, 8 * start : 8 * end - 1] = (
                np.array(texts, f"S{size}").view(np.uint8).reshape(-1, size)
            )
        table_bytes[:, 8 * end - 1] = ord(",")
    table_bytes[:, -1] = ord("\n")
    return table_bytes.tobytes().translate(None, b"\0")


def vectorized_rows(columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The CSV rows of equal-length 1-D bool, int and float columns, one
    chunk per block of ``BLOCK_ROWS`` rows."""
    for i in range(0, len(columns[0]), BLOCK_ROWS):
        yield _block([c[i : i + BLOCK_ROWS] for c in columns])
