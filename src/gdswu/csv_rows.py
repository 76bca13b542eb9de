"""Numbered CSV rows of two int columns, built a thousand rows at a time.

Rows ``1000p`` to ``1000p + 999`` share the number prefix ``str(p)``, so a
row's number is that prefix and three digits (unpadded in block 0).  A
block of rows is one string, its values read by one slice of each column.

Where ``bytes()`` takes both of a block's value slices, every value is in
``0..255`` and has at most three digits, so the block is built as bytes.
One template row (the prefix, then three pad bytes before each ``,`` and
before ``end``) is repeated for the block, and each digit place is filled
a whole column at a time: the row numbers' digits from fixed digit
columns, and the values' hundreds, tens and units from one
``bytes.translate`` each, a leading zero mapping to the pad.  One more
``translate`` deletes every pad.  This is SIMD within a register (Fisher
and Dietz, LCPC 1998): one C loop applies one table to every byte of a
column, as one word-wide operation acts on every lane.  Any other block
(a wider value, a negative, an output edited out of range) is one ``%d``
template, the prefix and the row numbers joined around ``%d,%d`` fields,
formatted with one ``%`` over the block's values.  The choice is made per
block, from its values alone.  The run, step and cycle CSVs all write
their numbered rows this way.
"""

from __future__ import annotations

from typing import Iterator, Sequence

_PAD = b"\0"
_DIGITS = b"0123456789"

# The hundreds, tens and units digits of 0..999, padded to three digits,
# and unpadded (a leading zero as a pad).  The first 256 bytes of each
# unpadded column are the translate table of that digit of a byte value.
_HUNDREDS = b"".join(_DIGITS[d:d + 1] * 100 for d in range(10))
_TENS = b"".join(_DIGITS[d:d + 1] * 10 for d in range(10)) * 10
_UNITS = _DIGITS * 100
_PADDED = (_HUNDREDS, _TENS, _UNITS)
_UNPADDED = (_PAD * 100 + _HUNDREDS[100:], _PAD * 10 + _TENS[10:], _UNITS)
_TABLES = tuple(column[:256] for column in _UNPADDED)

# A row's number after its block prefix, for the %d template.
_THOUSAND = tuple(f"{k:03d}," for k in range(1000))
_FIRST_THOUSAND = tuple(f"{k}," for k in range(1000))


def numbered_rows(first: int, xs: Sequence[int], ys: Sequence[int], rows: int,
                  end: str = "\n") -> Iterator[str]:
    """The text of rows ``first`` to ``first + rows - 1``: each the row's
    number, its items of ``xs`` and ``ys`` from index 0, then ``end``, which
    is ASCII and holds no ``%`` or NUL.  One string per block of a thousand
    numbers; the columns are read one slice per block, so they may be
    endless where slicing them gives a list of the slice's length.
    """
    n, stop = first, first + rows
    while n < stop:
        p, k = divmod(n, 1000)
        m, i = min(1000 - k, stop - n), n - first
        x, y = xs[i:i + m], ys[i:i + m]
        prefix = str(p) if p else ""
        try:
            x, y = bytes(x), bytes(y)
        except (TypeError, ValueError):
            fields = [0] * (2 * m)
            fields[::2] = x
            fields[1::2] = y
            rest = "%d,%d" + end
            suffixes = _THOUSAND if p else _FIRST_THOUSAND
            yield (prefix + (rest + prefix).join(suffixes[k:k + m]) + rest) % tuple(fields)
        else:
            row = (prefix + "\0\0\0,\0\0\0,\0\0\0" + end).encode("ascii")
            size, at = len(row), len(prefix)
            block = bytearray(row * m)
            for j, column in enumerate(_PADDED if p else _UNPADDED):
                block[at + j::size] = column[k:k + m]
            for j, table in enumerate(_TABLES):
                block[at + 4 + j::size] = x.translate(table)
                block[at + 8 + j::size] = y.translate(table)
            yield block.translate(None, _PAD).decode("ascii")
        n += m
