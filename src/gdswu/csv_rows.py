"""Numbered CSV rows of two int columns, built a thousand rows at a time.

Rows ``1000p`` to ``1000p + 999`` share the number prefix ``str(p)``, so a
row's number is that prefix and three digits (unpadded in block 0).  The
columns are read in place, one slice of each per block, and a block of
rows is one string.

Each block repeats one template row: the prefix, three pad bytes for the
last digits of the row number, ``,``, the value slots and ``end``; the
row numbers' digits are filled a whole column at a time from fixed digit
columns.  Where ``bytearray()`` takes both of a block's value slices (it
reads a list faster than ``bytes()`` and refuses the same values), every
value is in ``0..255`` and has at most three digits, so each value slot
is three pads, filled with the values' hundreds, tens and units by one
``translate`` each, a leading zero mapping to the pad.  This is SIMD
within a register (Fisher and Dietz, LCPC 1998): one C loop applies one
table to every byte of a column, as one word-wide operation acts on every
lane.  In any other block (a wider value, a negative, an output edited
out of range) the slots are ``%d,%d``, formatted with one ``%`` over the
block's values, each taken through ``operator.index`` first, so that a
non-integer raises TypeError rather than printing truncated.  Either way
one ``translate`` first deletes every pad.  The choice is made per block,
from its values alone.  The run, step and cycle CSVs all write their
numbered rows this way.
"""

from __future__ import annotations

from operator import index
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


def numbered_rows(first: int, xs: Sequence[int], ys: Sequence[int], lo: int, hi: int,
                  end: str = "\n") -> Iterator[str]:
    """The text of rows ``lo`` to ``hi - 1``: row i is its number
    ``first + i``, ``xs[i]`` and ``ys[i]``, then ``end``, which is ASCII and
    holds no ``%`` or NUL.  One string per block of a thousand numbers; the
    columns are read in place, one slice per block, so they may be endless
    where slicing them gives a list of the slice's length.
    """
    tail = end.encode("ascii")
    while lo < hi:
        p, k = divmod(first + lo, 1000)
        m = min(1000 - k, hi - lo)
        x, y = xs[lo:lo + m], ys[lo:lo + m]
        try:
            x, y, fields = bytearray(x), bytearray(y), None
        except (TypeError, ValueError):
            fields = [0] * (2 * m)
            fields[::2], fields[1::2] = map(index, x), map(index, y)
        prefix = b"%d" % p if p else b""
        row = prefix + (b"\0\0\0,\0\0\0,\0\0\0" if fields is None else b"\0\0\0,%d,%d") + tail
        size, at = len(row), len(prefix)
        block = bytearray(row * m)
        for j, column in enumerate(_PADDED if p else _UNPADDED):
            block[at + j::size] = column[k:k + m]
        if fields is None:
            for j, table in enumerate(_TABLES):
                block[at + 4 + j::size] = x.translate(table)
                block[at + 8 + j::size] = y.translate(table)
        text = block.translate(None, _PAD).decode("ascii")
        yield text if fields is None else text % tuple(fields)
        lo += m
