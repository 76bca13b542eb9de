"""Numbered CSV rows of two int columns, joined a thousand rows at a time.

Rows ``1000p`` to ``1000p + 999`` share the number prefix ``str(p)``, so a
row's number is that prefix and a shared ``"kkk,"`` suffix for its last
three digits (unpadded in block 0).  A block of rows is one string.

Given a table of the values' text (``value_texts``), a block is one
``"".join`` of strings that already exist: the prefix, the suffix and each
value's entry of the table, ``f"{v},"`` or ``f"{v}{end}"``, with no int
formatted per row.  A value the table lacks is formatted on lookup, so an
out-of-range value still prints as ``%d`` prints it.  Without a table a
block is one ``%d`` template, the prefix and the suffixes joined around
``%d,%d`` fields, formatted with one ``%`` over the block's values.  A
table of all of ``0..top`` pays only with enough rows per value
(``table_pays``).  The run, step and cycle CSVs all write their numbered
rows this way.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

# Rows per value of 0..top before a table of the values' text pays: an
# entry costs about one int() or one %d to build (break-even near 3 rows
# per value), and a 64-bit sample format never builds its 2**64 entries.
_TABLE_ROWS_PER_VALUE = 8

# A row's number after its block prefix.
_THOUSAND = tuple(f"{k:03d}," for k in range(1000))
_FIRST_THOUSAND = tuple(f"{k}," for k in range(1000))


def table_pays(top: int, rows: int) -> bool:
    """Whether ``rows`` rows pay for a table of each value in ``0..top``,
    the text of a CSV's values or the ints of a parse's lines."""
    return (top + 1) * _TABLE_ROWS_PER_VALUE <= rows


class _Texts(dict):
    """``f"{v}{end}"`` by value ``v``; a value with no entry is formatted
    with ``%d`` on lookup, and not kept."""

    __slots__ = ("end",)

    def __init__(self, values: Iterable[int], end: str):
        super().__init__((v, f"{v}{end}") for v in values)
        self.end = end

    def __missing__(self, v) -> str:
        return "%d" % v + self.end


def value_texts(xs: Iterable[int], ys: Iterable[int], end: str = "\n") -> tuple[_Texts, _Texts]:
    """The input text ``f"{v},"`` of each ``v`` in ``xs`` and the output
    text ``f"{v}{end}"`` of each ``v`` in ``ys``, as ``numbered_rows``
    looks them up."""
    return _Texts(xs, ","), _Texts(ys, end)


def value_table(top: int, rows: int, end: str = "\n") -> tuple[_Texts, _Texts] | None:
    """``value_texts`` of every value in ``0..top`` for ``rows`` rows; None
    when they are too few to pay for it (``table_pays``)."""
    if not table_pays(top, rows):
        return None
    values = range(top + 1)
    return value_texts(values, values, end)


def numbered_rows(first: int, xs: Iterable[int], ys: Iterable[int], rows: int,
                  end: str = "\n", table: tuple[_Texts, _Texts] | None = None,
                  ) -> Iterator[str]:
    """The text of rows ``first`` to ``first + rows - 1``: each the row's
    number, its items of ``xs`` and ``ys``, then ``end``, which holds no
    ``%``.  ``table`` is ``value_texts(..., end)`` or ``value_table(...,
    end)``, or None for the ``%d`` template.  One string per
    block of a thousand numbers; the columns are read a block at a time,
    so they may be endless iterators.
    """
    xs, ys = iter(xs), iter(ys)
    n, stop = first, first + rows
    while n < stop:
        p, k = divmod(n, 1000)
        m = min(1000 - k, stop - n)
        prefix, suffixes = (str(p), _THOUSAND) if p else ("", _FIRST_THOUSAND)
        if table is None:
            fields = [0] * (2 * m)
            fields[::2] = islice(xs, m)
            fields[1::2] = islice(ys, m)
            rest = "%d,%d" + end
            yield (prefix + (rest + prefix).join(suffixes[k:k + m]) + rest) % tuple(fields)
        else:
            parts = [prefix] * (4 * m)
            parts[1::4] = suffixes[k:k + m]
            parts[2::4] = map(table[0].__getitem__, islice(xs, m))
            parts[3::4] = map(table[1].__getitem__, islice(ys, m))
            yield "".join(parts)
        n += m
