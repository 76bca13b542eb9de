"""Numbered CSV rows, formatted a thousand at a time.

Rows ``1000p`` to ``1000p + 999`` share the number prefix ``str(p)``, so a
block of them is one template, ``str(p)`` joined before precomputed rows
for the last three digits, formatted with one ``%`` over the block's
values.  Block 0 uses unpadded rows.  The run, step and cycle CSVs all
write their numbered rows this way.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator

# A row's number after its block prefix, then its two values.
_THOUSAND = tuple(f"{k:03d},%d,%d" for k in range(1000))
_FIRST_THOUSAND = tuple(f"{k},%d,%d" for k in range(1000))


def numbered_rows(first: int, pairs: Iterable[tuple[int, int]], end: str = "\n") -> Iterator[str]:
    """The text of rows ``first``, ``first + 1``, ...: each the row's number,
    the two ints of its item of ``pairs``, then ``end``, which holds no
    ``%``.  One string per block of a thousand numbers; ``pairs`` is read
    a block at a time, so it may be an endless iterator.
    """
    pairs = iter(pairs)
    n = first
    while True:
        p, k = divmod(n, 1000)
        fields = tuple(chain.from_iterable(islice(pairs, 1000 - k)))
        if not fields:
            return
        rows = len(fields) // 2
        prefix, block = (str(p), _THOUSAND) if p else ("", _FIRST_THOUSAND)
        yield (prefix + (end + prefix).join(block[k:k + rows]) + end) % fields
        n += rows
