"""Unsigned fixed-point formats and the exact accumulation contract.

A value in format Q(int_bits, frac_bits) is stored as a plain non-negative
integer ``raw`` and represents ``raw * 2**-frac_bits``.  All dot-product
accumulation is exact-widening: Python integers never overflow, which models
an RTL adder tree of adequate width (``ceil(log2 N) + sample_bits +
weight_bits`` bits for an N-term product sum — for N <= 2**16 and 32-bit
operands that is at most 80 bits, so no intermediate rounding ever occurs).
Saturation exists only in the raw-accumulate output step, never inside a sum.

The filter stays exact in one way: a width proven not to overflow.  Its
one kernel (``core.GammaWindowFilter._run_block``, which ``run`` and the
pipeline models share) packs samples and weights into fields of F bytes of
one Python int and multiplies once, so each product field is a whole sum.
With samples in 0..max_raw and non-negative weights summing to raw_sum, no
sum exceeds ``max_raw * raw_sum``; F is chosen with that bound below
2**(8F), so no field carries into its neighbour and every sum is read back
exactly.
The bound is computed per configuration, so it holds for every QFormat,
64-bit samples included.  ``mac_exact`` is a plain Python-int
multiply-accumulate that the filter does not call; it is kept only for
the benchmark harness, which wraps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Sequence

RoundingMode = Literal["half-up", "half-even"]

ROUNDING_MODES: tuple[str, ...] = ("half-up", "half-even")

MAX_BITS = 64  # the widest format, integer and fractional bits together


@dataclass(frozen=True)
class QFormat:
    """Unsigned fixed-point layout: ``int_bits`` integer, ``frac_bits`` fractional."""

    int_bits: int
    frac_bits: int
    # derived once here: the filter reads max_raw on every normalize call
    max_raw: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError("bit counts must be non-negative")
        total = self.int_bits + self.frac_bits
        if not 1 <= total <= MAX_BITS:
            raise ValueError(f"total width must be 1..{MAX_BITS} bits, got {total}")
        object.__setattr__(self, "max_raw", (1 << total) - 1)


def round_scaled(v, frac_bits: int, rounding: RoundingMode = "half-up") -> int:
    """Round ``v * 2**frac_bits`` to an integer, exactly.

    The scaling and the tie decision are done in rational arithmetic, so the
    result is the true rounding of the given value with no double-rounding.
    """
    y = Fraction(v) * (1 << frac_bits)
    if rounding == "half-up":
        return math.floor(y + Fraction(1, 2))
    if rounding == "half-even":
        return round(y)
    raise ValueError(f"unknown rounding mode {rounding!r}")


def mac_exact(samples: Sequence[int], weights: Sequence[int]) -> int:
    """Exact multiply-accumulate: sum(samples[i] * weights[i]).

    Operands are non-negative integers already in their raw fixed-point
    representation; the result is exact for any length (see module note on
    accumulator width).
    """
    if len(samples) != len(weights):
        raise ValueError(
            f"length mismatch: {len(samples)} samples vs {len(weights)} weights"
        )
    return sum(s * w for s, w in zip(samples, weights))
