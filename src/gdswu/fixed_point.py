"""Unsigned fixed-point formats and the exact accumulation contract.

A value in format Q(int_bits, frac_bits) is stored as a plain non-negative
integer ``raw`` and represents ``raw * 2**-frac_bits``.  All dot-product
accumulation is exact-widening: Python integers never overflow, which models
an RTL adder tree of adequate width (``ceil(log2 N) + sample_bits +
weight_bits`` bits for an N-term product sum — for N <= 2**16 and 32-bit
operands that is at most 80 bits, so no intermediate rounding ever occurs).
Saturation exists only at quantization boundaries, never inside a sum.

Exactness holds in one of two ways: Python ints (``mac_exact``), or a width
proven not to overflow.  The filter's block path (``core.GammaWindowFilter.run``)
takes the second: it packs samples and weights into fields of F bytes of one
Python int and multiplies once, so each product field is a whole sum.  With
samples in 0..max_raw and non-negative weights summing to raw_sum, no sum
exceeds ``max_raw * raw_sum``; F is chosen with that bound below 2**(8F),
so no field carries into its neighbour and every sum is read back exactly.
The bound is computed per configuration, so it holds for every QFormat,
64-bit samples included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

RoundingMode = Literal["half-up", "half-even"]

ROUNDING_MODES: tuple[str, ...] = ("half-up", "half-even")


@dataclass(frozen=True)
class QFormat:
    """Unsigned fixed-point layout: ``int_bits`` integer, ``frac_bits`` fractional."""

    int_bits: int
    frac_bits: int

    def __post_init__(self):
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError("bit counts must be non-negative")
        total = self.int_bits + self.frac_bits
        if not 1 <= total <= 64:
            raise ValueError(f"total width must be 1..64 bits, got {total}")

    @property
    def total_bits(self) -> int:
        return self.int_bits + self.frac_bits

    @property
    def max_raw(self) -> int:
        return (1 << self.total_bits) - 1

    @property
    def ulp(self) -> float:
        """Smallest representable increment, 2**-frac_bits."""
        return 2.0 ** -self.frac_bits

    def to_real(self, raw: int) -> float:
        return raw * 2.0 ** -self.frac_bits


@dataclass(frozen=True)
class FixedWord:
    """A raw value interpreted in a QFormat; ``saturated`` marks a clamped quantization."""

    raw: int
    fmt: QFormat
    saturated: bool = False

    def __post_init__(self):
        if not 0 <= self.raw <= self.fmt.max_raw:
            raise ValueError(f"raw value {self.raw} out of range for {self.fmt}")

    @property
    def value(self) -> float:
        return self.fmt.to_real(self.raw)


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


def quantize(v, fmt: QFormat, rounding: RoundingMode = "half-up") -> FixedWord:
    """Quantize a non-negative real to ``fmt``, saturating at the range top.

    Saturation is reported via the returned word's ``saturated`` flag, never
    raised.  NaN, infinities and negative inputs are domain errors.
    """
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"cannot quantize non-finite value {v!r}")
    if v < 0:
        raise ValueError(f"cannot quantize negative value {v!r}")
    raw = round_scaled(v, fmt.frac_bits, rounding)
    if raw > fmt.max_raw:
        return FixedWord(fmt.max_raw, fmt, saturated=True)
    return FixedWord(raw, fmt)


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
