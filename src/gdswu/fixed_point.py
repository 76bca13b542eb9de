"""Unsigned fixed-point formats and the exact accumulation contract.

A value in format Q(int_bits, frac_bits) is stored as a plain non-negative
integer ``raw`` and represents ``raw * 2**-frac_bits``.  All dot-product
accumulation is exact-widening: Python integers never overflow, which models
an RTL adder tree of adequate width (``ceil(log2 N) + sample_bits +
weight_bits`` bits for an N-term product sum — for N <= 2**16 and 32-bit
operands that is at most 80 bits, so no intermediate rounding ever occurs).
Saturation exists only in the raw-accumulate output step, never inside a sum.
Quantization is exact too: ``round_scaled`` rounds a double's exact ratio
n / d, scaled by 2**frac_bits, with integer division alone.

The filter stays exact in one way: a width proven not to overflow.  Its
one kernel (``core.GammaWindowFilter._run_block``, which ``run`` and the
pipeline models share) packs samples and weights into fields of F bytes of
one Python int and multiplies once, so each product field is a whole
window sum A.  The output is read as ``(A * m) >> s``.

With samples in 0..max_raw and non-negative weights summing to raw_sum,
every sum lies in 0..N, N = max_raw * raw_sum.  The output mode divides by
d: raw_sum (normalized-average) or 2**frac_bits (raw-accumulate).

- Normalized-average: s = bitlen(N) + bitlen(d), rounded up to a multiple
  of 8, and m = ceil(2**s / d) = (2**s + e) / d with 0 <= e < d.  For
  0 <= A <= N write A = q * d + r with 0 <= r < d.  Then
  A * m / 2**s = A / d + A * e / (d * 2**s), and the second term is below
  N / 2**s <= N / (2**bitlen(N) * 2**bitlen(d)) < 1 / d, since
  2**bitlen(x) > x.  So q <= A * m / 2**s < q + (r + 1) / d <= q + 1, and
  ``(A * m) >> s == A // d`` (Granlund and Montgomery, PLDI 1994).
- Raw-accumulate: s = frac_bits rounded up to a multiple of 8 and
  m = 2**(s - frac_bits), so ``(A * m) >> s == A >> frac_bits`` exactly.

Two bounds keep every field apart, both computed per configuration, so
they hold for every QFormat, 64-bit samples included:

- N < 2**(8 * n1), n1 the fewest bytes that hold N.  A product field of
  n1 bytes holds every sum, so no field carries into its neighbour; a
  sample, at most max_raw <= N as raw_sum >= 1, fits one too.
- N * m < 2**(8 * W), and W > s // 8.  A field of W bytes holds every
  scaled sum, and the byte where its output starts lies inside it.

m >= 1, so n1 <= W.  Where the product's fields are W bytes wide (n1 == W,
or a short window that the kernel multiplies in W-byte fields), m folds
into the packed weights and each product field is A * m, below 2**(8W) by
the second bound.  Otherwise the product's fields are n1 bytes: each sum
is copied whole into the low bytes of a W-byte field, and one multiply of
that int by m makes field k A_k * m, again below 2**(8W), so the scaled
fields do not carry into each other either.

``mac_exact`` is a plain Python-int multiply-accumulate that the filter
does not call; it is kept only for the benchmark harness, which wraps it.
"""

from __future__ import annotations

from typing import Literal, Sequence

RoundingMode = Literal["half-up", "half-even"]

ROUNDING_MODES: tuple[str, ...] = ("half-up", "half-even")

MAX_BITS = 64  # the widest format, integer and fractional bits together


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a ``Record``."""


class Record:
    """Equality, hash and repr of a frozen dataclass over the ``_fields``;
    ``__init__`` stores each attribute once, through ``vars``."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class QFormat(Record):
    """Unsigned fixed-point layout: ``int_bits`` integer, ``frac_bits`` fractional."""

    _fields = ("int_bits", "frac_bits")

    def __init__(self, int_bits: int, frac_bits: int):
        if int_bits < 0 or frac_bits < 0:
            raise ValueError("bit counts must be non-negative")
        total = int_bits + frac_bits
        if not 1 <= total <= MAX_BITS:
            raise ValueError(f"total width must be 1..{MAX_BITS} bits, got {total}")
        # max_raw, not a field, is derived once: the filter reads it on every normalize
        vars(self).update(int_bits=int_bits, frac_bits=frac_bits, max_raw=(1 << total) - 1)


def round_scaled(v, frac_bits: int, rounding: RoundingMode = "half-up") -> int:
    """Round ``v * 2**frac_bits`` to an integer, exactly.

    ``v`` is exactly n / d (``as_integer_ratio``), so the scaled value is
    q + r / d with ``q, r = divmod(n << frac_bits, d)`` and 0 <= r < d, and
    the tie decision compares 2r with d: integer arithmetic alone, with no
    double-rounding.  A NaN raises ValueError and an infinity OverflowError.
    """
    n, d = v.as_integer_ratio()
    q, r = divmod(n << frac_bits, d)
    if rounding not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding!r}")
    if 2 * r > d or 2 * r == d and (rounding == "half-up" or q & 1):
        q += 1
    return q


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
