"""Gamma-distribution tap weights for the sliding window.

The weight at lag ``i`` is the gamma probability density evaluated at
``x_i = i + sample_offset`` (offset 0 by default, so the newest sample gets
the density at 0) and quantized to the weight format.  The shape parameter
is restricted to integers, which keeps the gamma function an exact
factorial.  Raw weights stay equal to the quantized density values — any
normalization is a filter-mode concern, not folded in here.
"""

from __future__ import annotations

import math
import operator

from .fixed_point import MAX_BITS, QFormat, Record, RoundingMode, round_scaled

# Shapes above this would still be exact in Python but land outside any
# sensible window parameterization; reject instead of approximating.
MAX_SHAPE = 20
# A chain simulation keeps one valid-bit pattern, as wide as the pipeline,
# per fill and drain tick, so its cost grows with the square of the window.
# A one-row input takes about 0.17 s and 18 MB, process included, at this
# many taps, and 5.7 s and 312 MB at 65,536 (2-vCPU Xeon, Python 3.11).
# Longer windows are refused before any density is built.
MAX_TAPS = 4096


class GammaParams(Record):
    """Shape ``a`` (positive integer) and scale ``b`` (positive real)."""

    _fields = ("a", "b")

    def __init__(self, a: int, b: float):
        shape = operator.index(a)
        if not 1 <= shape <= MAX_SHAPE:
            raise ValueError(f"shape a must be an integer in 1..{MAX_SHAPE}, got {a}")
        scale = float(b)
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError(f"scale b must be finite and > 0, got {b}")
        vars(self).update(a=shape, b=scale)


def gamma_pdf(x: float, params: GammaParams) -> float:
    """Gamma density x**(a-1) * exp(-x/b) / (b**a * (a-1)!) for x >= 0.

    At x = 0 with a = 1 the power term is taken as 1, so the density starts
    at 1/b.  A parameter choice whose terms leave the double range (``b**a``
    underflowing to 0, ``b**a`` or ``x**(a-1)`` overflowing, or an infinite
    density) is a domain error.
    """
    if x < 0:
        raise ValueError(f"gamma density is defined for x >= 0, got {x}")
    a, b = params.a, params.b
    try:
        density = x ** (a - 1) * math.exp(-x / b) / (b ** a * math.factorial(a - 1))
    except (OverflowError, ZeroDivisionError):
        density = math.inf
    if not math.isfinite(density):
        raise ValueError(
            f"gamma density at x={x} for a={a}, b={b} is outside the double range"
        )
    return density


class WeightVector(Record):
    """Quantized tap weights plus the ideal density values they came from.

    ``raw[i]`` is exactly ``rounding(ideal[i] * 2**frac_bits)``.  ``taps``
    and ``raw_sum`` (the exact integer sum) are computed from ``raw``, and
    construction is the one check that a weight vector is valid:
    non-negative int weights with a positive sum.
    """

    _fields = ("raw", "ideal", "qformat", "params", "rounding", "sample_offset", "taps", "raw_sum")

    def __init__(self, raw: tuple[int, ...], ideal: tuple[float, ...], qformat: QFormat,
                 params: GammaParams, rounding: RoundingMode = "half-up",
                 sample_offset: float = 0.0):
        raw = tuple(raw)
        if not all(isinstance(w, int) and w >= 0 for w in raw):
            raise ValueError(f"raw weights must be non-negative ints, got {raw}")
        raw_sum = sum(raw)
        if raw_sum <= 0:
            raise ValueError(
                f"all {len(raw)} weights quantized to zero at "
                f"frac_bits={qformat.frac_bits}; "
                "increase frac_bits or change the distribution parameters"
            )
        vars(self).update(raw=raw, ideal=ideal, qformat=qformat, params=params, rounding=rounding,
                          sample_offset=sample_offset, taps=len(raw), raw_sum=raw_sum)

    def to_json_dict(self) -> dict:
        return {
            "a": self.params.a,
            "b": self.params.b,
            "taps": self.taps,
            "frac_bits": self.qformat.frac_bits,
            "rounding": self.rounding,
            "raw": list(self.raw),
            "ideal": list(self.ideal),
            "raw_sum": self.raw_sum,
        }


def build_weight_vector(
    params: GammaParams,
    taps: int,
    frac_bits: int,
    rounding: RoundingMode = "half-up",
    sample_offset: float = 0.0,
) -> WeightVector:
    """Evaluate the gamma density at each lag and quantize to tap weights
    with ``frac_bits`` fractional bits; the integer width is sized to fit
    the largest weight.
    """
    taps = operator.index(taps)
    if not 1 <= taps <= MAX_TAPS:
        raise ValueError(f"taps must be in 1..{MAX_TAPS}, got {taps}")
    offset = float(sample_offset)
    if not math.isfinite(offset) or offset < 0:
        raise ValueError(f"sample_offset must be finite and >= 0, got {sample_offset}")
    frac_bits = operator.index(frac_bits)
    if frac_bits < 1:
        raise ValueError(f"weight format needs frac_bits >= 1, got {frac_bits}")

    ideal = tuple(gamma_pdf(i + offset, params) for i in range(taps))
    # A format wider than MAX_BITS is refused below, so round no wider than
    # MAX_BITS + 1 bits rather than build 2**frac_bits; from 54 fractional
    # bits on a double scales exactly, so int_bits is the same either way.
    bits = min(frac_bits, MAX_BITS + 1)
    raw = tuple(round_scaled(v, bits, rounding) for v in ideal)
    int_bits = max(0, max(raw).bit_length() - bits)
    try:
        qformat = QFormat(int_bits, frac_bits)
    except ValueError:
        raise ValueError(
            f"the weights need {int_bits + frac_bits} bits at frac_bits={frac_bits}; "
            f"a weight format allows at most {MAX_BITS}"
        ) from None
    return WeightVector(
        raw=raw,
        ideal=ideal,
        qformat=qformat,
        params=params,
        rounding=rounding,
        sample_offset=offset,
    )
