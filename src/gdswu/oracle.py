"""Independent ground truth for the filter datapath.

``oracle_exact`` replays the fixed-point pipeline with arbitrary-precision
integers and direct stream indexing — deliberately no ring buffer and no
shared code with ``core`` — so bit-equality against the filter is evidence,
not tautology.  ``oracle_real`` runs the unquantized gamma-weighted filter
in double precision for quantization-error comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import MODE_NORMALIZED, MODE_RAW, MODES
from .gamma_weights import GammaParams, WeightVector, gamma_pdf


@dataclass(frozen=True)
class ComparisonReport:
    """Element-wise comparison outcome; a mismatch is |difference| > bound."""

    max_abs_error: float
    mismatch_count: int
    first_mismatch_index: int | None
    bound_used: float

    def __post_init__(self):
        if (self.mismatch_count == 0) != (self.first_mismatch_index is None):
            raise ValueError("mismatch_count and first_mismatch_index disagree")


def oracle_exact(
    samples: Sequence[int],
    raw_weights: Sequence[int],
    raw_sum: int,
    mode: str = MODE_NORMALIZED,
    frac_bits: int | None = None,
    sample_max: int | None = None,
) -> list[int]:
    """Exact-integer reference outputs, computed naively.

    out[n] = floor(sum_i raw_weights[i] * samples[n-i] / divisor) with zero
    padding for n-i < 0.  The divisor is raw_sum in normalized-average mode
    and 2**frac_bits in raw-accumulate mode (which also saturates to
    sample_max, so those two arguments are required there).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_RAW and (frac_bits is None or sample_max is None):
        raise ValueError("raw-accumulate mode needs frac_bits and sample_max")
    out = []
    for n in range(len(samples)):
        acc = 0
        for i, w in enumerate(raw_weights):
            if n - i >= 0:
                acc += w * samples[n - i]
        if mode == MODE_NORMALIZED:
            out.append(acc // raw_sum)
        else:
            out.append(min(acc // (1 << frac_bits), sample_max))
    return out


def oracle_real(
    samples: Sequence[int],
    params: GammaParams,
    taps: int,
    mode: str = MODE_NORMALIZED,
    sample_max: int | None = None,
    sample_offset: float = 0.0,
) -> list[float]:
    """Ideal-filter reference outputs with unquantized weights.

    Normalized-average mode divides by the sum of the ideal weights.  In
    raw-accumulate mode the result is clamped to sample_max, mirroring the
    fixed datapath's output saturation (the clamp is 1-Lipschitz, so error
    bounds derived pre-clamp survive it).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_RAW and sample_max is None:
        raise ValueError("raw-accumulate mode needs sample_max")
    weights = [gamma_pdf(i + sample_offset, params) for i in range(taps)]
    total = sum(weights)
    out = []
    for n in range(len(samples)):
        acc = 0.0
        for i, w in enumerate(weights):
            if n - i >= 0:
                acc += w * samples[n - i]
        if mode == MODE_NORMALIZED:
            out.append(acc / total)
        else:
            out.append(min(acc, float(sample_max)))
    return out


def quantization_error_bound(weights: WeightVector, mode: str, max_sample: int) -> float:
    """Worst-case |fixed output - ideal output| for streams bounded by max_sample.

    Each quantized weight is within half an ulp (2**-(frac_bits+1)) of its
    ideal value.  In normalized mode the weighted-average error is at most
    taps * half_ulp * max_sample / (raw_sum * 2**-frac_bits); raw-accumulate
    mode drops the divisor.  One output LSB is added for the floor division.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    half_ulp = 0.5 / (1 << weights.qformat.frac_bits)
    spread = weights.taps * half_ulp * max_sample
    if mode == MODE_NORMALIZED:
        quantized_sum = weights.raw_sum / (1 << weights.qformat.frac_bits)
        return spread / quantized_sum + 1.0
    return spread + 1.0


def compare(
    fixed_out: Sequence[float],
    oracle_out: Sequence[float],
    bound: float,
) -> ComparisonReport:
    """Element-wise comparison of two output sequences against a bound."""
    if len(fixed_out) != len(oracle_out):
        raise ValueError(
            f"length mismatch: {len(fixed_out)} vs {len(oracle_out)} outputs"
        )
    max_err = 0.0
    mismatches = 0
    first = None
    for i, (got, want) in enumerate(zip(fixed_out, oracle_out)):
        err = abs(got - want)
        max_err = max(max_err, err)
        if err > bound:
            mismatches += 1
            if first is None:
                first = i
    return ComparisonReport(
        max_abs_error=max_err,
        mismatch_count=mismatches,
        first_mismatch_index=first,
        bound_used=bound,
    )
