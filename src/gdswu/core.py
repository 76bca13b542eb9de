"""The gamma-weighted sliding-window filter.

Each output is the exact weighted sum over the last ``taps`` samples,
A = sum(raw_weight[i] * sample_at_lag_i), normalized per mode:

- normalized-average mode: floor(A / raw_sum) — an exact convex combination,
  so a constant input c yields exactly c once the window is full.
- raw-accumulate mode: floor(A / 2**frac_bits), saturated to the sample
  format.  This is the unscaled accumulate reading of the datapath; a full
  0x7F step settles at floor(127 * raw_sum / 128) here, not at the seed.

The filter's state is the last ``taps - 1`` samples, oldest first, carried
from one block to the next.  ``run`` evaluates a whole block with one
integer product (Kronecker substitution): the carried samples plus the
block, and the raw weights, are each packed into one Python int with a
field of F bytes per value, so field k of their product is the convolution
term sum(w[i] * s[k - i]).  The weights are packed already scaled by the
mode's multiplier m, so a field holds A * m, and the output is
``(A * m) >> s`` (division by multiply and shift).  Every term is
non-negative and at most ``max_raw * raw_sum * m``; F is chosen so that
this bound is below 2**(8F), so no field ever carries into the next (see
the ``fixed_point`` module note for the bound and for m and s).

The sample check is fused with the pack.  ``array`` packs the samples in C
and raises TypeError for a non-integer and OverflowError for a negative
or too wide a value; then, as ``max_raw`` is ``2**k - 1``, one AND of the
packed int with a mask of every field's bits from k up tests every upper
bound at once.  On any failure the block is checked again sample by
sample (``check_samples``), which finds the valid prefix and the exact
error, and only that prefix is filtered.

The shift s is a whole number of bytes, so an output is a byte-aligned
slice of its field.  When every output fits in one byte (samples of at
most 8 bits in normalized mode, ``max_raw * raw_sum >> frac_bits`` below
256 in raw mode) the outputs are one strided slice of the product's bytes,
one byte per field; otherwise each field is read whole and shifted.  In
raw mode an output above ``max_raw`` is then clamped to it, a pass that
runs only when one of the config's sums can saturate at all.

Warm-up uses zero padding: the carried samples start at zero like a
hardware shift register after reset, and there is no partial-sum
renormalization.  Division is integer floor division; the remainder is
discarded.

A filter instance is single-writer: runs are strictly ordered.  Distinct
instances are independent and may run on distinct threads freely.
"""

from __future__ import annotations

import operator
import sys
from array import array
from typing import Iterable, Sequence

from .fixed_point import QFormat, Record, RoundingMode
# perfbench/tracing.py wraps gdswu.core.mac_exact
from .fixed_point import mac_exact  # noqa: F401
from .gamma_weights import GammaParams, WeightVector, build_weight_vector

MODE_NORMALIZED = "normalized-average"
MODE_RAW = "raw-accumulate"
MODES: tuple[str, ...] = (MODE_NORMALIZED, MODE_RAW)


class FilterConfig(Record):
    """Weights, sample format and output mode; the window length and the
    gamma parameters are those of the weights."""

    _fields = ("weights", "sample_format", "mode")

    def __init__(self, weights: WeightVector, sample_format: QFormat, mode: str = MODE_NORMALIZED):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        vars(self).update(weights=weights, sample_format=sample_format, mode=mode)

    @property
    def taps(self) -> int:
        return self.weights.taps

    @property
    def params(self) -> GammaParams:
        return self.weights.params


def make_config(
    a: int = 1,
    b: float = 10.0,
    taps: int = 16,
    frac_bits: int = 7,
    rounding: RoundingMode = "half-up",
    mode: str = MODE_NORMALIZED,
    sample_int_bits: int = 7,
    sample_offset: float = 0.0,
) -> FilterConfig:
    """Build a FilterConfig from scalar knobs (defaults: 16 taps, a=1, b=10,
    7 fractional weight bits, 7-bit samples).

    This signature is the run-config schema: its parameters are the config
    keys, and their defaults give each key's default and value type.
    """
    params = GammaParams(a, b)
    weights = build_weight_vector(
        params, taps, frac_bits, rounding=rounding, sample_offset=sample_offset
    )
    return FilterConfig(
        weights=weights, sample_format=QFormat(sample_int_bits, 0), mode=mode
    )


def check_sample(sample, max_raw: int) -> int:
    """``sample`` as an int in 0..max_raw, the sample format's range.

    A non-integer raises TypeError and an out-of-range value ValueError.
    """
    sample = operator.index(sample)
    if not 0 <= sample <= max_raw:
        raise ValueError(f"sample {sample} out of range 0..{max_raw}")
    return sample


def check_samples(samples: Iterable, max_raw: int):
    """The longest valid prefix of ``samples``, checked, and the error that
    ``check_sample`` raised for the sample after it (None when all are valid).

    Every item is a sample: a pipeline maps its idle ticks to 0 first.  The
    kernel calls this only when its fused check fails.
    """
    checked = []
    for sample in samples:
        try:
            checked.append(check_sample(sample, max_raw))
        except (TypeError, ValueError) as exc:
            return checked, exc
    return checked, None


class GammaWindowFilter:
    """Sliding-window filter over the most recent ``taps`` samples.

    Output depends only on the last ``taps`` samples run; eviction
    is strict FIFO, and lag i of the weight vector always addresses the i-th
    most recent sample.
    """

    def __init__(self, config: FilterConfig):
        self.config = config
        multiplier, self._shift = _scale(config)
        self._width = width = _field_bytes(config)
        scaled = [w * multiplier for w in config.weights.raw]
        self._packed_weights = int.from_bytes(_fields(scaled, width), sys.byteorder)
        self._max_raw = max_raw = config.sample_format.max_raw
        # one field's bits above max_raw, which is 2**k - 1
        self._high = ((1 << 8 * width) - 1 - max_raw).to_bytes(width, sys.byteorder)
        # the largest output before any clamp, that of the largest sum
        top = (max_raw * config.weights.raw_sum * multiplier) >> self._shift
        # the byte of a field where its output starts, read alone when every
        # output fits in it
        byte = self._shift // 8 if sys.byteorder == "little" else width - 1 - self._shift // 8
        self._byte = byte if top <= 255 else None
        self._saturates = top > max_raw
        self._carry = bytes((config.taps - 1) * width)  # packed, oldest sample first

    def run(self, samples: Iterable[int]) -> list[int]:
        """Filter a block; output length equals input length.

        The outputs and the state left behind equal those of running each
        sample as a block of one in turn.  At a bad sample the valid prefix
        before it is consumed, then ``check_sample``'s error is raised: a
        ValueError again naming the sample's index, a TypeError as is.
        """
        outputs, error = self._run_block(samples)
        if isinstance(error, ValueError):
            raise ValueError(f"sample {len(outputs)}: {error}") from error
        if error is not None:
            raise error
        return outputs

    def _run_block(self, samples: Iterable) -> tuple[list[int], Exception | None]:
        """The outputs of the longest valid prefix of ``samples``, by one
        packed product, and ``check_sample``'s error for the sample after
        it (None when all are valid).  The one kernel: ``run`` and the
        pipeline models call it, and the fault sweep calls ``run``."""
        values = samples if isinstance(samples, list) else list(samples)
        width, order = self._width, sys.byteorder
        error = None
        try:
            stream = self._carry + _fields(values, width)
            packed = int.from_bytes(stream, order)
            if packed & int.from_bytes(self._high * (len(stream) // width), order):
                raise ValueError("a sample above max_raw")
        except (TypeError, ValueError, OverflowError):
            # sample by sample: the valid prefix and the exact error
            values, error = check_samples(values, self._max_raw)
            stream = self._carry + _fields(values, width)
            packed = int.from_bytes(stream, order)
        if not values:
            return [], error
        taps = self.config.taps
        lo, hi = (taps - 1) * width, len(stream)
        data = (packed * self._packed_weights).to_bytes(hi + lo, order)
        self._carry = stream[hi - lo:]
        if self._byte is not None:
            outputs = list(data[lo + self._byte : hi : width])
        else:
            shift = self._shift
            outputs = [a >> shift for a in _unpack(memoryview(data)[lo:hi], width)]
        if self._saturates and max(outputs) > self._max_raw:
            top = self._max_raw
            outputs = [y if y <= top else top for y in outputs]
        return outputs, error


def _scale(config: FilterConfig) -> tuple[int, int]:
    """(m, s), s a whole number of bytes, such that ``(A * m) >> s`` is the
    output mode's floor(A / divisor) for every sum 0 <= A <= max_raw * raw_sum
    (proof in the ``fixed_point`` module note)."""
    weights = config.weights
    if config.mode == MODE_NORMALIZED:
        bound = config.sample_format.max_raw * weights.raw_sum
        shift = _whole_bytes(bound.bit_length() + weights.raw_sum.bit_length())
        return -(-(1 << shift) // weights.raw_sum), shift
    frac_bits = weights.qformat.frac_bits
    shift = _whole_bytes(frac_bits)
    return 1 << (shift - frac_bits), shift


def _whole_bytes(bits: int) -> int:
    """``bits`` rounded up to a multiple of 8."""
    return -(-bits // 8) * 8


# array typecode per item size in bytes (2, 4 and 8 on common platforms); a
# field is never one byte, as s >= 8 and a field holds byte s // 8
_ARRAY_CODES = {array(code).itemsize: code for code in "HILQ"}


def _field_bytes(config: FilterConfig) -> int:
    """Field width F in bytes: no product field reaches 2**(8F), and a field
    holds byte s // 8, where the output starts.

    A product field is m * sum(w[i] * s[k - i]) <= m * max_raw * raw_sum, as
    all operands are non-negative.  F is rounded up to an array item size
    where one exists.
    """
    multiplier, shift = _scale(config)
    bound = config.sample_format.max_raw * config.weights.raw_sum * multiplier
    need = max(-(-bound.bit_length() // 8), shift // 8 + 1)
    return min((size for size in _ARRAY_CODES if size >= need), default=need)


def _fields(values: Sequence, width: int):
    """``values`` in ``width``-byte fields, in native byte order, as a
    bytes-like object.  A non-integer raises TypeError, and a negative or
    too wide a value OverflowError.

    Packing and unpacking use the same order, so field k of a product of
    packed ints is read back at field k whatever the platform's endianness.
    """
    code = _ARRAY_CODES.get(width)
    if code is not None:
        return array(code, values)
    return b"".join(operator.index(v).to_bytes(width, sys.byteorder) for v in values)


def _unpack(data: memoryview, width: int):
    """The ``width``-byte fields of ``data``, as ints."""
    code = _ARRAY_CODES.get(width)
    if code is not None:
        fields = array(code)
        fields.frombytes(data)
        return fields
    return [
        int.from_bytes(data[k : k + width], sys.byteorder)
        for k in range(0, len(data), width)
    ]


def step_response(config: FilterConfig, seed: int, length: int) -> list[int]:
    """Outputs for a constant stream of ``seed`` from a zeroed filter.

    Non-negative weights and the growing coverage of the seed make the
    output monotone non-decreasing; it is steady after ``taps`` samples.
    """
    length = operator.index(length)
    if length < config.taps:
        raise ValueError(f"length must be >= taps ({config.taps}), got {length}")
    return GammaWindowFilter(config).run([seed] * length)

