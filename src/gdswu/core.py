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
field of n1 bytes per value, the fewest that hold N = max_raw * raw_sum,
so field k of their product is the window sum A = sum(w[i] * s[k - i]),
0 <= A <= N.  The output is ``(A * m) >> s`` (division by multiply and
shift, proved in the ``fixed_point`` module note), and a scaled sum A * m
needs W bytes; ``_layout`` computes m, s, n1 and W from those bounds
alone.  Each sum is widened, copied into a W-byte field by strided slice
assignments, and one multiply of that int by m scales every sum at once.
Where n1 is W a widen would copy nothing, so m is folded into the packed
weights instead, and a product field holds A * m.

The sample check is fused with the pack.  Samples of at most 8 bits pack
with ``bytes``, wider ones with an ``array`` of 4- or 8-byte items; both
work in C and raise TypeError for a non-integer and ValueError or
OverflowError for a negative or too wide a value.  As ``max_raw`` is
``2**k - 1``, a sample is at most max_raw exactly when each of its bytes
is at most max_raw's byte there, so one ``translate`` per item byte below
255 in max_raw, deleting the allowed values, tests every upper bound at
once: a byte left over is a sample out of range.  The bytes below bit k
are then spread into the product's fields by strided slice assignments.
On any failure the block is checked again sample by sample
(``check_samples``), which finds the valid prefix and the exact error, and
only that prefix is filtered.

The kernel, ``_run_block``, is that check and then the product.  The
check, ``_pack``, changes no state, and a block it accepts is valid
whole; ``_product`` filters the packed block and carries its last samples
on.  The pipeline models call the two apart, so that the check is also
their test for an idle tick (``systolic`` module note).

The shift s is a whole number of bytes and A * m < 2**(8W), so an output
is exactly the bytes of its W-byte field from byte s // 8 up.  Byte j of a
value, counted from the least significant, lies at offset j of its field
or array item of n bytes on a little-endian host and at n - 1 - j on a
big-endian one (``sys.byteorder``, ``_at``), for packing, widening and
reading alike.  The read gathers each output's bytes, by strided slice
assignments, into items of the smallest array size that holds the largest
output, and reads them with one ``array``; where every output fits in one
byte the gathered bytes are the outputs.  Only an item wider than any
array code is read one ``int.from_bytes`` at a time.  In raw mode an
output above ``max_raw`` is then clamped to it, a pass that runs only
when one of the config's sums can saturate at all.

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
from typing import Iterable

from .fixed_point import QFormat, Record, RoundingMode
# perfbench/tracing.py wraps gdswu.core.mac_exact
from .fixed_point import mac_exact  # noqa: F401
from .gamma_weights import GammaParams, WeightVector, build_weight_vector

MODE_NORMALIZED = "normalized-average"
MODE_RAW = "raw-accumulate"
MODES: tuple[str, ...] = (MODE_NORMALIZED, MODE_RAW)
# what ``_pack`` raises for a bad sample: a non-integer, a negative, too
# wide a value, or a value above max_raw
_PACK_ERRORS = (TypeError, ValueError, OverflowError)


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
        multiplier, shift, sums, width = _layout(config)
        self._sums, self._width = sums, width
        self._max_raw = max_raw = config.sample_format.max_raw
        # m folds into the weights where a widen would copy nothing (n1 == W);
        # otherwise the widened sums take it, one multiply per block
        fold = sums == width
        self._multiplier = 0 if fold else multiplier
        packed = b"".join(
            (w * multiplier if fold else w).to_bytes(sums, sys.byteorder)
            for w in config.weights.raw
        )
        self._packed_weights = int.from_bytes(packed, sys.byteorder)
        self._widen = [(_at(j, width), _at(j, sums)) for j in range(sums)]
        self._code = None if max_raw <= 255 else next(
            code for code in "IQ" if max_raw >> 8 * array(code).itemsize == 0
        )
        self._item = item = 1 if self._code is None else array(self._code).itemsize
        # per item byte that max_raw does not fill: its offset and the values
        # allowed there, at most max_raw's byte (0 above bit k)
        self._limits = [
            (_at(j, item), bytes(range((max_raw >> 8 * j) + 1)))
            for j in range(item) if max_raw >> 8 * j < 255
        ]
        # each item byte below bit k, and where it goes in a field
        self._spread = [
            (_at(j, sums), _at(j, item)) for j in range(-(-max_raw.bit_length() // 8))
        ]
        # the largest output before any clamp, that of the largest sum
        top = (max_raw * config.weights.raw_sum * multiplier) >> shift
        self._saturates = top > max_raw
        # each byte of an output, from byte s // 8 of its field, and where it
        # goes in an item of the smallest array size that holds top
        size = -(-top.bit_length() // 8) or 1
        self._out = out = min((n for n in _ARRAY_CODES if n >= size), default=size)
        self._read = [(_at(j, out), _at(shift // 8 + j, width)) for j in range(size)]
        self._carry = bytes((config.taps - 1) * sums)  # packed, oldest sample first

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
        it (None when all are valid).  The one kernel, the check
        (``_pack``) then the product (``_product``): ``run`` calls it, the
        fault sweep calls ``run``, and the pipeline models call it or, on a
        block the check accepts, its two parts."""
        values = samples if isinstance(samples, list) else list(samples)
        error = None
        try:
            stream = self._pack(values)
        except _PACK_ERRORS:
            # sample by sample: the valid prefix and the exact error
            values, error = check_samples(values, self._max_raw)
            stream = self._pack(values)
        return self._product(stream, len(values)), error

    def _product(self, stream: bytearray, count: int) -> list[int]:
        """The outputs of the ``count`` samples that ``_pack`` packed into
        ``stream``, by one packed product; their last taps - 1 become the
        carried samples."""
        if not count:
            return []
        sums, width, order = self._sums, self._width, sys.byteorder
        lo, hi = (self.config.taps - 1) * sums, len(stream)
        data = (int.from_bytes(stream, order) * self._packed_weights).to_bytes(hi + lo, order)
        self._carry = stream[hi - lo:]
        if self._multiplier:
            # each sum into a W-byte field, then one multiply scales them all
            wide = bytearray(count * width)
            for wide_at, sum_at in self._widen:
                wide[wide_at::width] = data[lo + sum_at : hi : sums]
            data = (int.from_bytes(wide, order) * self._multiplier).to_bytes(len(wide), order)
            lo, hi = 0, len(wide)
        out = self._out
        items = bytearray(count * out)
        for out_at, field_at in self._read:
            items[out_at::out] = data[lo + field_at : hi : width]
        outputs = _unpack(items, out)
        if self._saturates and max(outputs) > self._max_raw:
            top = self._max_raw
            outputs = [y if y <= top else top for y in outputs]
        return outputs

    def _pack(self, values: list):
        """The carried samples, then ``values``, in n1-byte fields, as a
        bytes-like object.  A bad sample raises one of ``_PACK_ERRORS``
        (the fused check, in the module note), and then no state has
        changed."""
        code, item = self._code, self._item
        items = bytes(values) if code is None else array(code, values).tobytes()
        for at, allowed in self._limits:
            if items[at::item].translate(None, allowed):
                raise ValueError("a sample above max_raw")
        sums, carry = self._sums, self._carry
        stream = bytearray(len(carry) + len(values) * sums)
        stream[: len(carry)] = carry
        for field_at, item_at in self._spread:
            stream[len(carry) + field_at :: sums] = items[item_at::item]
        return stream


def _at(j: int, size: int) -> int:
    """The offset of byte j, counted from the least significant, in a
    ``size``-byte field in native byte order."""
    return j if sys.byteorder == "little" else size - 1 - j


# array typecode per item size in bytes (1, 2, 4 and 8 on common platforms)
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _layout(config: FilterConfig) -> tuple[int, int, int, int]:
    """(m, s, n1, W): the kernel's scale, shift and field widths in bytes.

    With N = max_raw * raw_sum, the largest window sum, ``(A * m) >> s`` is
    the output mode's floor(A / divisor) for every sum 0 <= A <= N (proof
    in the ``fixed_point`` module note); s is a whole number of bytes.

    n1, the field width of the packed product, is the fewest bytes that
    hold N.  W is the field width of the scaled sums: no A * m reaches
    2**(8W), and a field holds byte s // 8, where the output starts.  A
    scaled sum is m * sum(w[i] * s[k - i]) <= m * N, as all operands are
    non-negative.
    """
    weights = config.weights
    bound = config.sample_format.max_raw * weights.raw_sum
    if config.mode == MODE_NORMALIZED:
        shift = -(-(bound.bit_length() + weights.raw_sum.bit_length()) // 8) * 8
        multiplier = -(-(1 << shift) // weights.raw_sum)
    else:
        frac_bits = weights.qformat.frac_bits
        shift = -(-frac_bits // 8) * 8
        multiplier = 1 << (shift - frac_bits)
    sums = -(-bound.bit_length() // 8)
    width = max(-(-(bound * multiplier).bit_length() // 8), shift // 8 + 1)
    return multiplier, shift, sums, width


def _unpack(data: bytearray, size: int) -> list[int]:
    """The ``size``-byte items of ``data``, as ints."""
    code = _ARRAY_CODES.get(size)
    if code is not None:
        return array(code, data).tolist()
    return [
        int.from_bytes(data[k : k + size], sys.byteorder)
        for k in range(0, len(data), size)
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

