"""The gamma-weighted sliding-window filter.

The filter holds the last ``taps`` samples; each output is the exact
weighted sum A = sum(raw_weight[i] * sample_at_lag_i), normalized per mode:

- normalized-average mode: floor(A / raw_sum) — an exact convex combination,
  so a constant input c yields exactly c once the window is full.
- raw-accumulate mode: floor(A / 2**frac_bits), saturated to the sample
  format.  This is the unscaled accumulate reading of the datapath; a full
  0x7F step settles at floor(127 * raw_sum / 128) here, not at the seed.

``push`` evaluates A for one sample with ``mac_exact`` over the window,
kept oldest first against the weights reversed.
``run`` evaluates a whole block with one integer product (Kronecker
substitution): the carried last ``taps - 1`` samples plus the block, and the
raw weights, are each packed into one Python int with a field of F bytes
per value, so field k of their product is the convolution term
sum(w[i] * s[k - i]).  Every term is non-negative and at most
``max_raw * raw_sum``; F is chosen so that this bound is below 2**(8F), so
no field ever carries into the next and each field is A exactly (see the
``fixed_point`` module note).

Warm-up uses zero padding: the window starts all-zero like a hardware shift
register after reset, and there is no partial-sum renormalization.  Division
is integer floor division; the remainder is discarded.

A filter instance is single-writer: pushes are strictly ordered.  Distinct
instances are independent and may run on distinct threads freely.
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, NoReturn, Sequence

from .fixed_point import QFormat, RoundingMode, mac_exact
from .gamma_weights import GammaParams, WeightVector, build_weight_vector

MODE_NORMALIZED = "normalized-average"
MODE_RAW = "raw-accumulate"
MODES: tuple[str, ...] = (MODE_NORMALIZED, MODE_RAW)


@dataclass(frozen=True)
class FilterConfig:
    """Weights, sample format and output mode; the window length and the
    gamma parameters are those of the weights."""

    weights: WeightVector
    sample_format: QFormat
    mode: str = MODE_NORMALIZED

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")

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


def check_samples(samples: Iterable, max_raw: int, idle: bool = False):
    """The longest valid prefix of ``samples``, checked, and the error that
    ``check_sample`` raised for the sample after it (None when all are valid).

    With ``idle``, None items are idle ticks and pass through unchecked.
    """
    values = list(samples)
    try:
        checked = list(map(operator.index, values))
        if not checked or (min(checked) >= 0 and max(checked) <= max_raw):
            return checked, None
    except TypeError:
        pass
    checked = []
    for sample in values:
        try:
            checked.append(
                None if idle and sample is None else check_sample(sample, max_raw)
            )
        except (TypeError, ValueError) as exc:
            return checked, exc
    return checked, None


def raise_sample_error(error: Exception, index: int) -> NoReturn:
    """Raise ``check_sample``'s ``error`` for the sample at ``index`` of a
    stream: a ValueError is raised again naming the index, a TypeError as is."""
    if isinstance(error, ValueError):
        raise ValueError(f"sample {index}: {error}") from error
    raise error


class GammaWindowFilter:
    """Sliding-window filter over the most recent ``taps`` samples.

    Output depends only on the last ``taps`` samples pushed or run; eviction
    is strict FIFO, and lag i of the weight vector always addresses the i-th
    most recent sample.
    """

    def __init__(self, config: FilterConfig):
        self.config = config
        self._width = _field_bytes(config)
        self._packed_weights = _pack(config.weights.raw, self._width)
        self._reversed_raw = config.weights.raw[::-1]
        self._max_raw = config.sample_format.max_raw
        self.reset()

    @property
    def fill_count(self) -> int:
        """Number of real samples in the window, capped at ``taps``."""
        return self._fill

    def push(self, sample: int) -> int:
        """Insert one sample (raw value) and return the filter output."""
        sample = check_sample(sample, self._max_raw)
        window = self._window
        del window[0]
        window.append(sample)
        if self._fill < len(window):
            self._fill += 1
        return _normalize(self.config, (mac_exact(window, self._reversed_raw),))[0]

    def run(self, samples: Iterable[int]) -> list[int]:
        """Filter a block; output length equals input length.

        The outputs and the state left behind equal those of pushing each
        sample in turn.  At a bad sample the valid prefix before it is
        consumed, then the error is raised; a ValueError names the index.
        """
        checked, error = check_samples(samples, self._max_raw)
        outputs = self._run_block(checked)
        if error is not None:
            raise_sample_error(error, len(checked))
        return outputs

    def reset(self) -> None:
        """Return to the freshly constructed state (window zeroed)."""
        self._window = [0] * self.config.taps  # oldest sample first
        self._fill = 0

    def _run_block(self, values: list[int]) -> list[int]:
        """Outputs for in-range int samples, by one packed product."""
        if not values:
            return []
        taps = self.config.taps
        stream = self._window[1:] + values
        product = _pack(stream, self._width) * self._packed_weights
        accumulators = _unpack(
            product, self._width, len(stream) + taps - 1, taps - 1, len(values)
        )
        self._window = stream[-taps:]
        self._fill = min(taps, self._fill + len(values))
        return _normalize(self.config, accumulators)


def _normalize(config: FilterConfig, accumulators: Iterable[int]) -> list[int]:
    """The output mode's step over exact weighted sums."""
    weights = config.weights
    if config.mode == MODE_NORMALIZED:
        raw_sum = weights.raw_sum
        return [acc // raw_sum for acc in accumulators]
    shift = weights.qformat.frac_bits
    # the largest sum that still shifts down to max_raw; larger sums saturate
    limit = ((config.sample_format.max_raw + 1) << shift) - 1
    return [(acc if acc <= limit else limit) >> shift for acc in accumulators]


# array typecode per item size in bytes (1, 2, 4 and 8 on common platforms)
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _field_bytes(config: FilterConfig) -> int:
    """Field width F in bytes such that no convolution term reaches 2**(8F).

    A term is sum(w[i] * s[k - i]) <= max_raw * raw_sum, as all operands are
    non-negative.  F is rounded up to an array item size where one exists.
    """
    bound = config.sample_format.max_raw * config.weights.raw_sum
    need = max(1, -(-bound.bit_length() // 8))
    return min((size for size in _ARRAY_CODES if size >= need), default=need)


def _pack(values: Sequence[int], width: int) -> int:
    """One int whose ``width``-byte fields hold ``values``, in native byte order.

    Packing and unpacking use the same order, so field k of a product of
    packed ints is read back at field k whatever the platform's endianness.
    """
    code = _ARRAY_CODES.get(width)
    if code is not None:
        return int.from_bytes(array(code, values), sys.byteorder)
    return int.from_bytes(
        b"".join(v.to_bytes(width, sys.byteorder) for v in values), sys.byteorder
    )


def _unpack(packed: int, width: int, fields: int, start: int, count: int):
    """Fields ``start .. start + count - 1`` of an int of ``fields`` fields."""
    data = memoryview(packed.to_bytes(fields * width, sys.byteorder))
    data = data[start * width : (start + count) * width]
    code = _ARRAY_CODES.get(width)
    if code is not None:
        accumulators = array(code)
        accumulators.frombytes(data)
        return accumulators
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

