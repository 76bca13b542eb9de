"""Differential tests of the filter's block kernel against ``oracle_exact``.

``GammaWindowFilter.run`` computes a whole block with one packed integer
product.  It must be bit-equal to the independent oracle for every
configuration, every chunking of the stream (blocks of one sample included)
and every interleaving of runs, rejected runs included.  The state a call
leaves behind is checked by a probe run: the filter must then answer any
further block as a filter fed the same samples does.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import gdswu.core
from gdswu.core import (
    MODE_NORMALIZED,
    MODE_RAW,
    MODES,
    GammaWindowFilter,
    _field_bytes,
    _scale,
    _sum_bytes,
    check_sample,
    make_config,
)
from gdswu.faults import FaultSpec, sweep
from gdswu.fixed_point import ROUNDING_MODES
from gdswu.oracle import oracle_exact
from gdswu.systolic import ARCHITECTURES, build_pipeline, run_pipeline

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# 7 bits is the unit's own width (4-byte scaled fields in normalized mode
# and 2-byte ones in raw mode, at 7 weight bits), packed as bytes; 12 and
# 20 bits pack as 4-byte array items, 60 and 64 bits as 8-byte ones, whose
# scaled fields are over 8 bytes.
SAMPLE_BITS = (7, 12, 20, 60, 64)


def _config(taps, mode, rounding, sample_int_bits, a=2, b=5.0, frac_bits=7):
    try:
        return make_config(
            a=a,
            b=b,
            taps=taps,
            frac_bits=frac_bits,
            rounding=rounding,
            mode=mode,
            sample_int_bits=sample_int_bits,
        )
    except ValueError:
        assume(False)


@st.composite
def configs(draw):
    return _config(
        taps=draw(st.integers(1, 64)),
        mode=draw(st.sampled_from(MODES)),
        rounding=draw(st.sampled_from(ROUNDING_MODES)),
        sample_int_bits=draw(st.sampled_from(SAMPLE_BITS)),
        a=draw(st.integers(1, 6)),
        b=draw(st.floats(0.5, 20.0)),
        frac_bits=draw(st.integers(4, 14)),
    )


def samples_for(config, max_size=120, min_size=0):
    """Streams biased towards 0 and full scale, where carries would show."""
    top = config.sample_format.max_raw
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    return st.lists(value, min_size=min_size, max_size=max_size)


def oracle(config, stream):
    w = config.weights
    return oracle_exact(
        stream, w.raw, w.raw_sum, config.mode, w.qformat.frac_bits,
        config.sample_format.max_raw,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_equals_oracle(data):
    config = data.draw(configs())
    stream = data.draw(samples_for(config))
    assert GammaWindowFilter(config).run(stream) == oracle(config, stream)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chunked_run_equals_one_shot(data):
    config = data.draw(configs())
    stream = data.draw(samples_for(config))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    probe = data.draw(samples_for(config, min_size=1, max_size=70))
    filt = GammaWindowFilter(config)
    chunked = []
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        chunked += filt.run(stream[lo:hi])
    one_shot = GammaWindowFilter(config)
    assert chunked == one_shot.run(stream)
    assert filt.run(probe) == one_shot.run(probe)


# (normalized, raw-accumulate) widths: a scaled field holds the scaled bound
# max_raw * raw_sum * m and the byte s // 8 where the output starts; a
# product field holds the bound max_raw * raw_sum, and is as wide as the
# scaled one where m folds into the weights.  At 1 bit and 32 taps the sums
# fit 1 byte but the output starts in byte 1, so they are widened.
@pytest.mark.parametrize(
    "sample_int_bits, frac_bits, taps, widths, sums",
    [
        (1, 4, 8, (2, 2), (2, 2)),
        (7, 7, 16, (4, 2), (2, 2)),
        (7, 12, 64, (8, 4), (3, 3)),
        (20, 12, 64, (9, 8), (5, 5)),
        (60, 7, 16, (18, 9), (9, 9)),
        (64, 14, 64, (20, 11), (10, 10)),
        (1, 4, 32, (2, 2), (1, 1)),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_full_scale_stream_fills_every_field_without_carry(
    sample_int_bits, frac_bits, taps, widths, sums, mode
):
    # A full-scale stream drives every sum to its bound max_raw * raw_sum.
    config = make_config(
        a=1, b=8.0, taps=taps, frac_bits=frac_bits, mode=mode,
        sample_int_bits=sample_int_bits,
    )
    assert _field_bytes(config) == widths[MODES.index(mode)]
    assert _sum_bytes(config) == sums[MODES.index(mode)]
    top = config.sample_format.max_raw
    stream = [top] * (3 * taps) + [0, top, 1, top - 1] * taps
    assert GammaWindowFilter(config).run(stream) == oracle(config, stream)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "sample_int_bits, frac_bits, taps, widths",
    [(1, 4, 8, (2, 2)), (64, 14, 64, (20, 11))],
    ids=["narrowest", "widest"],
)
def test_the_largest_sum_and_the_one_below_it(sample_int_bits, frac_bits, taps, widths, mode):
    # The last output's window sums to N = max_raw * raw_sum, then to N - 1
    # with one sample lowered by 1 under a weight of 1.
    config = make_config(
        a=1, b=8.0, taps=taps, frac_bits=frac_bits, mode=mode,
        sample_int_bits=sample_int_bits,
    )
    assert _field_bytes(config) == widths[MODES.index(mode)]
    top, raw = config.sample_format.max_raw, config.weights.raw
    full = [top] * (2 * taps)
    below = list(full)
    below[-1 - raw.index(1)] = top - 1
    bound = top * config.weights.raw_sum
    for stream, total in ((full, bound), (below, bound - 1)):
        assert sum(w * x for w, x in zip(raw, reversed(stream))) == total
        assert GammaWindowFilter(config).run(stream) == oracle(config, stream)


@pytest.mark.parametrize("frac_bits, width", [(4, 2), (60, 9)])
def test_the_output_byte_lies_inside_a_field_whose_sums_fit_below_it(frac_bits, width):
    # 1-bit samples, 8 taps, raw mode: every sum is below 2**frac_bits, so
    # every output is 0 and every scaled sum fits below byte s // 8, the
    # byte the output is read from; the field still holds that byte.  At
    # frac_bits 4 the scaled sums fit 1 byte, at 60 they fit 8.
    config = make_config(
        a=1, b=8.0, taps=8, frac_bits=frac_bits, mode=MODE_RAW, sample_int_bits=1
    )
    multiplier, shift = _scale(config)
    assert config.weights.raw_sum < 1 << frac_bits
    assert (config.weights.raw_sum * multiplier).bit_length() <= shift
    assert _field_bytes(config) == width == shift // 8 + 1
    stream = [1] * 20 + [0, 1, 1, 0] * 5
    assert GammaWindowFilter(config).run(stream) == oracle(config, stream) == [0] * 40


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_multiply_and_shift_is_the_floor_division_at_every_quotient_edge(data):
    config = data.draw(configs())
    w = config.weights
    divisor = w.raw_sum if config.mode == MODE_NORMALIZED else 1 << w.qformat.frac_bits
    bound = config.sample_format.max_raw * w.raw_sum
    multiplier, shift = _scale(config)
    assert shift % 8 == 0
    quotients = st.integers(0, bound // divisor)
    for q in data.draw(st.lists(quotients, min_size=1, max_size=50)) + [0, bound // divisor]:
        for a in (q * divisor - 1, q * divisor, q * divisor + divisor - 1, bound - 1, bound):
            if 0 <= a <= bound:
                assert (a * multiplier) >> shift == a // divisor


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_out_of_range_sample_mid_block_consumes_the_valid_prefix(data):
    config = data.draw(configs())
    top = config.sample_format.max_raw
    prefix = data.draw(samples_for(config, max_size=40))
    bad = data.draw(st.sampled_from((top + 1, -1)))
    suffix = data.draw(samples_for(config, max_size=10))
    probe = data.draw(samples_for(config, min_size=1, max_size=70))

    block = GammaWindowFilter(config)
    with pytest.raises(ValueError) as info:
        block.run(prefix + [bad] + suffix)
    assert str(info.value) == (
        f"sample {len(prefix)}: sample {bad} out of range 0..{top}"
    )
    one_by_one = GammaWindowFilter(config)
    for sample in prefix:
        one_by_one.run([sample])
    assert block.run(probe) == one_by_one.run(probe)


def test_non_integer_sample_mid_block_raises_type_error_after_prefix():
    config = make_config()
    block = GammaWindowFilter(config)
    with pytest.raises(TypeError):
        block.run([5, 6, 7.5, 8])
    pushed = GammaWindowFilter(config)
    pushed.run([5, 6])
    assert block.run([1, 2, 3]) == pushed.run([1, 2, 3])


class Index:
    """A sample that is an int only through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# samples packed as bytes into product fields of 4 and 2 bytes, and as
# array items of 4 bytes into 3-byte fields and of 8 bytes into 10-byte ones
CHECK_CONFIGS = {
    "normalized": make_config(taps=4),
    "raw": make_config(taps=4, mode=MODE_RAW),
    "12-bit": make_config(taps=4, sample_int_bits=12),
    "64-bit": make_config(taps=4, frac_bits=14, sample_int_bits=64),
}


def bad_samples(config):
    """Samples ``check_sample`` rejects.  256 is the first value ``bytes``
    refuses.  The packers take an int above max_raw that fits an item, by
    ``__index__`` too, which a ``translate`` test must then reject; and, for
    4-byte items in 3-byte fields, 2**(8 * 3) and one more, whose low bytes
    are in range and whose high byte the fields drop."""
    top = config.sample_format.max_raw
    dropped = 1 << 8 * _sum_bytes(config)
    bad = [1.5, "3", -1, 256, dropped, dropped + 1, 2**32, 2**64, Index(-2), top + 1,
           Index(top + 1), (1 << 8 * _field_bytes(config)) - 1]
    return [x for x in bad if not (type(x) is int and 0 <= x <= top)]


def check_error(sample, top):
    try:
        check_sample(sample, top)
    except (TypeError, ValueError) as exc:
        return exc
    raise AssertionError(f"{sample!r} is a valid sample")


def raises_as(kind, message, call):
    with pytest.raises(Exception) as info:
        call()
    assert (info.type, str(info.value)) == (kind, message)


PREFIX = [127, 0, 1, 126, 7]


@pytest.mark.parametrize("at", [0, 3, 5])
@pytest.mark.parametrize("name", CHECK_CONFIGS)
def test_run_keeps_the_message_and_the_prefix_of_check_sample(name, at):
    config = CHECK_CONFIGS[name]
    top = config.sample_format.max_raw
    for bad in bad_samples(config) + [None]:
        error = check_error(bad, top)
        message = f"sample {at}: {error}" if type(error) is ValueError else str(error)
        filt = GammaWindowFilter(config)
        raises_as(type(error), message, lambda: filt.run(PREFIX[:at] + [bad, 3]))
        fed = GammaWindowFilter(config)
        fed.run(PREFIX[:at])
        assert filt.run(PREFIX) == fed.run(PREFIX)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("name", CHECK_CONFIGS)
def test_clock_keeps_the_message_and_the_prefix_of_check_sample(name, architecture):
    config = CHECK_CONFIGS[name]
    top = config.sample_format.max_raw
    for bad in bad_samples(config):
        error = check_error(bad, top)
        model = build_pipeline(config, architecture)
        raises_as(type(error), str(error), lambda: model.clock([5, None, *PREFIX, bad, 3]))
        fed = build_pipeline(config, architecture)
        fed.clock([5, None, *PREFIX])
        got, want = run_pipeline(model, PREFIX)[1], run_pipeline(fed, PREFIX)[1]
        assert (got.first_cycle, got.inputs, got.outputs, got.runs) == (
            want.first_cycle, want.inputs, want.outputs, want.runs)


@pytest.mark.parametrize("name", CHECK_CONFIGS)
def test_sweep_keeps_the_message_of_check_sample(name):
    config = CHECK_CONFIGS[name]
    top = config.sample_format.max_raw
    specs = [FaultSpec("spike", 2, 1, top), FaultSpec("dropout", 40)]
    for bad in bad_samples(config) + [None]:
        error = check_error(bad, top)
        stream = [top] * 50
        stream[30] = bad
        message = f"sample 30: {error}" if type(error) is ValueError else str(error)
        raises_as(type(error), message, lambda: sweep(specs, config, [stream]))


@pytest.mark.parametrize("name", CHECK_CONFIGS)
def test_an_index_sample_in_range_is_its_int(name):
    config = CHECK_CONFIGS[name]
    stream = [config.sample_format.max_raw, 0, 5, 1, 9]
    assert GammaWindowFilter(config).run(map(Index, stream)) == oracle(config, stream)


def test_neither_run_nor_push_calls_mac_exact(monkeypatch):
    calls = []
    real = gdswu.core.mac_exact

    def counting(samples, weights):
        calls.append(len(samples))
        return real(samples, weights)

    monkeypatch.setattr(gdswu.core, "mac_exact", counting)
    filt = GammaWindowFilter(make_config())
    filt.run(list(range(40)))
    filt.run([3])
    assert calls == []


def test_importing_the_package_does_not_import_numpy():
    code = "import gdswu, sys; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


class PushRunReset(RuleBasedStateMachine):
    """Any interleaving of one-sample runs, block runs and rejected
    one-sample runs matches the oracle on the samples fed."""

    @initialize(
        taps=st.integers(1, 40),
        mode=st.sampled_from(MODES),
        rounding=st.sampled_from(ROUNDING_MODES),
        sample_int_bits=st.sampled_from(SAMPLE_BITS),
    )
    def setup(self, taps, mode, rounding, sample_int_bits):
        self.config = _config(taps, mode, rounding, sample_int_bits)
        self.top = self.config.sample_format.max_raw
        self.filter = GammaWindowFilter(self.config)
        self.history = []
        self.outputs = []

    @rule(data=st.data())
    def run_one(self, data):
        sample = data.draw(st.integers(0, self.top))
        self.history.append(sample)
        self.outputs += self.filter.run([sample])

    @rule(data=st.data())
    def run(self, data):
        block = data.draw(samples_for(self.config, max_size=50))
        self.history += block
        self.outputs += self.filter.run(block)

    @rule(data=st.data())
    def run_one_bad(self, data):
        bad, error = data.draw(st.sampled_from((
            (self.top + 1, ValueError), (-1, ValueError), (2.5, TypeError), ("3", TypeError),
        )))
        with pytest.raises(error):
            self.filter.run([bad])

    @invariant()
    def matches_oracle(self):
        if hasattr(self, "filter"):
            assert self.outputs == oracle(self.config, self.history)


PushRunReset.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
TestPushRunReset = PushRunReset.TestCase
