"""Differential tests of the filter's block kernel against ``oracle_exact``.

``GammaWindowFilter.run`` computes a whole block with one packed integer
product, and ``push`` is the same kernel over a block of one sample.  Both
must be bit-equal to the independent oracle for every configuration, every
chunking of the stream and every interleaving of push, run and reset.  The
state a call leaves behind is checked by a probe run: the filter must then
answer any further block as a filter fed the same samples does.
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
from gdswu.core import MODES, GammaWindowFilter, _field_bytes, make_config
from gdswu.fixed_point import ROUNDING_MODES
from gdswu.oracle import oracle_exact

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# 7 bits is the unit's own width (2-byte fields at 7 weight bits); 12 and 20
# bits need 4- and 8-byte fields; 60 and 64 bits need fields over 8 bytes.
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


@pytest.mark.parametrize(
    "sample_int_bits, frac_bits, taps, width",
    [
        (1, 4, 8, 1),
        (7, 7, 16, 2),
        (7, 12, 64, 4),
        (20, 12, 64, 8),
        (60, 7, 16, 9),
        (64, 14, 64, 10),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_full_scale_stream_fills_every_field_without_carry(
    sample_int_bits, frac_bits, taps, width, mode
):
    # A full-scale stream drives every sum to its bound max_raw * raw_sum.
    config = make_config(
        a=1, b=8.0, taps=taps, frac_bits=frac_bits, mode=mode,
        sample_int_bits=sample_int_bits,
    )
    assert _field_bytes(config) == width
    top = config.sample_format.max_raw
    stream = [top] * (3 * taps) + [0, top, 1, top - 1] * taps
    assert GammaWindowFilter(config).run(stream) == oracle(config, stream)


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
    pushed = GammaWindowFilter(config)
    for sample in prefix:
        pushed.push(sample)
    assert block.run(probe) == pushed.run(probe)


def test_non_integer_sample_mid_block_raises_type_error_after_prefix():
    config = make_config()
    block = GammaWindowFilter(config)
    with pytest.raises(TypeError):
        block.run([5, 6, 7.5, 8])
    pushed = GammaWindowFilter(config)
    pushed.run([5, 6])
    assert block.run([1, 2, 3]) == pushed.run([1, 2, 3])


def test_neither_run_nor_push_calls_mac_exact(monkeypatch):
    calls = []
    real = gdswu.core.mac_exact

    def counting(samples, weights):
        calls.append(len(samples))
        return real(samples, weights)

    monkeypatch.setattr(gdswu.core, "mac_exact", counting)
    filt = GammaWindowFilter(make_config())
    filt.run(list(range(40)))
    filt.push(3)
    assert calls == []


def test_importing_the_package_does_not_import_numpy():
    code = "import gdswu, sys; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


class PushRunReset(RuleBasedStateMachine):
    """Any interleaving of push, run and reset matches the oracle on the
    samples fed since the last reset."""

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
    def push(self, data):
        sample = data.draw(st.integers(0, self.top))
        self.history.append(sample)
        self.outputs.append(self.filter.push(sample))

    @rule(data=st.data())
    def run(self, data):
        block = data.draw(samples_for(self.config, max_size=50))
        self.history += block
        self.outputs += self.filter.run(block)

    @rule(data=st.data())
    def push_bad(self, data):
        bad, error = data.draw(st.sampled_from((
            (self.top + 1, ValueError), (-1, ValueError), (2.5, TypeError), ("3", TypeError),
        )))
        with pytest.raises(error):
            self.filter.push(bad)

    @rule()
    def reset(self):
        self.filter.reset()
        self.history = []
        self.outputs = []

    @invariant()
    def matches_oracle(self):
        if hasattr(self, "filter"):
            assert self.outputs == oracle(self.config, self.history)


PushRunReset.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
TestPushRunReset = PushRunReset.TestCase
