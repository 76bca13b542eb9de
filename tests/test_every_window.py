"""Every window of small configs, by de Bruijn streams.

An output depends only on the last ``taps`` samples.  A de Bruijn sequence
of order ``taps`` over 0..max_raw holds every window of ``taps`` samples
exactly once as a cyclic window; wrapped by its first ``taps - 1``
samples it holds each once as a window of the stream.  So a filter equal to
``oracle_exact`` on that stream is equal to it on every input of the
config: a proof by exhaustion, not a sample.  The configs cover both
modes, both roundings, weights of 1, 4, 7 and 9 fractional bits, sums
read by the fold and by the widen, and raw configs that saturate and that
cannot.
"""

from itertools import cycle

import pytest

from gdswu.core import MODE_RAW, MODES, GammaWindowFilter, _field_bytes, _sum_bytes, make_config
from gdswu.fixed_point import ROUNDING_MODES
from gdswu.systolic import ARCHITECTURES, build_pipeline, run_pipeline
from reference_systolic import build_reference, run_reference
from strategies import oracle


def de_bruijn(k, n):
    """The de Bruijn sequence of order n over 0..k-1, by the FKM algorithm
    (Fredricksen and Maiorana, 1978): the Lyndon words over 0..k-1 whose
    length divides n, concatenated in lexicographic order."""
    sequence, word = [], [-1]
    while word:
        word[-1] += 1
        if n % len(word) == 0:
            sequence += word
        period = len(word)
        while len(word) < n:
            word.append(word[-period])
        while word and word[-1] == k - 1:
            word.pop()
    return sequence


# (sample bits, taps), each with (max_raw + 1) ** taps windows; the 12-bit
# samples pack through an array, the others through bytes
SHAPES = ((1, 12), (2, 6), (3, 4), (4, 3), (8, 2), (12, 1))
FRAC_BITS = (1, 4, 7, 9)
CONFIGS = [
    make_config(a=1, b=2.0, taps=taps, frac_bits=frac_bits, rounding=rounding,
                mode=mode, sample_int_bits=bits)
    for bits, taps in SHAPES for frac_bits in FRAC_BITS
    for mode in MODES for rounding in ROUNDING_MODES
]


def wrapped(config):
    taps = config.taps
    sequence = de_bruijn(config.sample_format.max_raw + 1, taps)
    return sequence + sequence[: taps - 1]


def blocks(stream, taps):
    """``stream`` cut into blocks of 1, taps - 1, taps, taps + 1 and 333
    samples, in turn."""
    lo, sizes = 0, cycle([1, taps - 1, taps, taps + 1, 333])
    while lo < len(stream):
        size = next(sizes)
        yield stream[lo : lo + size]
        lo += size


@pytest.mark.parametrize("k, n", [(2, 12), (3, 4), (4, 3), (256, 2), (4096, 1)])
def test_a_wrapped_de_bruijn_stream_holds_every_window_once(k, n):
    stream = de_bruijn(k, n)
    assert len(stream) == k**n
    stream += stream[: n - 1]
    assert len({tuple(stream[i : i + n]) for i in range(len(stream) - n + 1)}) == k**n


def test_the_configs_read_by_both_paths_and_saturate_and_not():
    widened = [_sum_bytes(c) < _field_bytes(c) for c in CONFIGS]
    raw = [c for c in CONFIGS if c.mode == MODE_RAW]
    saturating = [c.weights.raw_sum > 1 << c.weights.qformat.frac_bits for c in raw]
    assert len(CONFIGS) >= 64
    assert any(widened) and not all(widened)
    assert any(saturating) and not all(saturating)


@pytest.mark.parametrize("config", CONFIGS)
def test_every_window_through_run_and_the_pipelines(config):
    stream = wrapped(config)
    want = oracle(config, stream)
    assert GammaWindowFilter(config).run(stream) == want
    filt = GammaWindowFilter(config)
    assert [y for block in blocks(stream, config.taps) for y in filt.run(block)] == want
    assert run_pipeline(build_pipeline(config, "tree"), stream)[0] == want
    # the chain with an idle tick, which clocks a 0, after every fifth sample
    gappy = [x for i, sample in enumerate(stream) for x in [sample] + [None] * (i % 5 == 4)]
    zeroed = [0 if x is None else x for x in gappy]
    busy = [y for x, y in zip(gappy, oracle(config, zeroed)) if x is not None]
    assert run_pipeline(build_pipeline(config, "chain"), gappy)[0] == busy


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("bits, taps", [s for s in SHAPES if s != (8, 2)])
def test_every_window_through_the_reference_models(bits, taps, architecture):
    # one config per shape; the 8-bit shape's 65,536 ticks would take the
    # tick-by-tick models over a second
    config = make_config(a=1, b=2.0, taps=taps, frac_bits=4, mode=MODE_RAW, sample_int_bits=bits)
    stream = wrapped(config)
    want = run_reference(build_reference(config, architecture), stream)[0]
    assert run_pipeline(build_pipeline(config, architecture), stream)[0] == want
