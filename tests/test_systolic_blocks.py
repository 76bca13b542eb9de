"""Block splits of the pipeline models against the frozen tick models.

``SystolicPipeline.clock`` carries the filter's samples and the outputs in
flight from one block to the next, and ``pending`` reads the drain length
off the outputs in flight.  Any split of a gappy stream into blocks, a
rejected sample after an idle tick included, must give the reports of the
tick-by-tick models in ``reference_systolic``, and the drain must stop on
the tick that emits the last output.  So must the edges of a gapless
block, which the kernel's check passes straight to its product: an empty
block, a bad last sample, and bool and ``__index__`` samples.
"""

from operator import index
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.core import MODE_RAW, GammaWindowFilter, check_sample, make_config
from gdswu.systolic import ARCHITECTURES, build_pipeline
from reference_systolic import build_reference
from strategies import configs
from test_block_kernel import Index
from test_systolic import fields, gappy_streams, trace_fields


def bad_samples(config):
    """A sample ``clock`` rejects, with its error type and message, or None."""
    top = config.sample_format.max_raw
    bad = st.sampled_from((
        (top + 1, ValueError, rf"^sample {top + 1} out of range 0\.\.{top}$"),
        (-1, ValueError, rf"^sample -1 out of range 0\.\.{top}$"),
        (2.5, TypeError, None),
        ("3", TypeError, None),
    ))
    return st.one_of(st.none(), st.none(), bad)


def clock_and_compare(model, reference, ticks):
    reports = model.clock(ticks)
    outputs = reports.outputs
    want = [reference.tick(sample) for sample in ticks]
    assert outputs == [output for output, _ in want]
    assert trace_fields(reports) == [fields(report) for _, report in want]
    return outputs


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_split_into_blocks_matches_the_reference_models(data):
    config = data.draw(configs())
    architecture = data.draw(st.sampled_from(ARCHITECTURES))
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    for _ in range(data.draw(st.integers(0, 6))):
        block = data.draw(gappy_streams(config, max_size=40))
        bad = data.draw(bad_samples(config))
        if bad is None:
            clock_and_compare(model, reference, block)
            continue
        # the ticks before the bad sample are clocked, the idle one last
        prefix = block[:data.draw(st.integers(0, len(block)))] + [None]
        sample, error, message = bad
        with pytest.raises(error, match=message):
            model.clock(prefix + [sample] + block[len(prefix) - 1:])
        for tick in prefix:
            reference.tick(tick)
    drain = clock_and_compare(model, reference, [None] * model.pending)
    assert not drain or drain[-1] is not None
    assert all(reference.tick(None)[0] is None for _ in range(model.latency))


# A raw config whose largest sums saturate, so an empty product would reach
# the clamp's max() over no outputs.  7-bit samples pack as bytes, 12-bit
# ones as array items.
SATURATING = make_config(a=1, b=1.0, taps=4, frac_bits=3, mode=MODE_RAW)
GAPLESS_CONFIGS = {
    "raw-saturating": SATURATING,
    "normalized": make_config(taps=4),
    "12-bit": make_config(taps=4, sample_int_bits=12),
}


def drain_and_compare(model, reference):
    clock_and_compare(model, reference, [None] * model.pending)
    assert all(reference.tick(None)[0] is None for _ in range(model.latency))


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_an_empty_block_clocks_nothing(architecture):
    assert GammaWindowFilter(SATURATING)._saturates
    model = build_pipeline(SATURATING, architecture)
    reference = build_reference(SATURATING, architecture)
    for block in ([], [7, 127, 127, 127, 127, 127], [], [127] * 9, []):
        clock_and_compare(model, reference, block)
    drain_and_compare(model, reference)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("config", GAPLESS_CONFIGS.values(), ids=GAPLESS_CONFIGS)
def test_a_block_whose_only_idle_tick_is_its_last(config, architecture):
    top = config.sample_format.max_raw
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    for block in ([3, top, 0, 64, 5, None], [top] * 9 + [None], [9, 11, None]):
        clock_and_compare(model, reference, block)
    drain_and_compare(model, reference)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("config", GAPLESS_CONFIGS.values(), ids=GAPLESS_CONFIGS)
@pytest.mark.parametrize("bad", ["above", "3"])
def test_a_gapless_block_ending_in_a_bad_sample_clocks_its_prefix(config, architecture, bad):
    top = config.sample_format.max_raw
    bad = top + 1 if bad == "above" else bad
    with pytest.raises((TypeError, ValueError)) as want:
        check_sample(bad, top)
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    clock_and_compare(model, reference, [top, 1])
    prefix = [3, top, 0, 64, 5, top, top]
    with pytest.raises(want.type) as got:
        model.clock(prefix + [bad])
    assert str(got.value) == str(want.value)
    for sample in prefix:
        reference.tick(sample)
    clock_and_compare(model, reference, [top, 2, 0, 7])
    drain_and_compare(model, reference)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("config", GAPLESS_CONFIGS.values(), ids=GAPLESS_CONFIGS)
def test_a_gapless_block_of_bool_and_index_samples(config, architecture):
    top = config.sample_format.max_raw
    ints = [1, top, 0, 7, top, 1, 0, 7, 3]
    mixed = [True if x == 1 else False if x == 0 else Index(x) if x == 7 else x for x in ints]
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    for _ in range(2):
        trace = model.clock(mixed)
        assert all(got is sample for got, sample in zip(trace.inputs, mixed))
        want = [reference.tick(sample) for sample in ints]
        assert trace.outputs == [output for output, _ in want]
        # the inputs column holds the samples as given; the rest is the reference's
        assert [(c, index(x), *rest) for c, x, *rest in trace_fields(trace)] == [
            fields(report) for _, report in want
        ]
    drain_and_compare(model, reference)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("taps", [1, 4, 16])
def test_a_gapless_block_after_the_fill_is_one_busy_run(taps, architecture):
    # and the kernel packs each gapless block once
    config = make_config(taps=taps)
    model = build_pipeline(config, architecture)
    full, latency = model.plan.full, model.latency
    packs = []
    pack = GammaWindowFilter._pack

    def counting(kernel, values):
        packs.append(len(values))
        return pack(kernel, values)

    with mock.patch.object(GammaWindowFilter, "_pack", counting):
        fill = model.clock([127] * (latency + 5))
        busy = model.clock(list(range(40)))
    assert fill.runs == [((2 << k) - 1, 1) for k in range(latency)] + [(full, 5)]
    assert busy.runs == [(full, 40)]
    assert packs == [latency + 5, 40]
