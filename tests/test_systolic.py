"""Differential tests of the tree and chain pipeline models.

Both models emit the filter's outputs, which equal ``oracle_exact``.  The
first output appears on tick ``latency``, and every cycle in which every
stage is busy counts ``taps`` multiplies, ``taps - 1`` adds and one
normalize.  Every ``CycleReport`` field matches the frozen tick models in
``reference_systolic``, idle ticks mid-stream included: those a per-tick
view carries, and the inputs and ops read off the trace's columns, runs and
plan.
"""

from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.core import GammaWindowFilter, make_config
from gdswu.systolic import ARCHITECTURES, build_pipeline, run_pipeline
from reference_systolic import build_reference, expand_trace, run_reference
from strategies import configs, oracle, streams

REPORT_FIELDS = ("cycle", "consumed_input", "emitted_output", "ops", "stage_occupancy",
                 "total_ops")
# the fields a package view carries
view_fields = attrgetter("cycle", "emitted_output", "stage_occupancy", "total_ops")


def fields(report):
    return tuple(getattr(report, name) for name in REPORT_FIELDS)


def trace_fields(trace):
    """The ``fields`` of each tick of a package trace, read by
    ``expand_trace``; the trace's per-tick views must agree with them."""
    reports = expand_trace(trace)
    assert list(map(view_fields, trace)) == list(map(view_fields, reports))
    return list(map(fields, reports))


def gappy_streams(config, max_size=80):
    """Ticks of a stream with idle (None) ticks anywhere in it."""
    top = config.sample_format.max_raw
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    return st.lists(st.one_of(value, value, st.none()), max_size=max_size)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_tick_matches_the_reference_models(data):
    config = data.draw(configs())
    architecture = data.draw(st.sampled_from(ARCHITECTURES))
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    ticks = data.draw(gappy_streams(config)) + [None] * (model.latency + 1)
    for sample in ticks:
        trace = model.clock([sample])
        (output,), (report,) = trace.outputs, trace_fields(trace)
        want_output, want = reference.tick(sample)
        assert output == want_output
        assert report == fields(want)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_gappy_stream_in_one_block_matches_the_reference_models(data):
    config = data.draw(configs())
    architecture = data.draw(st.sampled_from(ARCHITECTURES))
    stream = data.draw(gappy_streams(config))
    outputs, reports = run_pipeline(build_pipeline(config, architecture), stream)
    reference = build_reference(config, architecture)
    drain = len(reports) - len(stream)
    want = [reference.tick(sample) for sample in stream + [None] * drain]
    assert trace_fields(reports) == [fields(report) for _, report in want]
    assert outputs == [output for output, _ in want if output is not None]
    # the drain stops on the tick that emits the last output
    assert len(outputs) == len(stream) - stream.count(None)
    assert drain >= 0 and (drain == 0 or next(reversed(reports)).emitted_output is not None)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("taps", [1, 2, 16])
def test_busy_stretches_between_idle_ticks_match_the_reference_models(taps, architecture):
    # each stretch fills every stage and runs on, so clock jumps over it
    config = make_config(taps=taps)
    stream = ([5] * 20 + [None]) * 3 + [7] * 3
    _, reports = run_pipeline(build_pipeline(config, architecture), stream)
    reference = build_reference(config, architecture)
    drain = len(reports) - len(stream)
    want = [reference.tick(sample)[1] for sample in stream + [None] * drain]
    assert trace_fields(reports) == list(map(fields, want))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_pipeline_matches_the_reference_models(data):
    config = data.draw(configs())
    stream = data.draw(streams(config))
    for architecture in ARCHITECTURES:
        outputs, reports = run_pipeline(build_pipeline(config, architecture), stream)
        want_outputs, want = run_reference(build_reference(config, architecture), stream)
        assert outputs == want_outputs
        assert trace_fields(reports) == list(map(fields, want))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tree_chain_filter_and_oracle_agree(data):
    config = data.draw(configs())
    stream = data.draw(streams(config))
    want = oracle(config, stream)
    assert GammaWindowFilter(config).run(stream) == want
    for architecture in ARCHITECTURES:
        outputs, _ = run_pipeline(build_pipeline(config, architecture), stream)
        assert outputs == want


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_first_output_on_tick_latency(data):
    config = data.draw(configs())
    stream = data.draw(streams(config, min_size=1))
    for architecture in ARCHITECTURES:
        model = build_pipeline(config, architecture)
        _, reports = run_pipeline(model, stream)
        first = next(r.cycle for r in reports if r.emitted_output is not None)
        assert first == model.latency
        assert len(reports) == len(stream) + model.latency - 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_busy_cycle_counts_one_full_window(data):
    config = data.draw(configs())
    stream = data.draw(streams(config))
    taps = config.taps
    for architecture in ARCHITECTURES:
        model = build_pipeline(config, architecture)
        _, trace = run_pipeline(model, stream)
        assert all(len(r.stage_occupancy) == model.latency for r in trace)
        busy = [(view, report) for view, report in zip(trace, expand_trace(trace))
                if all(view.stage_occupancy)]
        assert len(busy) == max(0, len(stream) - model.latency + 1)
        for view, report in busy:
            assert report.ops == {"multiply": taps, "add": taps - 1, "normalize": 1}
            assert view.total_ops == report.total_ops == 2 * taps


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_tick_rejects_a_bad_sample_and_clocks_nothing(architecture):
    config = make_config(taps=4)
    model = build_pipeline(config, architecture)
    with pytest.raises(ValueError, match=r"^sample 300 out of range 0\.\.127$"):
        run_pipeline(model, [300, 1000, -5, 2])
    for bad, error in ((128, ValueError), (-1, ValueError), (2.5, TypeError), ("3", TypeError)):
        with pytest.raises(error):
            model.clock([bad])
    stream = [3, 127, 0, 64, 5]
    outputs, reports = run_pipeline(model, stream)
    assert next(iter(reports)).cycle == 1
    assert outputs == GammaWindowFilter(config).run(stream)
    trace = model.clock([None])
    (output,), (idle,) = trace.outputs, expand_trace(trace)
    assert (output, idle.consumed_input, idle.cycle) == (None, None, len(reports) + 1)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("bad, error, message", [
    (300, ValueError, r"^sample 300 out of range 0\.\.127$"),
    ("7", TypeError, None),
])
def test_a_bad_sample_mid_stream_consumes_the_prefix(architecture, bad, error, message):
    config = make_config(taps=4)
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    prefix = [3, 127, 0, 64, 5]
    with pytest.raises(error, match=message):
        run_pipeline(model, [*prefix, bad, 9, 11])
    for sample in prefix:
        reference.tick(sample)
    cycles = []
    for _ in range(model.latency + 1):
        trace = model.clock([None])
        (output,), (report,) = trace.outputs, trace
        want_output, want = reference.tick(None)
        assert output == want_output
        assert trace_fields(trace) == [fields(want)]
        cycles.append(report.cycle)
    assert cycles[0] == len(prefix) + 1


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError, match="unknown architecture 'ring'"):
        build_pipeline(make_config(), "ring")
