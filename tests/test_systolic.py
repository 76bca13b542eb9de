"""Differential tests of the tree and chain pipeline models.

Both models emit the filter's outputs, which equal ``oracle_exact``.  The
first output appears on tick ``latency``, and every cycle in which every
stage is busy counts ``taps`` multiplies, ``taps - 1`` adds and one
normalize.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.core import GammaWindowFilter, make_config
from gdswu.systolic import ARCHITECTURES, build_pipeline, run_pipeline
from strategies import configs, oracle, streams


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
        _, reports = run_pipeline(model, stream)
        assert all(len(r.stage_occupancy) == model.latency for r in reports)
        busy = [r for r in reports if all(r.stage_occupancy)]
        assert len(busy) == max(0, len(stream) - model.latency + 1)
        for report in busy:
            assert report.ops == {"multiply": taps, "add": taps - 1, "normalize": 1}
            assert report.total_ops == 2 * taps


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_tick_rejects_a_bad_sample_and_clocks_nothing(architecture):
    config = make_config(taps=4)
    model = build_pipeline(config, architecture)
    with pytest.raises(ValueError, match=r"^sample 300 out of range 0\.\.127$"):
        run_pipeline(model, [300, 1000, -5, 2])
    for bad, error in ((128, ValueError), (-1, ValueError), (2.5, TypeError), ("3", TypeError)):
        with pytest.raises(error):
            model.tick(bad)
    stream = [3, 127, 0, 64, 5]
    outputs, reports = run_pipeline(model, stream)
    assert reports[0].cycle == 1
    assert outputs == GammaWindowFilter(config).run(stream)
    output, idle = model.tick(None)
    assert (output, idle.consumed_input, idle.cycle) == (None, None, len(reports) + 1)


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError, match="unknown architecture 'ring'"):
        build_pipeline(make_config(), "ring")
