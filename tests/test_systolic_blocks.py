"""Block splits of the pipeline models against the frozen tick models.

``SystolicPipeline.clock`` carries the filter's samples and the outputs in
flight from one block to the next, and ``pending`` reads the drain length
off the outputs in flight.  Any split of a gappy stream into blocks, a
rejected sample after an idle tick included, must give the reports of the
tick-by-tick models in ``reference_systolic``, and the drain must stop on
the tick that emits the last output.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.systolic import ARCHITECTURES, build_pipeline
from reference_systolic import build_reference
from strategies import configs
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
