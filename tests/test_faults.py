"""Fault reports checked against their documented guarantees and the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.core import MODE_NORMALIZED, make_config
from gdswu.faults import FAULT_KINDS, FaultSpec, attenuation_report, inject, sweep
from strategies import configs, oracle, streams


@st.composite
def faulted_streams(draw):
    config = draw(configs())
    stream = draw(streams(config, min_size=1))
    start = draw(st.integers(0, len(stream) - 1))
    spec = FaultSpec(
        kind=draw(st.sampled_from(FAULT_KINDS)),
        start=start,
        duration=draw(st.integers(1, len(stream) - start)),
        magnitude=draw(st.integers(0, config.sample_format.max_raw)),
    )
    return config, stream, spec


@settings(max_examples=80, deadline=None)
@given(case=faulted_streams())
def test_attenuation_report_keeps_its_bound_and_recovers_within_a_window(case):
    config, stream, spec = case
    report = attenuation_report(stream, spec, config)
    assert report.bound_satisfied
    assert report.max_output_deviation <= report.analytic_bound
    assert spec.end <= report.recovery_index <= spec.end + config.taps - 1
    clean, faulty = oracle(config, stream), oracle(config, inject(stream, spec))
    assert report.max_output_deviation == max(abs(a - b) for a, b in zip(clean, faulty))


@settings(max_examples=20, deadline=None)
@given(case=faulted_streams())
def test_sweep_entries_are_the_reports_of_their_specs(case):
    config, stream, spec = case
    other = FaultSpec("dropout", 0)
    result = sweep([spec, other], config, [stream])
    for entry, each in zip(result["reports"], (spec, other)):
        report = attenuation_report(stream, each, config)
        assert entry["spec"]["kind"] == each.kind
        assert entry["spec"]["start"] == each.start
        assert entry["spec"]["duration"] == each.duration
        assert entry["spec"]["magnitude"] == each.magnitude
        assert entry["max_output_deviation"] == report.max_output_deviation
        assert entry["analytic_bound"] == report.analytic_bound
        assert entry["recovery_index"] == report.recovery_index
        assert entry["bound_satisfied"] is report.bound_satisfied
    deviations = [e["max_output_deviation"] for e in result["reports"]]
    assert result["aggregate"]["count"] == 2
    assert result["aggregate"]["max_deviation"] == max(deviations)
    assert result["aggregate"]["all_bounds_satisfied"] is True


def expected_report(config, stream, spec):
    """The four report fields recomputed from full-stream oracle runs."""
    faulty = list(stream)
    faulty[spec.start:spec.end] = [spec.replacement_value] * spec.duration
    diffs = [abs(f - c) for f, c in zip(oracle(config, faulty), oracle(config, stream))]
    changed = [i for i, d in enumerate(diffs) if d]
    delta = max(abs(spec.replacement_value - s) for s in stream[spec.start:spec.end])
    w = config.weights
    top = sum(sorted(w.raw, reverse=True)[:min(spec.duration, config.taps)])
    divisor = w.raw_sum if config.mode == MODE_NORMALIZED else 1 << w.qformat.frac_bits
    bound = -(-top * delta // divisor) + 1
    return {
        "max_output_deviation": max(diffs),
        "analytic_bound": bound,
        "recovery_index": max(spec.end, changed[-1] + 1 if changed else 0),
        "bound_satisfied": max(diffs) <= bound,
    }


@st.composite
def long_faulted_streams(draw):
    """Streams of up to 400 samples, laid out as the samples before the
    fault, the fault and the samples after it.  Each side is drawn as 0
    (a fault at index 0, or ending on the last sample), short (often a
    stream shorter than the window) or long (the fault's reach is clipped
    by neither end)."""
    config = draw(configs())
    side = st.one_of(st.just(0), st.integers(0, config.taps), st.integers(0, 180))
    before = draw(side)
    duration = draw(st.one_of(st.integers(1, 8), st.integers(1, 40)))
    after = draw(side)
    size = before + duration + after
    stream = draw(streams(config, min_size=size, max_size=size))
    spec = FaultSpec(
        kind=draw(st.sampled_from(FAULT_KINDS)),
        start=before,
        duration=duration,
        magnitude=draw(st.integers(0, config.sample_format.max_raw)),
    )
    return config, stream, spec


@settings(max_examples=200, deadline=None)
@given(case=long_faulted_streams())
def test_attenuation_report_equals_the_full_stream_oracle(case):
    config, stream, spec = case
    report = attenuation_report(stream, spec, config)
    assert vars(report) == expected_report(config, stream, spec)
    entry = sweep([spec], config, [stream])["reports"][0]
    assert {k: entry[k] for k in vars(report)} == vars(report)


def _raises(call, kind, message):
    with pytest.raises(kind) as caught:
        call()
    assert caught.type is kind
    assert str(caught.value) == message


FLOAT_MESSAGE = "'float' object cannot be interpreted as an integer"


def _stream_with(index, value, length=300):
    stream = [(7 * i) % 128 for i in range(length)]
    stream[index] = value
    return stream


ERROR_CASES = [
    # a bad sample far outside the span a fault at 10 can reach, in stream coordinates
    (_stream_with(250, 200), FaultSpec("spike", 10, 2, 100),
     ValueError, "sample 250: sample 200 out of range 0..127"),
    (_stream_with(250, 1.5), FaultSpec("spike", 10, 2, 100), TypeError, FLOAT_MESSAGE),
    (_stream_with(0, -1), FaultSpec("dropout", 280), ValueError,
     "sample 0: sample -1 out of range 0..127"),
    # an out-of-range level is reported at the fault's first sample
    (_stream_with(0, 0), FaultSpec("stuck", 120, 3, 200),
     ValueError, "sample 120: sample 200 out of range 0..127"),
    # a bad stream sample wins over a bad level
    (_stream_with(290, 300), FaultSpec("spike", 10, 1, 200),
     ValueError, "sample 290: sample 300 out of range 0..127"),
    # a window overrun wins over a bad sample and a bad level
    (_stream_with(3, 1.5), FaultSpec("spike", 299, 2, 200),
     ValueError, "fault window [299, 301) exceeds stream length 300"),
]


@pytest.mark.parametrize("stream, spec, kind, message", ERROR_CASES)
def test_report_errors_name_stream_indices_in_a_fixed_order(stream, spec, kind, message):
    config = make_config(taps=4)
    _raises(lambda: attenuation_report(stream, spec, config), kind, message)
    _raises(lambda: sweep([spec, FaultSpec("dropout", 0)], config, [stream]), kind, message)
    _raises(lambda: sweep([spec, spec], config, [stream, stream]), kind, message)


def test_sweep_checks_the_level_of_each_spec_on_a_shared_stream():
    config = make_config(taps=4)
    stream = _stream_with(0, 0)
    specs = [FaultSpec("spike", 3, 2, 100), FaultSpec("stuck", 200, 1, 128)]
    _raises(lambda: sweep(specs, config, [stream]),
            ValueError, "sample 200: sample 128 out of range 0..127")


def test_sweep_raises_the_first_failing_spec_error():
    config = make_config(taps=4)
    bad_stream = _stream_with(250, 200)
    overrun = FaultSpec("spike", 9, 2)
    _raises(lambda: sweep([overrun, FaultSpec("spike", 0)], config, [[1] * 10, bad_stream]),
            ValueError, "fault window [9, 11) exceeds stream length 10")
    _raises(lambda: sweep([FaultSpec("spike", 0), overrun], config, [bad_stream, [1] * 10]),
            ValueError, "sample 250: sample 200 out of range 0..127")
