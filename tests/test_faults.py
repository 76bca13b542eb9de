"""Fault reports checked against their documented guarantees and the oracle."""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.core import MODE_NORMALIZED, MODE_RAW, GammaWindowFilter, make_config
from gdswu.faults import FAULT_KINDS, FaultSpec, attenuation_report, inject, sweep
from strategies import configs, oracle, streams


@st.composite
def faulted_streams(draw, config=None):
    config = config or draw(configs())
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
    assert report["bound_satisfied"]
    assert report["max_output_deviation"] <= report["analytic_bound"]
    assert spec.end <= report["recovery_index"] <= spec.end + config.taps - 1
    clean, faulty = oracle(config, stream), oracle(config, inject(stream, spec))
    assert report["max_output_deviation"] == max(abs(a - b) for a, b in zip(clean, faulty))


@settings(max_examples=20, deadline=None)
@given(case=faulted_streams())
def test_sweep_entries_are_the_reports_of_their_specs(case):
    config, stream, spec = case
    other = FaultSpec("dropout", 0)
    result = sweep([spec, other], config, [stream])
    for entry, each in zip(result["reports"], (spec, other)):
        assert entry["spec"] == vars(each)
        assert entry == attenuation_report(stream, each, config)
    deviations = [e["max_output_deviation"] for e in result["reports"]]
    assert result["aggregate"]["count"] == 2
    assert result["aggregate"]["max_deviation"] == max(deviations)
    assert result["aggregate"]["all_bounds_satisfied"] is True


class Index:
    """An integer only through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_a_spec_stores_the_ints_it_checked():
    config, stream = make_config(taps=4), [5, 9, 7, 3, 100, 0, 64, 127]
    spec = FaultSpec("spike", Index(2), Index(3), Index(100))
    assert spec == FaultSpec("spike", 2, 3, 100)
    assert [type(v) for v in vars(spec).values()] == [str, int, int, int]
    assert sweep([spec], config, [stream]) == sweep([FaultSpec("spike", 2, 3, 100)], config, [stream])
    report = sweep([FaultSpec("stuck", True)], config, [stream])["reports"][0]
    assert json.dumps(report["spec"]) == '{"kind": "stuck", "start": 1, "duration": 1, "magnitude": 0}'


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_analytic_bound_is_within_two_of_a_full_scale_stuck_fault(data):
    # On a zero stream the faulty window sum peaks at the k largest weights
    # times the level (the gamma weights are unimodal, so they are adjacent),
    # and the bound adds 1 to the ceiling of what the output floors.
    config = data.draw(configs())
    top = config.sample_format.max_raw
    duration = data.draw(st.integers(1, config.taps + 3))
    after = data.draw(st.integers(config.taps, 2 * config.taps))
    spec = FaultSpec("stuck", config.taps, duration, top)
    report = attenuation_report([0] * (spec.end + after), spec, config)
    slack = report["analytic_bound"] - report["max_output_deviation"]
    w = config.weights
    peak = sum(sorted(w.raw, reverse=True)[:min(duration, config.taps)]) * top
    if config.mode == MODE_RAW and peak >> w.qformat.frac_bits > top:
        assert slack >= 1  # the output saturates, so the bound is loose
    else:
        assert slack in (1, 2)


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
    assert report == {"spec": vars(spec), **expected_report(config, stream, spec)}
    assert sweep([spec], config, [stream])["reports"][0] == report


@st.composite
def swept_streams(draw, min_specs=2, max_specs=4):
    """A config, one stream and specs anywhere on it, from index 0 to the
    last sample."""
    config = draw(configs())
    stream = draw(streams(config, min_size=1))
    n = len(stream)
    edge = st.sampled_from((0, n - 1))
    specs = []
    for _ in range(draw(st.integers(min_specs, max_specs))):
        start = draw(st.one_of(edge, st.integers(0, n - 1)))
        specs.append(FaultSpec(
            kind=draw(st.sampled_from(FAULT_KINDS)),
            start=start,
            duration=draw(st.integers(1, n - start)),
            magnitude=draw(st.integers(0, config.sample_format.max_raw)),
        ))
    return config, stream, specs


@settings(max_examples=80, deadline=None)
@given(case=swept_streams())
def test_a_sweep_over_one_stream_equals_the_full_stream_oracle(case):
    config, stream, specs = case
    assert sweep(specs, config, [stream])["reports"] == [
        {"spec": vars(spec), **expected_report(config, stream, spec)} for spec in specs
    ]


@settings(max_examples=40, deadline=None)
@given(case=swept_streams(min_specs=1, max_specs=5))
def test_the_sweep_aggregate_summarizes_its_reports(case):
    config, stream, specs = case
    result = sweep(specs, config, [stream])
    deviations = [r["max_output_deviation"] for r in result["reports"]]
    slacks = [r["analytic_bound"] - r["max_output_deviation"] for r in result["reports"]]
    assert result["aggregate"] == {
        "count": len(specs),
        "min_deviation": min(deviations),
        "max_deviation": max(deviations),
        "mean_deviation": sum(deviations) / len(deviations),
        "worst_bound_slack": min(slacks),
        "all_bounds_satisfied": all(r["bound_satisfied"] for r in result["reports"]),
    }


def test_an_empty_sweep_has_an_empty_aggregate():
    assert sweep([], make_config(taps=4), [[1, 2, 3]]) == {
        "reports": [],
        "aggregate": {
            "count": 0,
            "min_deviation": None,
            "max_deviation": None,
            "mean_deviation": None,
            "worst_bound_slack": None,
            "all_bounds_satisfied": True,
        },
    }


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


def test_sweep_checks_the_level_of_each_spec_on_a_shared_stream():
    config = make_config(taps=4)
    stream = _stream_with(0, 0)
    specs = [FaultSpec("spike", 3, 2, 100), FaultSpec("stuck", 200, 1, 128)]
    _raises(lambda: sweep(specs, config, [stream]),
            ValueError, "sample 200: sample 128 out of range 0..127")


def test_sweep_raises_the_first_failing_spec_error():
    config = make_config(taps=4)
    stream = _stream_with(250, 200)
    specs = [FaultSpec("spike", 0), FaultSpec("spike", 299, 2)]
    _raises(lambda: sweep(specs, config, [stream]),
            ValueError, "sample 250: sample 200 out of range 0..127")
    _raises(lambda: sweep(specs[::-1], config, [stream]),
            ValueError, "fault window [299, 301) exceeds stream length 300")


@pytest.mark.parametrize("count", [0, 2])
def test_a_sweep_takes_exactly_one_stream(count):
    stream = _stream_with(0, 0)
    for specs in ([], [FaultSpec("spike", 0)]):
        _raises(lambda: sweep(specs, make_config(taps=4), [stream] * count),
                ValueError, f"need exactly 1 stream, got {count}")


SWEEP_SPECS = [FaultSpec(FAULT_KINDS[i % 3], 20 * i, 1 + i % 4, 9 * i) for i in range(12)]


def _sweep_counting_runs(specs, stream):
    """The sweep, the length of the block each filter run was given, and
    the number of kernel calls.

    A stream's samples are checked by the run over the whole stream (300
    samples); one more run takes every spec's faulty span, each led by the
    7 samples before the fault and followed by at most 7 after it.
    """
    lengths, kernel_calls = [], []
    real_run, real_kernel = GammaWindowFilter.run, GammaWindowFilter._run_block

    def counting(self, samples):
        samples = list(samples)
        lengths.append(len(samples))
        return real_run(self, samples)

    def counting_kernel(self, samples):
        kernel_calls.append(None)
        return real_kernel(self, samples)

    with (mock.patch.object(GammaWindowFilter, "run", counting),
          mock.patch.object(GammaWindowFilter, "_run_block", counting_kernel)):
        result = sweep(specs, make_config(taps=8), [stream])
    return lengths, len(kernel_calls), result


def test_a_sweep_checks_one_shared_stream_once():
    lengths, kernel_calls, result = _sweep_counting_runs(SWEEP_SPECS, _stream_with(0, 0))
    assert result["aggregate"]["count"] == 12
    spans = sum(7 + spec.duration + 7 for spec in SWEEP_SPECS)
    assert (lengths, kernel_calls) == ([300, spans], 2)


def test_a_sweep_reads_a_shared_iterator_once():
    config = make_config(taps=8)
    stream = _stream_with(0, 0)
    assert sweep(SWEEP_SPECS, config, [iter(stream)]) == sweep(SWEEP_SPECS, config, [stream])
