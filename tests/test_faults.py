"""Fault reports checked against their documented guarantees and the oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
