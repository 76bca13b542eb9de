"""The exact oracle against the unquantized double-precision filter."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.oracle import ComparisonReport, compare, oracle_real, quantization_error_bound
from strategies import configs, oracle, streams


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_oracle_stays_within_the_quantization_bound_of_the_real_one(data):
    config = data.draw(configs())
    stream = data.draw(streams(config))
    weights, top = config.weights, config.sample_format.max_raw
    real = oracle_real(
        stream, config.params, config.taps, config.mode, top, weights.sample_offset
    )
    bound = quantization_error_bound(weights, config.mode, top)
    report = compare(oracle(config, stream), real, bound)
    assert report.mismatch_count == 0
    assert report.first_mismatch_index is None
    assert report.max_abs_error <= bound


def test_compare_counts_errors_over_the_bound_from_the_first_index():
    report = compare([1, 5, 2, 9.5], [1, 3, 2, 8], 1.0)
    assert (report.mismatch_count, report.first_mismatch_index) == (2, 1)
    assert (report.max_abs_error, report.bound_used) == (2, 1.0)
    assert compare([1, 2], [1, 3], 1.0).mismatch_count == 0  # an error at the bound passes


@pytest.mark.parametrize("nan_at", [0, 1])
def test_compare_counts_a_nan_output_as_a_mismatch(nan_at):
    got = [1.0, 2.0]
    got[nan_at] = math.nan
    report = compare(got, [1, 2], 1.0)
    assert (report.mismatch_count, report.first_mismatch_index) == (1, nan_at)


def test_compare_refuses_outputs_of_different_lengths():
    with pytest.raises(ValueError) as caught:
        compare([1, 2, 3], [1, 2], 1.0)
    assert str(caught.value) == "length mismatch: 3 vs 2 outputs"


@pytest.mark.parametrize("count, first", [(0, 3), (2, None)])
def test_a_comparison_report_needs_a_first_index_exactly_when_it_has_mismatches(
    count, first
):
    with pytest.raises(ValueError) as caught:
        ComparisonReport(0.0, count, first, 1.0)
    assert str(caught.value) == "mismatch_count and first_mismatch_index disagree"
