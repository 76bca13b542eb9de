"""The exact oracle against the unquantized double-precision filter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.oracle import compare, oracle_real, quantization_error_bound
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
