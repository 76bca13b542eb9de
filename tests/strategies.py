"""Hypothesis strategies shared by the differential tests of the models."""

from hypothesis import assume
from hypothesis import strategies as st

from gdswu.core import MODES, make_config
from gdswu.fixed_point import ROUNDING_MODES
from gdswu.gamma_weights import MAX_SHAPE
from gdswu.oracle import oracle_exact


@st.composite
def configs(draw, sample_bits=(7, 12)):
    """Any legal shape and any window of 1..64 taps, in both modes and both
    roundings."""
    try:
        return make_config(
            a=draw(st.integers(1, MAX_SHAPE)),
            b=draw(st.floats(0.5, 20.0)),
            taps=draw(st.integers(1, 64)),
            frac_bits=draw(st.integers(4, 14)),
            rounding=draw(st.sampled_from(ROUNDING_MODES)),
            mode=draw(st.sampled_from(MODES)),
            sample_int_bits=draw(st.sampled_from(sample_bits)),
            sample_offset=draw(st.sampled_from((0.0, 0.5))),
        )
    except ValueError:
        assume(False)


def streams(config, min_size=0, max_size=100):
    """Streams biased towards 0 and full scale."""
    top = config.sample_format.max_raw
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    return st.lists(value, min_size=min_size, max_size=max_size)


def oracle(config, stream):
    w = config.weights
    return oracle_exact(
        stream, w.raw, w.raw_sum, config.mode, w.qformat.frac_bits,
        config.sample_format.max_raw,
    )
