import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.core import MODES, FilterConfig, GammaWindowFilter
from gdswu.fixed_point import QFormat
from gdswu.gamma_weights import (
    MAX_SHAPE,
    GammaParams,
    WeightVector,
    build_weight_vector,
    gamma_pdf,
)
from gdswu.oracle import oracle_exact


def scale_round_oracle(a, b, taps, frac_bits, offset=0.0):
    """Independent evaluate-scale-round reference: density formula inline,
    exact rational scaling, half-up tie decision via divmod."""
    raws = []
    for i in range(taps):
        x = i + offset
        pdf = x ** (a - 1) * math.exp(-x / b) / (b ** a * math.factorial(a - 1))
        y = Fraction(pdf) * 2 ** frac_bits
        q, r = divmod(y.numerator, y.denominator)
        raws.append(q + (1 if 2 * r >= y.denominator else 0))
    return raws


class TestGammaInt:
    """Gamma(a) of an integer shape: the density divides by the exact
    factorial (a-1)!, and shapes outside 1..MAX_SHAPE are rejected."""

    @pytest.mark.parametrize("a,expected", [(1, 1), (2, 1), (5, 24)])
    def test_small_factorials(self, a, expected):
        # at x = b = 1 the density is exp(-1) / Gamma(a)
        got = gamma_pdf(1.0, GammaParams(a, 1.0))
        assert math.isclose(got * expected, math.exp(-1.0), rel_tol=1e-14)

    def test_matches_factorial_over_full_range(self):
        # the closed form in logs, with lgamma in place of the factorial
        for a in range(1, MAX_SHAPE + 1):
            for x in (0.5, 3.0, 17.25):
                for b in (0.75, 4.0):
                    want = math.exp(
                        (a - 1) * math.log(x) - x / b - a * math.log(b) - math.lgamma(a)
                    )
                    assert math.isclose(gamma_pdf(x, GammaParams(a, b)), want, rel_tol=1e-11)

    @pytest.mark.parametrize("a", [0, -1, MAX_SHAPE + 1])
    def test_out_of_range_shape_rejected(self, a):
        with pytest.raises(ValueError, match=rf"^shape a must be an integer in 1\.\.{MAX_SHAPE}"):
            GammaParams(a, 1.0)


class TestGammaPdf:
    def test_at_zero_shape_one(self):
        assert gamma_pdf(0, GammaParams(1, 10)) == pytest.approx(0.1, rel=1e-15)

    def test_derived_value_shape_one(self):
        # high-precision evaluation of the density at x=10, a=1, b=10
        assert gamma_pdf(10, GammaParams(1, 10)) == pytest.approx(
            0.036787944117144235, rel=1e-12
        )

    def test_derived_value_shape_two(self):
        # density at x=2, a=2, b=1 is 2*exp(-2)
        assert gamma_pdf(2, GammaParams(2, 1)) == pytest.approx(
            0.2706705664732254, rel=1e-12
        )

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            gamma_pdf(-0.5, GammaParams(1, 10))

    @given(
        x=st.floats(0, 500, allow_nan=False),
        b=st.floats(0.5, 50, allow_nan=False),
    )
    def test_shape_one_closed_form(self, x, b):
        got = gamma_pdf(x, GammaParams(1, b))
        assert math.isclose(got, math.exp(-x / b) / b, rel_tol=1e-12)

    @pytest.mark.parametrize("a", [1, 2, 3, 5])
    @pytest.mark.parametrize("b", [0.5, 1.0, 10.0, 50.0])
    def test_integrates_to_one(self, a, b):
        quad = pytest.importorskip("scipy.integrate").quad
        params = GammaParams(a, b)
        total, _ = quad(lambda x: gamma_pdf(x, params), 0, 50 * b, limit=200)
        assert abs(total - 1.0) < 1e-6


class TestGammaParams:
    def test_rejects_zero_shape(self):
        with pytest.raises(ValueError):
            GammaParams(0, 10)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            GammaParams(1, 0)
        with pytest.raises(ValueError):
            GammaParams(1, -2.0)

    def test_rejects_shape_beyond_cap(self):
        with pytest.raises(ValueError):
            GammaParams(21, 1)


class TestBuildWeightVector:
    def test_default_unit_leading_weights(self):
        wv = build_weight_vector(GammaParams(1, 10), taps=16, frac_bits=7)
        assert wv.raw[:3] == (13, 12, 10)
        assert wv.raw == tuple(scale_round_oracle(1, 10.0, 16, 7))
        assert wv.raw_sum == 107
        assert wv.raw_sum == sum(wv.raw)

    def test_single_tap(self):
        wv = build_weight_vector(GammaParams(1, 10), taps=1, frac_bits=7)
        assert wv.raw == (13,)
        assert wv.raw_sum == 13

    def test_monotone_for_shape_one(self):
        wv = build_weight_vector(GammaParams(1, 10), taps=16, frac_bits=7)
        assert all(wv.raw[i] >= wv.raw[i + 1] for i in range(15))
        assert all(wv.ideal[i] > wv.ideal[i + 1] for i in range(15))

    def test_all_zero_weights_rejected(self):
        # 0.1 * 2**2 rounds to 0 at every lag
        with pytest.raises(ValueError):
            build_weight_vector(GammaParams(1, 10), taps=16, frac_bits=2)

    def test_explicit_format_accepted_when_wide_enough(self):
        # density at 0 for b=0.5 is 2.0 -> raw 256, wider than Q1.7
        wv = build_weight_vector(GammaParams(1, 0.5), taps=4, frac_bits=7)
        assert wv.raw[0] == 256

    def test_sample_offset_shifts_points(self):
        base = build_weight_vector(GammaParams(1, 10), taps=4, frac_bits=7)
        shifted = build_weight_vector(
            GammaParams(1, 10), taps=4, frac_bits=7, sample_offset=1.0
        )
        assert shifted.ideal[:3] == base.ideal[1:]

    def test_json_round_trip_fields(self):
        wv = build_weight_vector(GammaParams(1, 10), taps=16, frac_bits=7)
        blob = wv.to_json_dict()
        assert list(blob) == [
            "a", "b", "taps", "frac_bits", "rounding", "raw", "ideal", "raw_sum",
        ]
        assert blob["raw_sum"] == 107
        assert blob["frac_bits"] == 7

    @settings(max_examples=200)
    @given(
        a=st.integers(1, 5),
        b=st.floats(0.5, 50, allow_nan=False),
        taps=st.integers(1, 64),
        frac_bits=st.integers(1, 16),
    )
    def test_raw_matches_scale_round_oracle(self, a, b, taps, frac_bits):
        expected = scale_round_oracle(a, b, taps, frac_bits)
        if sum(expected) == 0:
            with pytest.raises(ValueError):
                build_weight_vector(GammaParams(a, b), taps, frac_bits)
            return
        wv = build_weight_vector(GammaParams(a, b), taps, frac_bits)
        assert list(wv.raw) == expected
        assert wv.raw_sum == sum(expected)

    @given(b=st.floats(0.5, 50, allow_nan=False), taps=st.integers(2, 64))
    def test_shape_one_raw_monotone_non_increasing(self, b, taps):
        try:
            wv = build_weight_vector(GammaParams(1, b), taps, 12)
        except ValueError:
            return
        assert all(wv.raw[i] >= wv.raw[i + 1] for i in range(taps - 1))


def hand_built(raw, **fields):
    """A WeightVector built directly, not by build_weight_vector."""
    return WeightVector(
        raw=raw,
        ideal=(0.5,) * len(raw),
        qformat=QFormat(1, 2),
        params=GammaParams(1, 10),
        **fields,
    )


class TestHandBuiltWeightVector:
    """``taps`` and ``raw_sum`` are computed from ``raw``, never passed in,
    so the block kernel's no-carry bound cannot be told a wrong sum."""

    def test_taps_and_raw_sum_follow_raw(self):
        wv = hand_built((2, 2))
        assert (wv.taps, wv.raw_sum) == (2, 4)

    @pytest.mark.parametrize("mode", MODES)
    def test_run_push_and_oracle_agree_at_full_scale(self, mode):
        wv = hand_built((2, 2))
        cfg = FilterConfig(weights=wv, sample_format=QFormat(7, 0), mode=mode)
        stream = [127, 127, 127, 3, 0, 0, 127, 0, 127, 127]
        expected = oracle_exact(stream, wv.raw, wv.raw_sum, mode, 2, 127)
        assert GammaWindowFilter(cfg).run(stream) == expected
        one_by_one = GammaWindowFilter(cfg)
        assert [one_by_one.run([s])[0] for s in stream] == expected

    @pytest.mark.parametrize("field", ["taps", "raw_sum"])
    def test_derived_fields_cannot_be_passed(self, field):
        with pytest.raises(TypeError):
            hand_built((2, 2), **{field: 1})

    def test_all_zero_raw_rejected(self):
        with pytest.raises(ValueError, match="all 2 weights quantized to zero"):
            hand_built((0, 0))

    @pytest.mark.parametrize("raw", [(2, -1), (2, 2.0), (2, "2")])
    def test_negative_or_non_int_raw_rejected(self, raw):
        with pytest.raises(ValueError):
            hand_built(raw)
