import random
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdswu.fixed_point import QFormat, mac_exact, round_scaled

Q0_7 = QFormat(0, 7)
Q1_7 = QFormat(1, 7)
SAMPLE7 = QFormat(7, 0)


def decimal_half_up(v: float, frac_bits: int) -> int:
    """Independent half-up rounding path via exact Decimal conversion."""
    return int(
        (Decimal(v) * (1 << frac_bits)).quantize(Decimal(1), rounding=ROUND_HALF_UP)
    )


class TestQFormat:
    def test_range(self):
        assert SAMPLE7.max_raw == 127
        assert Q1_7.max_raw == 255

    def test_derived_widths_leave_equality_hash_and_repr_alone(self):
        q = QFormat(3, 5)
        assert (q.total_bits, q.max_raw) == (8, 255)
        assert QFormat(64, 0).max_raw == 2**64 - 1
        assert q == QFormat(3, 5) and hash(q) == hash(QFormat(3, 5))
        assert q != QFormat(5, 3)
        assert repr(q) == "QFormat(int_bits=3, frac_bits=5)"

    def test_width_limits(self):
        with pytest.raises(ValueError):
            QFormat(0, 0)
        with pytest.raises(ValueError):
            QFormat(33, 32)
        with pytest.raises(ValueError):
            QFormat(-1, 8)


class TestQuantize:
    """Weights are quantized by ``round_scaled`` to raw values of a format."""

    def test_tenth_in_q7(self):
        assert round_scaled(0.1, Q0_7.frac_bits) == 13

    def test_zero(self):
        assert round_scaled(0.0, SAMPLE7.frac_bits) == 0

    def test_exact_one_in_q1_7(self):
        assert round_scaled(1.0, Q1_7.frac_bits) == 128

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises((ValueError, OverflowError)):
                round_scaled(bad, Q0_7.frac_bits)

    def test_tie_direction_half_up_vs_half_even(self):
        # 2.5/128 is exactly representable, so the scaled value is a true tie
        v = 2.5 / 128
        assert round_scaled(v, Q0_7.frac_bits, "half-up") == 3
        assert round_scaled(v, Q0_7.frac_bits, "half-even") == 2

    def test_unknown_rounding_rejected(self):
        with pytest.raises(ValueError):
            round_scaled(0.1, Q0_7.frac_bits, "stochastic")

    @given(v=st.floats(0, 1.99, allow_nan=False))
    def test_half_up_matches_decimal_path(self, v):
        assert round_scaled(v, Q1_7.frac_bits) == decimal_half_up(v, 7)

    @given(
        v1=st.floats(0, 500, allow_nan=False),
        v2=st.floats(0, 500, allow_nan=False),
    )
    def test_monotone(self, v1, v2):
        lo, hi = sorted((v1, v2))
        frac_bits = QFormat(4, 6).frac_bits
        assert round_scaled(lo, frac_bits) <= round_scaled(hi, frac_bits)

    @given(v=st.floats(0, 1.9, allow_nan=False))
    def test_round_trip_within_half_ulp(self, v):
        raw = round_scaled(v, Q1_7.frac_bits)
        assert raw <= Q1_7.max_raw
        assert abs(raw * 2 ** -Q1_7.frac_bits - v) <= 2 ** -8


class TestMacExact:
    def test_zero_samples(self):
        assert mac_exact([0, 0, 0], [1, 2, 3]) == 0

    def test_unit_samples(self):
        assert mac_exact([1, 1], [13, 12]) == 25

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mac_exact([1, 2], [1])

    def test_randomized_against_recomputation(self):
        # 10^4 cases against a separately written accumulation loop
        rng = random.Random(0x5EED)
        for _ in range(10_000):
            n = rng.randrange(1, 40)
            samples = [rng.randrange(1 << 32) for _ in range(n)]
            weights = [rng.randrange(1 << 32) for _ in range(n)]
            expected = 0
            for i in range(n):
                expected += samples[i] * weights[i]
            assert mac_exact(samples, weights) == expected

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
            max_size=64,
        )
    )
    def test_property_against_recomputation(self, pairs):
        samples = [p[0] for p in pairs]
        weights = [p[1] for p in pairs]
        total = 0
        for s, w in zip(samples, weights):
            total += s * w
        assert mac_exact(samples, weights) == total
