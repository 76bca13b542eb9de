import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu.core import (
    MODE_NORMALIZED,
    MODE_RAW,
    GammaWindowFilter,
    make_config,
    step_response,
)

samples7 = st.lists(st.integers(0, 127), max_size=80)


def test_default_config_matches_sixteen_tap_unit():
    cfg = make_config()
    assert cfg.taps == 16
    assert cfg.params.a == 1 and cfg.params.b == 10.0
    assert cfg.weights.raw_sum == 107
    assert cfg.sample_format.max_raw == 127
    assert cfg.mode == MODE_NORMALIZED


def test_fresh_filter_outputs_zero_on_zero():
    assert GammaWindowFilter(make_config()).push(0) == 0


def test_all_zero_stream_yields_all_zero_outputs():
    outs = GammaWindowFilter(make_config()).run([0] * 40)
    assert outs == [0] * 40


def test_single_tap_is_identity_in_normalized_mode():
    cfg = make_config(taps=1)
    assert GammaWindowFilter(cfg).run([0, 5, 127, 1]) == [0, 5, 127, 1]


def test_constant_stream_converges_exactly():
    cfg = make_config()
    outs = GammaWindowFilter(cfg).run([99] * 40)
    assert all(o == 99 for o in outs[16:])


def test_step_of_full_scale_raw_accumulate_steady_state():
    # floor(127 * 107 / 128) = 106, from the exact-integer weight sum
    cfg = make_config(mode=MODE_RAW)
    outs = GammaWindowFilter(cfg).run([127] * 32)
    assert outs[-1] == (127 * 107) // 128 == 106


def test_out_of_range_sample_rejected():
    filt = GammaWindowFilter(make_config())
    with pytest.raises(ValueError):
        filt.push(128)
    with pytest.raises(ValueError):
        filt.push(-1)


def test_non_integer_sample_rejected():
    cfg = make_config()
    filt = GammaWindowFilter(cfg)
    filt.run([9, 127, 40])
    with pytest.raises(TypeError):
        filt.push(2.5)
    fed = GammaWindowFilter(cfg)
    fed.run([9, 127, 40])
    probe = [1, 2, 3, 127]
    assert filt.run(probe) == fed.run(probe)


def test_run_reports_failing_sample_index():
    filt = GammaWindowFilter(make_config())
    with pytest.raises(ValueError, match="sample 2"):
        filt.run([1, 2, 700])


def test_run_empty_stream():
    assert GammaWindowFilter(make_config()).run([]) == []


def test_run_preserves_length():
    assert len(GammaWindowFilter(make_config()).run([5] * 23)) == 23


class TestStepResponse:
    def test_zero_seed(self):
        assert step_response(make_config(), 0, 20) == [0] * 20

    def test_full_scale_normalized_settles_at_seed(self):
        outs = step_response(make_config(), 127, 32)
        assert outs[15] == 127
        assert all(o == 127 for o in outs[15:])
        assert outs[14] < 127

    def test_full_scale_raw_settles_at_derived_value(self):
        outs = step_response(make_config(mode=MODE_RAW), 127, 32)
        assert all(o == 106 for o in outs[15:])

    def test_length_shorter_than_window_rejected(self):
        with pytest.raises(ValueError):
            step_response(make_config(), 127, 15)

    @given(seed=st.integers(0, 127))
    def test_monotone_non_decreasing(self, seed):
        outs = step_response(make_config(), seed, 24)
        assert all(a <= b for a, b in zip(outs, outs[1:]))

    @given(seed=st.integers(0, 127))
    def test_monotone_non_decreasing_raw_mode(self, seed):
        outs = step_response(make_config(mode=MODE_RAW), seed, 24)
        assert all(a <= b for a, b in zip(outs, outs[1:]))


class TestImpulseResponse:
    def test_zero_magnitude(self):
        assert GammaWindowFilter(make_config()).run([0] * 16) == [0] * 16

    def test_single_tap(self):
        assert GammaWindowFilter(make_config(taps=1)).run([93]) == [93]

    def test_full_scale_is_scaled_weight_curve(self):
        cfg = make_config()
        expected = [127 * w // 107 for w in cfg.weights.raw]
        got = GammaWindowFilter(cfg).run([127] + [0] * 15)
        assert got == expected
        assert got[:3] == [15, 14, 11]


class TestReset:
    def test_reset_replays_like_fresh(self):
        cfg = make_config()
        filt = GammaWindowFilter(cfg)
        filt.run([3, 99, 127, 5])
        filt.reset()
        reference = [17, 45, 2, 0, 88] * 4
        assert filt.run(reference) == GammaWindowFilter(cfg).run(reference)

    def test_reset_idempotent(self):
        filt = GammaWindowFilter(make_config())
        filt.run([44] * 5)
        filt.reset()
        filt.reset()
        probe = [0, 127, 5, 99]
        assert filt.run(probe) == GammaWindowFilter(make_config()).run(probe)

    def test_reset_on_fresh_filter_is_identity(self):
        cfg = make_config()
        fresh = GammaWindowFilter(cfg)
        fresh.reset()
        probe = [1, 2, 3, 127]
        assert fresh.run(probe) == GammaWindowFilter(cfg).run(probe)


class TestWindowProperties:
    @settings(max_examples=60)
    @given(
        prefix1=samples7,
        prefix2=samples7,
        suffix=st.lists(st.integers(0, 127), min_size=16, max_size=48),
    )
    def test_windowed_determinism(self, prefix1, prefix2, suffix):
        # outputs after the window refills depend only on the shared suffix
        cfg = make_config()
        out1 = GammaWindowFilter(cfg).run(prefix1 + suffix)
        out2 = GammaWindowFilter(cfg).run(prefix2 + suffix)
        tail1 = out1[len(prefix1) + 15 :]
        tail2 = out2[len(prefix2) + 15 :]
        assert tail1 == tail2

    @settings(max_examples=60)
    @given(stream=samples7, pad=st.integers(1, 20))
    def test_time_invariance_under_zero_prepend(self, pad, stream):
        cfg = make_config()
        direct = GammaWindowFilter(cfg).run(stream)
        padded = GammaWindowFilter(cfg).run([0] * pad + stream)
        assert padded[pad:] == direct

    @settings(max_examples=60)
    @given(stream=st.lists(st.integers(0, 127), min_size=16, max_size=64))
    def test_output_bounded_by_window_extremes(self, stream):
        cfg = make_config()
        outs = GammaWindowFilter(cfg).run(stream)
        for i in range(15, len(stream)):
            window = stream[i - 15 : i + 1]
            assert min(window) <= outs[i] <= max(window)

    @settings(max_examples=80)
    @given(
        stream=st.lists(st.integers(0, 127), min_size=1, max_size=64),
        position=st.integers(0, 63),
        replacement=st.integers(0, 127),
    )
    def test_single_sample_sensitivity_bound(self, stream, position, replacement):
        # one perturbed input moves any output by at most
        # ceil(max_weight * delta / raw_sum) in normalized mode
        cfg = make_config()
        position %= len(stream)
        perturbed = list(stream)
        perturbed[position] = replacement
        delta = abs(replacement - stream[position])
        out1 = GammaWindowFilter(cfg).run(stream)
        out2 = GammaWindowFilter(cfg).run(perturbed)
        bound = math.ceil(max(cfg.weights.raw) * delta / cfg.weights.raw_sum)
        assert max(abs(a - b) for a, b in zip(out1, out2)) <= bound


def test_two_filters_share_nothing():
    cfg = make_config()
    f1, f2 = GammaWindowFilter(cfg), GammaWindowFilter(cfg)
    f1.run([127] * 16)
    assert f2.push(0) == 0


def test_general_shape_runs_and_matches_direct_formula():
    # spot-check a non-monotone weight profile (a=3 peaks mid-window)
    cfg = make_config(a=3, b=2.0, taps=12, frac_bits=9)
    raw = cfg.weights.raw
    assert max(raw) not in (raw[0],)  # peak is interior for a=3, b=2
    rng = random.Random(5)
    stream = [rng.randrange(128) for _ in range(40)]
    outs = GammaWindowFilter(cfg).run(stream)
    for n in (17, 23, 39):
        acc = sum(
            raw[i] * stream[n - i] for i in range(cfg.taps) if n - i >= 0
        )
        assert outs[n] == acc // cfg.weights.raw_sum
