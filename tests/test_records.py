"""The frozen records keep the equality, hash, repr and key order of the
frozen dataclasses they replaced.

The repr goldens below are those the dataclasses printed, and the weights
digest is of ``gdswu weights`` output from the Fraction-rounding code.
"""

import collections
import contextlib
import hashlib
import io
import itertools
import json

import pytest

from gdswu.cli import main
from gdswu.core import FilterConfig, make_config
from gdswu.faults import FaultSpec, sweep
from gdswu.fixed_point import FrozenInstanceError, QFormat, round_scaled
from gdswu.gamma_weights import GammaParams, WeightVector
from gdswu.oracle import ComparisonReport
from test_fixed_point import fraction_round

CONFIG = make_config(taps=3, frac_bits=9, sample_offset=0.5)
WEIGHTS_REPR = (
    "WeightVector(raw=(49, 44, 40), ideal=(0.0951229424500714, 0.08607079764250578, "
    "0.07788007830714049), qformat=QFormat(int_bits=0, frac_bits=9), "
    "params=GammaParams(a=1, b=10.0), rounding='half-up', sample_offset=0.5, "
    "taps=3, raw_sum=133)"
)
# one instance of each record, its fields as the dataclass compared them and
# the repr it printed
GOLDENS = [
    (CONFIG.weights.qformat, ("int_bits", "frac_bits"), "QFormat(int_bits=0, frac_bits=9)"),
    (CONFIG.params, ("a", "b"), "GammaParams(a=1, b=10.0)"),
    (CONFIG.weights,
     ("raw", "ideal", "qformat", "params", "rounding", "sample_offset", "taps", "raw_sum"),
     WEIGHTS_REPR),
    (CONFIG, ("weights", "sample_format", "mode"),
     f"FilterConfig(weights={WEIGHTS_REPR}, sample_format=QFormat(int_bits=7, frac_bits=0), "
     "mode='normalized-average')"),
    (FaultSpec("spike", 2, 3, 100), ("kind", "start", "duration", "magnitude"),
     "FaultSpec(kind='spike', start=2, duration=3, magnitude=100)"),
    (ComparisonReport(0.5, 1, 2, 1.0),
     ("max_abs_error", "mismatch_count", "first_mismatch_index", "bound_used"),
     "ComparisonReport(max_abs_error=0.5, mismatch_count=1, first_mismatch_index=2, "
     "bound_used=1.0)"),
]
IDS = [type(record).__name__ for record, _, _ in GOLDENS]


def _twin(record):
    """An equal record built anew from the same arguments."""
    if isinstance(record, FilterConfig):
        return make_config(taps=3, frac_bits=9, sample_offset=0.5)
    if isinstance(record, WeightVector):
        return WeightVector(record.raw, record.ideal, QFormat(0, 9), GammaParams(1, 10.0),
                            "half-up", 0.5)
    return type(record)(*(getattr(record, name) for name in record._fields))


@pytest.mark.parametrize(("record", "fields", "text"), GOLDENS, ids=IDS)
def test_a_record_prints_the_dataclass_repr(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize(("record", "fields", "text"), GOLDENS, ids=IDS)
def test_a_record_compares_and_hashes_its_fields(record, fields, text):
    twin = _twin(record)
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(tuple(getattr(record, f) for f in fields))
    # another class is NotImplemented, so == falls back to identity
    assert record.__eq__(tuple(getattr(record, f) for f in fields)) is NotImplemented
    assert record != tuple(getattr(record, f) for f in fields)
    assert all(record != other for other, _, _ in GOLDENS if other is not record)


@pytest.mark.parametrize(("record", "fields", "text"), GOLDENS, ids=IDS)
def test_a_record_refuses_assignment_and_deletion(record, fields, text):
    for name in (*vars(record), "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == text


def test_a_sweep_report_keeps_the_spec_key_order():
    stream = [5, 9, 7, 3, 100, 0, 64, 127]
    result = sweep([FaultSpec("spike", 2, 3, 100)], make_config(taps=4), [stream])
    assert json.dumps(result) == (
        '{"reports": [{"spec": {"kind": "spike", "start": 2, "duration": 3, "magnitude": 100}, '
        '"max_output_deviation": 54, "analytic_bound": 79, "recovery_index": 7, '
        '"bound_satisfied": true}], "aggregate": {"count": 1, "min_deviation": 54, '
        '"max_deviation": 54, "mean_deviation": 54.0, "worst_bound_slack": 25, '
        '"all_bounds_satisfied": true}}'
    )


def _weights_outputs():
    """(argv, exit code, stdout, stderr) of ``gdswu weights`` over a grid with
    both roundings and the widths where a double scales exactly or the
    format overflows."""
    for a, b, taps, frac_bits, rounding, offset in itertools.product(
            (1, 4, 20), (0.5, 10.0), (16, 64), (1, 7, 14, 52, 53, 54, *range(60, 71)),
            ("half-up", "half-even"), (0.0, 0.5)):
        argv = ["weights", "--shape", str(a), "--scale", str(b), "--taps", str(taps),
                "--frac-bits", str(frac_bits), "--rounding", rounding,
                "--sample-offset", str(offset)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        yield argv, code, out.getvalue(), err.getvalue()


def test_the_weights_json_is_byte_identical_over_a_grid():
    digest, codes = hashlib.sha256(), collections.Counter()
    for argv, code, out, err in _weights_outputs():
        digest.update(f"{code}\n{out}{err}".encode())
        codes[code] += 1
        if code == 0:
            weights = json.loads(out)
            want = [fraction_round(v, weights["frac_bits"], weights["rounding"])
                    for v in weights["ideal"]]
            assert weights["raw"] == want, argv
    assert codes == {0: 472, 2: 344}
    assert digest.hexdigest() == "2a601c2e79b53674a5f469f9af080b48c954543ca479c400a79debe467dac47c"


def test_round_scaled_refuses_what_has_no_ratio():
    with pytest.raises(ValueError):
        round_scaled(float("nan"), 7)
    for inf in (float("inf"), float("-inf")):
        with pytest.raises(OverflowError):
            round_scaled(inf, 7, "half-even")
