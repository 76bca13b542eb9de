"""CLI golden tests: exact stderr lines and exit codes.

Exit codes: 0 success, 1 data error (malformed input row), 2 usage or
domain error.  Every failure is one ``error:`` line on stderr, never a
traceback.
"""

import csv
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdswu import cli
from gdswu.cli import DataError, main
from gdswu.core import make_config
from gdswu.oracle import oracle_exact

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def csv_file(tmp_path):
    def write(rows, name="in.csv"):
        path = tmp_path / name
        path.write_text("".join(f"{r}\n" for r in rows), encoding="utf-8")
        return str(path)

    return write


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_run_writes_oracle_outputs(capsys, csv_file):
    samples = [0, 127, 5, 64, 127, 127, 3] * 5
    code, out, err = run_cli(capsys, ["run", csv_file(samples), "--taps", "8"])
    assert (code, err) == (0, "")
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["index", "input", "output"]
    cfg = make_config(taps=8)
    want = oracle_exact(samples, cfg.weights.raw, cfg.weights.raw_sum)
    assert [int(r[2]) for r in rows[1:]] == want
    assert [int(r[1]) for r in rows[1:]] == samples


@pytest.mark.parametrize("command", ["run", "simulate", "inject"])
def test_out_of_range_csv_sample_is_a_data_error_naming_the_row(
    capsys, csv_file, command
):
    path = csv_file([1, 2, 300, 4])
    extra = ["--at", "0"] if command == "inject" else []
    code, _, err = run_cli(capsys, [command, path, *extra])
    assert code == 1
    assert err == f"error: {path} row 3: sample 300 out of range 0..127\n"


def test_out_of_range_row_number_counts_the_header(capsys, csv_file):
    path = csv_file(["sample", 1, -1])
    code, _, err = run_cli(capsys, ["run", path, "--has-header"])
    assert code == 1
    assert err == f"error: {path} row 3: sample -1 out of range 0..127\n"


def test_sample_range_follows_sample_width(capsys, csv_file):
    path = csv_file([255, 256])
    code, _, err = run_cli(capsys, ["run", path, "--sample-int-bits", "8"])
    assert code == 1
    assert err == f"error: {path} row 2: sample 256 out of range 0..255\n"


def test_magnitude_out_of_range_is_a_domain_error_naming_the_flag(capsys, csv_file):
    path = csv_file([1, 2, 3, 4, 5])
    code, _, err = run_cli(capsys, ["inject", path, "--at", "2", "--magnitude", "0x80"])
    assert code == 2
    assert err == "error: --magnitude 128 out of range 0..127\n"


def test_dropout_ignores_magnitude(capsys, csv_file):
    path = csv_file([1, 2, 3, 4, 5])
    argv = ["inject", path, "--at", "2", "--kind", "dropout", "--magnitude", "200"]
    code, _, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")


def test_step_seed_out_of_range_is_a_domain_error_naming_the_flag(capsys):
    code, _, err = run_cli(capsys, ["step", "--seed", "200"])
    assert code == 2
    assert err == "error: --seed 200 out of range 0..127\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-a", "20", "-b", "1e-20"], "gamma density at x=0.0 for a=20, b=1e-20"),
        (["-a", "20", "-b", "1e300"], "gamma density at x=0.0 for a=20, b=1e+300"),
        (["-b", "1e-310"], "gamma density at x=0.0 for a=1, b=1e-310"),
    ],
)
def test_weights_outside_double_range_is_a_domain_error(capsys, argv, message):
    code, _, err = run_cli(capsys, ["weights", *argv])
    assert code == 2
    assert err == f"error: {message} is outside the double range\n"


def test_missing_config_file_is_a_domain_error(capsys, tmp_path):
    path = str(tmp_path / "absent.cfg")
    code, _, err = run_cli(capsys, ["weights", "--config", path])
    assert code == 2
    assert err == f"error: cannot read config file {path}: No such file or directory\n"


def test_non_utf8_config_file_is_a_domain_error_naming_its_path(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"taps = 8\n\xff = 1\n")
    code, out, err = run_cli(capsys, ["weights", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read config file {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 9: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "command, flag",
    [
        ("run", "-o"),
        ("step", "-o"),
        ("step", "--summary"),
        ("simulate", "-o"),
        ("simulate", "--summary"),
        ("inject", "--summary"),
    ],
)
@pytest.mark.parametrize(
    "target, reason",
    [("missing", "No such file or directory"), ("directory", "Is a directory")],
)
def test_unwritable_output_is_a_domain_error(
    capsys, csv_file, tmp_path, command, flag, target, reason
):
    path = str(tmp_path / "absent" / "out" if target == "missing" else tmp_path)
    inputs = [] if command == "step" else [csv_file([1, 2, 3, 4, 5])]
    extra = ["--at", "0"] if command == "inject" else []
    code, _, err = run_cli(capsys, [command, *inputs, *extra, flag, path])
    assert code == 2
    assert err == f"error: cannot write {path}: {reason}\n"


def test_non_utf8_input_is_a_data_error_naming_the_path(capsys, tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"1\n\xff\n3\n")
    code, _, err = run_cli(capsys, ["run", str(path)])
    assert code == 1
    assert err == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 2: invalid start byte\n"
    )


TWO_ROWS_TAPS_2 = "index,input,output\n0,5,2\n1,7,6\n"


@pytest.mark.parametrize(
    "text, flags, code, out, err",
    [
        ("1\n\n3\n", [], 1, "", "error: {path} row 2: empty row\n"),
        ("abc\n", [], 1, "", "error: {path} row 1: not an integer: 'abc'\n"),
        ('"5"\n7\n', [], 0, TWO_ROWS_TAPS_2, ""),
        ("5,x\n7\n", [], 0, TWO_ROWS_TAPS_2, ""),
        ("5\r\n7\r\n", [], 0, TWO_ROWS_TAPS_2, ""),
        ("5\r7\r", [], 0, TWO_ROWS_TAPS_2, ""),
        ("first,second\n5\n7\n", ["--has-header"], 0, TWO_ROWS_TAPS_2, ""),
        ("5\n7", [], 0, TWO_ROWS_TAPS_2, ""),
        ("", [], 0, "index,input,output\n", ""),
    ],
    ids=[
        "empty-middle-row", "not-an-integer", "quoted", "second-column", "crlf",
        "lone-cr", "header-with-comma", "no-final-newline", "empty-file",
    ],
)
def test_input_grammar_golden(capsys, tmp_path, text, flags, code, out, err):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    got = run_cli(capsys, ["run", str(path), "--taps", "2", *flags])
    assert got == (code, out, err.format(path=path))


def test_input_from_stdin_golden():
    done = subprocess.run(
        [sys.executable, "-m", "gdswu", "run", "-", "--taps", "2"],
        input=b"5\n7\n",
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, TWO_ROWS_TAPS_2.encode(), b"")


PLAIN = "0123456789 _+-\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _outcome(parse, *args):
    try:
        return parse(*args)
    except DataError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    # half the texts avoid the characters that rule out the fast path
    text=st.one_of(st.text(st.sampled_from(PLAIN)), st.text(st.sampled_from(PLAIN + ',"\r'))),
    has_header=st.booleans(),
    max_raw=st.sampled_from((1, 127, 2**64 - 1)),
)
def test_the_fast_path_parses_as_the_csv_rows_do(text, has_header, max_raw):
    args = (text, "in.csv", has_header, max_raw)
    fast = cli._parse_fast(text, has_header, max_raw)
    assert fast is None or fast == _outcome(cli._parse_rows, *args)


@pytest.mark.parametrize("line", ["1" * 200000, " " * 200000 + "5"], ids=["digits", "padded"])
def test_a_field_over_the_csv_limit_is_a_data_error(capsys, tmp_path, line):
    path = tmp_path / "big.csv"
    path.write_text(f"5\n{line}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["run", str(path)])
    assert (code, out) == (1, "")
    assert err == f"error: {path} row 2: field larger than field limit (131072)\n"


def test_non_utf8_stdin_is_the_same_error_as_a_non_utf8_file():
    done = subprocess.run(
        [sys.executable, "-m", "gdswu", "run", "-"],
        input=b"5\n\xff\n",
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == (
        b"error: cannot read -: 'utf-8' codec can't decode byte 0xff "
        b"in position 2: invalid start byte\n"
    )


def test_config_file_accepts_every_default_key(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# every key of DEFAULTS\n"
        "a = 2\nb = 5.0\ntaps = 8\nfrac_bits = 9\nrounding = half-even\n"
        "mode = raw-accumulate\nsample_int_bits = 8\nsample_offset = 0.5\n",
        encoding="utf-8",
    )
    code, from_file, err = run_cli(capsys, ["weights", "--config", str(path)])
    assert (code, err) == (0, "")
    flags = ["weights", "-a", "2", "-b", "5.0", "--taps", "8", "--frac-bits", "9",
             "--rounding", "half-even", "--mode", "raw-accumulate",
             "--sample-int-bits", "8", "--sample-offset", "0.5"]
    code, from_flags, err = run_cli(capsys, flags)
    assert (code, err) == (0, "")
    assert from_file == from_flags
    offset_zero = run_cli(capsys, flags[:-2])[1]
    assert from_file != offset_zero


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("taps = 8\nwidth = 3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["weights", "--config", str(path)])
    assert code == 2
    assert err == f"error: {path} line 2: unknown key 'width'\n"


SIMULATE_TAPS_2_TREE = """\
cycle,input,output,mult_ops,add_ops,other_ops
1,5,,2,0,0
2,120,,2,1,0
3,7,2,2,1,1
4,0,64,2,1,1
5,127,61,2,1,1
6,33,3,2,1,1
7,64,66,2,1,1
8,9,78,2,1,1
9,,49,0,1,1
10,,35,0,0,1
{
  "taps": 2,
  "architecture": "tree",
  "latency": 3,
  "ops": {
    "multiply": 2,
    "add": 1,
    "normalize": 1
  },
  "ops_per_cycle_total": 4,
  "hw_claimed_ops_per_cycle": 22,
  "ops_delta": -18
}
"""

STREAM_8 = [5, 120, 7, 0, 127, 33, 64, 9]


def test_simulate_golden_cycle_csv_and_footer(capsys, csv_file):
    code, out, err = run_cli(capsys, ["simulate", csv_file(STREAM_8), "--taps", "2"])
    assert (code, err) == (0, "")
    assert out == SIMULATE_TAPS_2_TREE


@pytest.mark.parametrize("architecture, latency", [("tree", 4), ("chain", 5)])
def test_simulate_footer_of_a_filled_pipeline(capsys, csv_file, tmp_path, architecture, latency):
    argv = ["simulate", csv_file(STREAM_8), "--taps", "4", "--architecture", architecture,
            "-o", str(tmp_path / "cycles.csv")]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "taps": 4,
        "architecture": architecture,
        "latency": latency,
        "ops": {"multiply": 4, "add": 3, "normalize": 1},
        "ops_per_cycle_total": 8,
        "hw_claimed_ops_per_cycle": 22,
        "ops_delta": -14,
    }


def test_simulate_footer_of_a_stream_shorter_than_the_pipeline(capsys, csv_file, tmp_path):
    argv = ["simulate", csv_file([3, 7]), "-o", str(tmp_path / "cycles.csv")]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "taps": 16,
        "architecture": "tree",
        "latency": 6,
        "ops": None,
        "ops_per_cycle_total": None,
        "hw_claimed_ops_per_cycle": 22,
        "ops_delta": None,
    }


INJECT_SPIKE = """\
{
  "spec": {
    "kind": "spike",
    "start": 2,
    "duration": 3,
    "magnitude": 100
  },
  "max_output_deviation": 55,
  "analytic_bound": 81,
  "recovery_index": 8,
  "bound_satisfied": true
}
"""


def test_inject_golden_report(capsys, csv_file):
    argv = ["inject", csv_file(STREAM_8), "--taps", "4", "--at", "2", "--duration", "3",
            "--magnitude", "0x64"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == INJECT_SPIKE


def test_reader_closing_stdout_early_ends_quietly_with_exit_1(tmp_path):
    # About 200 kB of output: more than a pipe holds, so writes must fail
    # once the reader has gone.
    path = tmp_path / "long.csv"
    path.write_text("5\n" * 20000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "gdswu", "run", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.stdout.readline() == b"index,input,output\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("mode, steady", [("normalized-average", 0x7F), ("raw-accumulate", 0x6A)])
def test_step_reports_the_quoted_figure_unmatched(capsys, tmp_path, mode, steady):
    # The quoted hardware steady state is 0x3a; the model reaches neither
    # mode's value and the summary must say so, not tune itself to match.
    argv = ["step", "--mode", mode, "-o", str(tmp_path / "step.csv")]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert summary["steady_value"] == steady
    assert (summary["hw_reported"], summary["observed"], summary["match"]) == (
        "0x3a", f"0x{steady:02x}", False)


WEIGHTS_TAPS_4 = """\
{
  "a": 1,
  "b": 10.0,
  "taps": 4,
  "frac_bits": 7,
  "rounding": "half-up",
  "raw": [
    13,
    12,
    10,
    9
  ],
  "ideal": [
    0.1,
    0.09048374180359595,
    0.08187307530779818,
    0.0740818220681718
  ],
  "raw_sum": 44
}
"""


def test_weights_golden_json(capsys):
    code, out, err = run_cli(capsys, ["weights", "--taps", "4"])
    assert (code, err) == (0, "")
    assert out == WEIGHTS_TAPS_4


RUN_TAPS_4_RAW = """\
index,input,output
0,5,0
1,120,12
2,7,12
3,0,10
4,127,21
5,33,15
6,64,19
7,9,18
"""


def test_run_golden_csv(capsys, csv_file):
    argv = ["run", csv_file(STREAM_8), "--taps", "4", "--mode", "raw-accumulate"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == RUN_TAPS_4_RAW


STEP_TAPS_4 = """\
index,input,output
0,100,29
1,100,56
2,100,79
3,100,100
4,100,100
5,100,100
{
  "mode": "normalized-average",
  "seed": 100,
  "steady_value": 100,
  "settle_index": 4,
  "hw_reported": "0x3a",
  "observed": "0x64",
  "match": false
}
"""


def test_step_golden_csv_and_summary(capsys):
    code, out, err = run_cli(capsys, ["step", "--taps", "4", "--length", "6", "--seed", "0x64"])
    assert (code, err) == (0, "")
    assert out == STEP_TAPS_4


def test_usage_error_exits_2_without_a_traceback():
    done = subprocess.run(
        [sys.executable, "-m", "gdswu", "run"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: gdswu run ")
    assert done.stderr.endswith(
        "gdswu run: error: the following arguments are required: input\n"
    )
    assert "Traceback" not in done.stderr
