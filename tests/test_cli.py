"""CLI golden tests: exact stderr lines and exit codes.

Exit codes: 0 success, 1 data error (malformed input row), 2 usage or
domain error.  Every failure is one ``error:`` line on stderr, never a
traceback.
"""

import argparse
import csv
import errno
import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gdswu import cli
from gdswu.cli import DataError, main
from gdswu.core import make_config, step_response
from gdswu.gamma_weights import MAX_TAPS
from gdswu.oracle import oracle_exact
from gdswu.systolic import build_pipeline, cycle_csv_blocks, run_pipeline
from reference_systolic import build_reference, run_reference
from strategies import configs

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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-b", "1e-300"], "the weights need 1004 bits at frac_bits=7"),
        (["--frac-bits", "70"], "the weights need 70 bits at frac_bits=70"),
    ],
)
def test_weights_wider_than_64_bits_is_a_domain_error_naming_the_weights(
    capsys, argv, message
):
    code, out, err = run_cli(capsys, ["weights", *argv])
    assert (code, out) == (2, "")
    assert err == f"error: {message}; a weight format allows at most 64\n"


def test_a_huge_frac_bits_is_refused_before_its_scale_is_built():
    # 2**(10**11) would take about 12.5 GB; the child's address space is
    # capped at 1 GB, so building it fails fast rather than filling memory.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from gdswu.cli import main\n"
        "sys.exit(main(['weights', '--frac-bits', '100000000000']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: the weights need 100000000000 bits at frac_bits=100000000000; "
        "a weight format allows at most 64\n"
    )


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, path",
    [
        (["run", "IN", "-o", "/dev/full"], "/dev/full"),
        (["step", "-o", os.devnull, "--summary", "/dev/full"], "/dev/full"),
        (["weights"], "-"),
    ],
)
def test_failed_write_is_one_error_line_with_exit_2(csv_file, argv, path):
    # /dev/full accepts the open and fails every write with ENOSPC
    argv = [csv_file([1, 2, 3]) if a == "IN" else a for a in argv]
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "gdswu", *argv],
            stdout=full if path == "-" else subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=60,
        )
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"


BADF = os.strerror(errno.EBADF)


@pytest.mark.parametrize(
    "argv, fd, code, err",
    [
        (["weights"], 1, 2, f"error: cannot write -: {BADF}\n"),
        (["run", "IN"], 1, 2, f"error: cannot write -: {BADF}\n"),
        (["run", "-"], 0, 1, f"error: cannot read -: [Errno {errno.EBADF}] {BADF}\n"),
    ],
    ids=["weights-stdout", "run-stdout", "run-stdin"],
)
def test_a_closed_standard_stream_is_one_error_line(csv_file, argv, fd, code, err):
    # The interpreter starts with fd 0 or fd 1 closed, as `<&-` and `>&-`
    # leave it, so sys.stdin or sys.stdout is None.
    argv = [csv_file([1, 2, 3]) if a == "IN" else a for a in argv]
    done = subprocess.run(
        [sys.executable, "-m", "gdswu", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.close(fd),
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, "", err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("length", [10**14, 10**20], ids=["1e14", "1e20"])
def test_a_huge_step_length_streams_to_a_failed_write(length):
    # 10**14 rows as a list would take 800 TB; the child's address space
    # is capped at 1 GB, so only a streamed write reaches /dev/full.  Past
    # sys.maxsize the rows must still be counted without a traceback.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from gdswu.cli import main\n"
        f"sys.exit(main(['step', '--length', '{length}', '-o', '/dev/full',\n"
        "               '--summary', '/dev/null']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: cannot write /dev/full: No space left on device\n"


@pytest.mark.parametrize("bits", [24, 32])
def test_a_huge_wide_step_length_streams_its_rows(bits):
    # A table of every 24- or 32-bit value's text would not fit the
    # child's 1 GB address space; the step CSV holds only the seed and the
    # taps outputs, so its first rows reach the pipe as a 7-bit one's do.
    top = 2**bits - 1
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from gdswu.cli import main\n"
        f"sys.exit(main(['step', '--sample-int-bits', '{bits}', '--seed', '{top}',\n"
        "               '--length', '100000000000000', '--summary', '/dev/null']))\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    ) as child:
        head = child.stdout.read(1 << 16).decode()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    # the reader closed the pipe early, as `| head` does
    assert (code, err) == (1, b"")
    rows = 1 << 13
    want = _f_string_rows([top] * rows, step_response(make_config(sample_int_bits=bits), top, rows))
    assert len(head) == 1 << 16 and want.startswith(head)


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_running_out_of_memory_is_one_data_error_line(command):
    # `run` over these 8,000,000 rows peaks at about 300 MB RSS; the
    # child's address space is capped at 128 MB.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 27, 1 << 27))\n"
        "from gdswu.cli import main\n"
        f"sys.exit(main(['{command}', '-']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], input=b"5\n" * 8_000_000, capture_output=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, b"", b"error: out of memory\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, code", [(["run", "absent.csv"], 1), (["weights", "--taps", "0"], 2)],
    ids=["data-error", "domain-error"],
)
def test_a_failed_error_line_keeps_the_exit_code(tmp_path, argv, code):
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "gdswu", *argv],
            cwd=tmp_path,
            stdout=subprocess.DEVNULL,
            stderr=full,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=60,
        )
    assert done.returncode == code


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


# spellings that int reads but that are not str(v), and rows no path accepts
NON_CANONICAL = ("+5", " 5", "5 ", "007", "1_0", "-0", "\u0663", "128", "", "abc")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    max_raw=st.sampled_from((1, 127)),
    extra=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    header=st.sampled_from((None, "sample", "5")),
    place=st.floats(0, 1, exclude_max=True),
    final_newline=st.booleans(),
    data=st.data(),
)
def test_the_table_path_parses_as_the_csv_rows_do(
    tmp_path, max_raw, extra, seed, header, place, final_newline, data
):
    # enough rows for _parse_fast to look them up in a table of str(v)
    rng = random.Random(seed)
    least = cli._TABLE_ROWS_PER_VALUE * (max_raw + 1)
    assert cli.table_pays(max_raw, least) and not cli.table_pays(max_raw, least - 1)
    rows = [str(rng.randint(0, max_raw)) for _ in range(least + extra)]
    spelling = data.draw(st.sampled_from((None, *NON_CANONICAL, str(max_raw + 1))))
    if spelling is not None:
        rows[int(place * len(rows))] = spelling
    if header is not None:
        rows.insert(0, header)
    text = "\n".join(rows) + "\n" * final_newline
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    has_header = header is not None
    want = _outcome(cli._parse_rows, text, str(path), has_header, max_raw)
    fast = cli._parse_fast(text, has_header, max_raw)
    assert fast is None or fast == want
    assert _outcome(cli._read_samples, str(path), has_header, max_raw) == want


@pytest.mark.parametrize("line", ["1" * 200000, " " * 200000 + "5"], ids=["digits", "padded"])
def test_a_field_over_the_csv_limit_is_a_data_error(capsys, tmp_path, line):
    path = tmp_path / "big.csv"
    path.write_text(f"5\n{line}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["run", str(path)])
    assert (code, out) == (1, "")
    assert err == f"error: {path} row 2: field larger than field limit (131072)\n"


@pytest.fixture
def field_limit():
    old = csv.field_size_limit(1000)
    yield 1000
    csv.field_size_limit(old)


# The fast path tests aligned windows of limit // 2 + 1 = 501 characters.
# The long line comes first; or it starts at 504, so that a line one over the
# limit holds the window at 1002 but none of 502 characters; or it starts at
# 502 and ends the text with no final newline, the last window ending there.
LONG_LINE_PLACES = {
    "first": ("{line}\n5\n7\n", 1),
    "straddling": ("5\n" * 252 + "{line}\n7\n", 253),
    "last": ("5\n" * 251 + "{line}", 252),
}


@pytest.mark.parametrize("place", LONG_LINE_PLACES)
def test_a_line_at_the_field_limit_parses_as_the_csv_rows_do(tmp_path, field_limit, place):
    text = LONG_LINE_PLACES[place][0].format(line="0" * (field_limit - 1) + "9")
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    samples = cli._parse_rows(text, str(path), False, 127)
    assert 9 in samples
    assert cli._read_samples(str(path), False, 127) == samples


@pytest.mark.parametrize("place", LONG_LINE_PLACES)
def test_a_line_one_over_the_field_limit_is_a_data_error(capsys, tmp_path, field_limit, place):
    template, row = LONG_LINE_PLACES[place]
    path = tmp_path / "in.csv"
    path.write_text(template.format(line="0" * field_limit + "9"), encoding="utf-8")
    code, out, err = run_cli(capsys, ["run", str(path)])
    assert (code, out) == (1, "")
    assert err == f"error: {path} row {row}: field larger than field limit ({field_limit})\n"


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


@pytest.mark.parametrize("architecture", ["tree", "chain"])
def test_a_wide_simulate_stays_under_one_young_collection(tmp_path, architecture):
    # A young collection while the 32,768-item input, output and stream
    # lists are young walks every item: about 2 ms, 3-5 % of a 64-tap
    # simulate.  The command's net GC-tracked allocations must stay under
    # the generation-0 threshold that sets one off (700 before 3.13).  A
    # warm call leaves 133 (tree) and 351 (chain) on 3.11, 135 and 353 on
    # 3.12, and 144 and 362 on 3.10.
    path = tmp_path / "in.csv"
    rng = random.Random(1)
    path.write_text("".join(f"{rng.randint(0, 127)}\n" for _ in range(32768)), encoding="utf-8")
    argv = ["simulate", str(path), "--taps", "64", "--architecture", architecture,
            "-o", os.devnull, "--summary", os.devnull]
    assert main(argv) == 0  # the first call fills the interpreter's own caches
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        assert main(argv) == 0
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert grown < gc.get_threshold()[0]


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


def _f_string_rows(samples, outputs):
    return "index,input,output\n" + "".join(
        f"{i},{x},{y}\n" for i, (x, y) in enumerate(zip(samples, outputs))
    )


def _run_csv(rows):
    samples = [(7 * i) % 128 for i in range(rows)]
    outputs = [(i * i) % 128 for i in range(rows)]
    fh = io.StringIO()
    cli._write_run_csv(fh, samples, outputs, rows)
    return fh.getvalue(), _f_string_rows(samples, outputs)


@pytest.mark.parametrize(
    "rows", [0, 1, 999, 1000, 1001, 2000, 8192, 8193]
)
def test_the_run_csv_across_block_edges(rows):
    got, want = _run_csv(rows)
    assert got == want


def test_the_run_csv_index_grows_to_seven_digits():
    got, want = _run_csv(1_000_001)
    assert got.splitlines()[-3:] == want.splitlines()[-3:]


def test_a_step_csv_past_one_block(tmp_path):
    length = 8193
    path = tmp_path / "step.csv"
    argv = ["step", "--seed", "0x3a", "--length", str(length), "-o", str(path),
            "--summary", os.devnull]
    assert main(argv) == 0
    outputs = step_response(make_config(), 0x3A, length)
    assert path.read_text(encoding="utf-8") == _f_string_rows([0x3A] * length, outputs)


WIDE_SAMPLE_FLAGS = ["--sample-int-bits", "20"]


def _wide_stream(rows):
    # 20-bit samples, the largest and least included
    rng = random.Random(20)
    return [rng.choice([0, 2**20 - 1, rng.randint(0, 2**20 - 1)]) for _ in range(rows)]


def _oracle_outputs(samples, mode):
    config = make_config(sample_int_bits=20, mode=mode)
    w = config.weights
    return oracle_exact(samples, w.raw, w.raw_sum, mode, w.qformat.frac_bits,
                        config.sample_format.max_raw)


@pytest.mark.parametrize("mode", ["normalized-average", "raw-accumulate"])
def test_a_20_bit_run_csv_formats_each_value_with_d(tmp_path, csv_file, mode):
    # values past a byte in every block send it through the %d template
    rows = 3001
    samples = _wide_stream(rows)
    path = tmp_path / "run.csv"
    argv = ["run", csv_file(samples), *WIDE_SAMPLE_FLAGS, "--mode", mode, "-o", str(path)]
    assert main(argv) == 0
    want = _f_string_rows(samples, _oracle_outputs(samples, mode))
    assert path.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("architecture", ["tree", "chain"])
@pytest.mark.parametrize("mode", ["normalized-average", "raw-accumulate"])
def test_a_20_bit_cycle_csv_formats_each_value_with_d(tmp_path, csv_file, mode, architecture):
    rows = 2500
    samples = _wide_stream(rows)
    outputs = _oracle_outputs(samples, mode)
    config = make_config(sample_int_bits=20, mode=mode)
    reports = run_reference(build_reference(config, architecture), samples)[1]
    lead = len(reports) - rows  # latency - 1 ticks before the first output
    want = "".join(
        f"{t + 1},{samples[t] if t < rows else ''},{outputs[t - lead] if t >= lead else ''},"
        f"{r.ops['multiply']},{r.ops['add']},{r.ops['normalize']}\n"
        for t, r in enumerate(reports)
    )
    path = tmp_path / "cycles.csv"
    argv = ["simulate", csv_file(samples), *WIDE_SAMPLE_FLAGS, "--mode", mode,
            "--architecture", architecture, "-o", str(path), "--summary", os.devnull]
    assert main(argv) == 0
    assert path.read_text(encoding="utf-8") == "cycle,input,output,mult_ops,add_ops,other_ops\n" + want


@pytest.mark.parametrize("bits", [7, 20], ids=["bytes", "%d"])
def test_a_run_csv_holds_one_block_in_memory(tmp_path, bits):
    # The whole text of 65,536 rows is over 0.8 MB, and a list of its
    # parts over 2 MB; a block of a thousand rows is a few tens of kB.
    rows, top = 65536, 2**bits - 1
    rng = random.Random(bits)
    samples = [rng.randint(0, top) for _ in range(rows)]
    outputs = [rng.randint(0, top) for _ in range(rows)]
    path = tmp_path / "run.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            cli._write_run_csv(fh, samples, outputs, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20
    assert path.read_text(encoding="utf-8") == _f_string_rows(samples, outputs)


@pytest.mark.parametrize("architecture", ["tree", "chain"])
def test_a_cycle_csv_holds_one_block_in_memory(architecture):
    # A copy of a 200,000-tick column is 1.6 MB; a block of a thousand
    # rows is a few tens of kB.
    rng = random.Random(2)
    samples = [rng.randint(0, 127) for _ in range(200000)]
    _, trace = run_pipeline(build_pipeline(make_config(taps=16), architecture), samples)
    with open(os.devnull, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            fh.writelines(cycle_csv_blocks(trace))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20


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


@pytest.mark.parametrize("taps", [33, 64])
def test_the_default_step_length_covers_a_window_over_32_taps(capsys, tmp_path, taps):
    path = tmp_path / "step.csv"
    code, out, err = run_cli(capsys, ["step", "--taps", str(taps), "-o", str(path)])
    assert (code, err) == (0, "")
    outputs = step_response(make_config(taps=taps), 0x7F, taps)
    assert path.read_text(encoding="utf-8") == _f_string_rows([0x7F] * taps, outputs)
    assert json.loads(out) == {
        "mode": "normalized-average",
        "seed": 0x7F,
        "steady_value": outputs[-1],
        "settle_index": cli._settle_index(outputs),
        "hw_reported": "0x3a",
        "observed": f"0x{outputs[-1]:02x}",
        "match": False,
    }


def _settle_by_backward_scan(outputs):
    for i in range(len(outputs) - 1, -1, -1):
        if outputs[i] != outputs[-1]:
            return i + 2
    return 1


@settings(max_examples=150, deadline=None)
@given(config=configs(), data=st.data())
def test_the_settle_index_is_where_the_step_response_last_changes(config, data):
    seed = data.draw(st.integers(0, config.sample_format.max_raw))
    length = config.taps + data.draw(st.integers(0, 3))
    outputs = step_response(config, seed, length)
    assert cli._settle_index(outputs) == _settle_by_backward_scan(outputs)


@pytest.mark.parametrize("taps", [MAX_TAPS + 1, 100000000])
@pytest.mark.parametrize("command", [["weights"], ["step", "--length", "5"]])
def test_a_window_over_max_taps_is_one_domain_error_line(capsys, command, taps):
    code, out, err = run_cli(capsys, [*command, "--taps", str(taps)])
    assert (code, out) == (2, "")
    assert err == f"error: taps must be in 1..{MAX_TAPS}, got {taps}\n"


def test_a_window_of_max_taps_builds(capsys):
    code, out, err = run_cli(capsys, ["weights", "--taps", str(MAX_TAPS)])
    assert (code, err) == (0, "")
    assert json.loads(out)["taps"] == MAX_TAPS


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


def test_one_parser_per_process_answers_as_a_fresh_one(capsys, monkeypatch, csv_file, tmp_path):
    # Calls in one process whose flags differ from the call before: each
    # must write, print and exit as it does through a freshly built parser.
    path, headed = csv_file([3, 127, 0, 64, 5, 9]), csv_file(["sample", 3, 127], "headed.csv")
    calls = [
        ["run", path, "--taps", "4"],
        ["run", path],
        ["run", headed, "--has-header"],
        ["run", headed],
        ["run", path, "--taps", "x"],
        ["run", path, "--mode", "raw-accumulate"],
        ["simulate", path, "--architecture", "chain", "--summary", "SUMMARY"],
        ["weights"],
    ]
    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    def outcomes(fresh):
        got = []
        for k, argv in enumerate(calls):
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            out_path, summary = tmp_path / f"{fresh}{k}.csv", tmp_path / f"{fresh}{k}.json"
            argv = [str(summary) if a == "SUMMARY" else a for a in argv]
            if argv[0] != "weights":
                argv += ["-o", str(out_path)]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            files = [p.read_bytes() if p.exists() else None for p in (out_path, summary)]
            got.append((code, *capsys.readouterr(), *files))
        return got

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    shared = outcomes(fresh=False)
    assert len(builds) == 1
    assert shared == outcomes(fresh=True)
    assert [outcome[0] for outcome in shared] == [0, 0, 0, 1, 2, 0, 0, 0]


# Each command's flags in order: (option strings, dest, default, type or
# choices, required), after the help flag.
_CONFIG_FLAGS = [
    (("--config",), "config", None, None, False),
    (("--shape", "-a"), "a", None, int, False),
    (("--scale", "-b"), "b", None, float, False),
    (("--taps",), "taps", None, int, False),
    (("--frac-bits",), "frac_bits", None, int, False),
    (("--rounding",), "rounding", None, ("half-up", "half-even"), False),
    (("--mode",), "mode", None, ("normalized-average", "raw-accumulate"), False),
    (("--sample-int-bits",), "sample_int_bits", None, int, False),
    (("--sample-offset",), "sample_offset", None, float, False),
]
_SOURCE_FLAGS = [
    *_CONFIG_FLAGS,
    ((), "input", None, None, True),
    (("--has-header",), "has_header", False, None, False),
]
_OUTPUT = (("-o", "--output"), "output", "-", None, False)
_SUMMARY = (("--summary",), "summary", "-", None, False)
GRAMMAR = {
    "weights": _CONFIG_FLAGS,
    "run": [*_SOURCE_FLAGS, _OUTPUT],
    "step": [
        *_CONFIG_FLAGS,
        (("--seed",), "seed", 0x7F, cli.parse_int_literal, False),
        (("--length",), "length", None, int, False),
        _OUTPUT,
        _SUMMARY,
    ],
    "inject": [
        *_SOURCE_FLAGS,
        (("--kind",), "kind", "spike", ("spike", "stuck", "dropout"), False),
        (("--at",), "at", None, int, True),
        (("--duration",), "duration", 1, int, False),
        (("--magnitude",), "magnitude", 0, cli.parse_int_literal, False),
        _SUMMARY,
    ],
    "simulate": [
        *_SOURCE_FLAGS,
        (("--architecture",), "architecture", "tree", ("tree", "chain"), False),
        _OUTPUT,
        _SUMMARY,
    ],
}


def test_each_command_takes_its_flags_in_order():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(GRAMMAR)
    for name, flags in GRAMMAR.items():
        got = [
            (tuple(a.option_strings), a.dest, a.default,
             a.type if a.choices is None else tuple(a.choices), a.required)
            for a in commands.choices[name]._actions
        ]
        assert got == [(("-h", "--help"), "help", argparse.SUPPRESS, None, False), *flags], name
