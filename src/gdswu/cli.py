"""Command-line front end: weights, run, step, inject, simulate.

All data outputs are deterministic: CSV with LF line endings, JSON with a
stable key order, no timestamps.  Seeds and magnitudes accept 0x-prefixed
hex; CSV values are always decimal.  Exit codes: 0 success, 1 data error
(unreadable input, a closed stdin included, malformed or out-of-range
input row, a reader that closed stdout early, or running out of memory),
2 usage or domain error (an unreadable config file and an output that
cannot be opened or written included, a closed stdout too).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from contextlib import contextmanager, suppress

from .core import (
    MODES,
    FilterConfig,
    GammaWindowFilter,
    check_sample,
    make_config,
    step_response,
)
from .csv_rows import numbered_rows
from .faults import FAULT_KINDS, FaultSpec, sweep
from .fixed_point import ROUNDING_MODES
from .systolic import (
    ARCHITECTURES,
    CYCLE_CSV_HEADER,
    build_pipeline,
    cycle_csv_blocks,
    run_pipeline,
)

# Reference figures quoted for the original FPGA implementation of this unit;
# reports compare against them without forcing a match.
HW_REPORTED_STEP_STEADY = 0x3A
HW_CLAIMED_OPS_PER_CYCLE = 22

# Config keys and their value types, from the parameters of make_config,
# each of which has a default.
_CONFIG_TYPES = {
    name: type(default)
    for name, default in zip(make_config.__code__.co_varnames, make_config.__defaults__)
}


class DataError(Exception):
    """Malformed input data (exit code 1)."""


def parse_int_literal(text: str) -> int:
    """Integer flag value; accepts 0x-prefixed hex."""
    return int(text, 0)


def load_config_file(path: str) -> dict:
    """Parse a key=value run-config file; errors name the key and line.

    The keys and their value types are those of ``_CONFIG_TYPES``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(
                f"{path} line {line_number}: expected key = value, got {stripped!r}"
            )
        key, _, raw_value = stripped.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path} line {line_number}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](raw_value)
        except ValueError:
            raise ValueError(
                f"{path} line {line_number}: invalid value {raw_value!r} for key {key!r}"
            ) from None
    return values


def _resolve_config(ns: argparse.Namespace) -> FilterConfig:
    """make_config's defaults, overlaid by --config file values, overlaid by
    explicit flags."""
    settings = {} if ns.config is None else load_config_file(ns.config)
    for key in _CONFIG_TYPES:
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    return make_config(**settings)


def _read_samples(path: str, has_header: bool, max_raw: int) -> list[int]:
    """One decimal integer sample in 0..max_raw per CSV row.

    The input grammar is that of ``csv.reader`` with the default dialect.
    The input (a file, or stdin for ``-``) is decoded as strict UTF-8.  Rows
    end at ``\\n``, ``\\r\\n`` or a lone ``\\r``; a final row needs no row end.
    A sample is the first column of its row, optionally in double quotes,
    with surrounding whitespace ignored; further columns are ignored.  A
    field longer than ``csv.field_size_limit()`` (131,072 characters unless
    changed) is an error.  With ``has_header`` the first row is skipped
    unread.
    """
    try:
        if path == "-":
            data = _std(sys.stdin).buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    samples = _parse_fast(text, has_header, max_raw)
    return _parse_rows(text, path, has_header, max_raw) if samples is None else samples


# Rows per value of 0..max_raw before a parse's table from each value's
# text to its int pays: an entry costs about one int() to build, and a
# 64-bit sample format never builds its 2**64 entries.
_TABLE_ROWS_PER_VALUE = 8


def table_pays(top: int, rows: int) -> bool:
    """Whether ``rows`` lines pay for a table of each value in ``0..top``."""
    return (top + 1) * _TABLE_ROWS_PER_VALUE <= rows


def _parse_fast(text: str, has_header: bool, max_raw: int) -> list[int] | None:
    """The samples of plain one-column ``text``; None for any other text.

    With no ``,``, ``"`` or ``\\r`` in the text every row is one unquoted
    field ending at ``\\n``, so splitting at ``\\n`` finds the rows
    ``csv.reader`` would (``str.splitlines`` would also split at ``\\v``,
    ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and ``\\u2029``).
    A row ``_parse_rows`` would reject also gives None, so that it can name
    the row.

    With ``w = limit // 2 + 1``, where ``limit`` is
    ``csv.field_size_limit()``, a line longer than the limit has at least
    ``2w - 1`` characters, so it covers a whole window ``[k, k + w)`` with
    ``k`` a multiple of ``w``.  Testing those windows for a ``\\n`` finds
    every such line without measuring each one.  A line of ``w`` to
    ``limit`` characters can trip the test too; the ``csv`` path then gives
    the same samples.

    When the lines pay for a table of ``0..max_raw`` (``table_pays``),
    each line is looked up in a table from ``str(v)`` to ``v``.  A hit
    means the line is exactly ``str(v)``, which ``int`` also reads as
    ``v``, and every table value is in range.  Any miss (``+5``,
    `` 5``, ``007``, ``1_0``, ``-0``, non-ASCII digits, an out-of-range
    value) falls back to ``int``, which yields only ints, so its values
    need only a range test.
    """
    if "," in text or '"' in text or "\r" in text:
        return None
    w = csv.field_size_limit() // 2 + 1
    if any(text.find("\n", k, k + w) < 0 for k in range(0, len(text) - w + 1, w)):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if has_header:
        del lines[:1]
    if table_pays(max_raw, len(lines)):
        table = {str(v): v for v in range(max_raw + 1)}
        with suppress(KeyError):
            return list(map(table.__getitem__, lines))
    try:
        values = list(map(int, lines))
    except ValueError:
        return None
    if values and (min(values) < 0 or max(values) > max_raw):
        return None
    return values


def _parse_rows(text: str, path: str, has_header: bool, max_raw: int) -> list[int]:
    """``_read_samples`` row by row through ``csv.reader``; errors name the row."""
    rows = csv.reader(io.StringIO(text, newline=""))
    samples = []
    row_number = 0
    try:
        for row_number, row in enumerate(rows, start=1):
            if has_header and row_number == 1:
                continue
            if not row or not row[0].strip():
                raise DataError(f"{path} row {row_number}: empty row")
            field = row[0].strip()
            try:
                value = int(field)
            except ValueError:
                raise DataError(
                    f"{path} row {row_number}: not an integer: {field!r}"
                ) from None
            try:
                samples.append(check_sample(value, max_raw))
            except ValueError as exc:
                raise DataError(f"{path} row {row_number}: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path} row {row_number + 1}: {exc}") from None
    return samples


def _check_level(flag: str, value: int, config: FilterConfig) -> None:
    """A flag that sets a sample level must fit the sample format (exit 2)."""
    try:
        check_sample(value, config.sample_format.max_raw)
    except ValueError as exc:
        # check_sample's message, naming the flag in place of "sample"
        raise ValueError(str(exc).replace("sample", flag, 1)) from None


def _std(stream):
    """``stream``, a standard stream; None, where its descriptor was closed
    when the interpreter started, raises OSError."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _stdout_to_devnull() -> None:
    """Point stdout at devnull, so that the flush at interpreter exit cannot
    fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


@contextmanager
def _open_out(path: str):
    """Stdout for ``-``, else the file at ``path``.  A failed open or write
    is a domain error naming ``path``; a closed stdout pipe is let through."""
    try:
        if path == "-":
            yield _std(sys.stdout)
            sys.stdout.flush()
        else:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                yield fh
    except BrokenPipeError:
        raise
    except OSError as exc:
        if path == "-" and sys.stdout is not None:
            _stdout_to_devnull()
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _print_json(obj: dict, path: str) -> None:
    with _open_out(path) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _write_run_csv(fh, inputs, outputs, rows: int) -> None:
    """The run CSV of rows 0 to ``rows - 1`` of ``inputs`` and ``outputs``,
    indexed from 0.  The columns are read in place, one slice per block of
    a thousand rows, and a block is built as bytes where its values fit a
    byte, else formatted with ``%d`` (``csv_rows``)."""
    fh.write("index,input,output\n")
    fh.writelines(numbered_rows(0, inputs, outputs, 0, rows))


class _Held(list):
    """A list whose slices run on past its end, repeating its last item."""

    __slots__ = ()

    def __getitem__(self, s: slice) -> list:
        head = list.__getitem__(self, s)
        return head + [list.__getitem__(self, -1)] * (s.stop - s.start - len(head))


def cmd_weights(ns: argparse.Namespace) -> int:
    _print_json(_resolve_config(ns).weights.to_json_dict(), "-")
    return 0


def cmd_run(ns: argparse.Namespace) -> int:
    config = _resolve_config(ns)
    samples = _read_samples(ns.input, ns.has_header, config.sample_format.max_raw)
    outputs = GammaWindowFilter(config).run(samples)
    with _open_out(ns.output) as fh:
        _write_run_csv(fh, samples, outputs, len(samples))
    return 0


def _settle_index(outputs: list[int]) -> int:
    """1-based count of samples after which the output stays at its final
    value; a step response never decreases, so it is the first index of
    that value, plus one."""
    return outputs.index(outputs[-1]) + 1


def cmd_step(ns: argparse.Namespace) -> int:
    config = _resolve_config(ns)
    _check_level("--seed", ns.seed, config)
    length = max(32, config.taps) if ns.length is None else ns.length
    # the window is full from the taps-th sample on, so later outputs repeat
    outputs = step_response(config, ns.seed, min(length, config.taps))
    steady = outputs[-1]
    # endless columns, bounded by the row count: they hold only the seed
    # and the taps outputs, whatever the length and the sample format
    with _open_out(ns.output) as fh:
        _write_run_csv(fh, _Held([ns.seed]), _Held(outputs), length)
    summary = {
        "mode": config.mode,
        "seed": ns.seed,
        "steady_value": steady,
        "settle_index": _settle_index(outputs),
        "hw_reported": f"0x{HW_REPORTED_STEP_STEADY:02x}",
        "observed": f"0x{steady:02x}",
        "match": steady == HW_REPORTED_STEP_STEADY,
    }
    _print_json(summary, ns.summary)
    return 0


def cmd_inject(ns: argparse.Namespace) -> int:
    config = _resolve_config(ns)
    samples = _read_samples(ns.input, ns.has_header, config.sample_format.max_raw)
    spec = FaultSpec(
        kind=ns.kind, start=ns.at, duration=ns.duration, magnitude=ns.magnitude
    )
    _check_level("--magnitude", spec.replacement_value, config)
    _print_json(sweep([spec], config, [samples])["reports"][0], ns.summary)
    return 0


def cmd_simulate(ns: argparse.Namespace) -> int:
    config = _resolve_config(ns)
    samples = _read_samples(ns.input, ns.has_header, config.sample_format.max_raw)
    model = build_pipeline(config, ns.architecture)
    _, trace = run_pipeline(model, samples)
    with _open_out(ns.output) as fh:
        fh.write(",".join(CYCLE_CSV_HEADER) + "\n")
        fh.writelines(cycle_csv_blocks(trace))
    ops = trace.steady_ops()
    total = None if ops is None else sum(ops.values())
    footer = {
        "taps": config.taps,
        "architecture": ns.architecture,
        "latency": model.latency,
        "ops": ops,
        "ops_per_cycle_total": total,
        "hw_claimed_ops_per_cycle": HW_CLAIMED_OPS_PER_CYCLE,
        "ops_delta": None if total is None else total - HW_CLAIMED_OPS_PER_CYCLE,
    }
    _print_json(footer, ns.summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdswu",
        description="Gamma-weighted sliding-window filter tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that commands share, declared once: the run config, then
    # the input stream
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", help="key=value run-config file")
    config.add_argument("--shape", "-a", dest="a", type=int, help="gamma shape (positive integer)")
    config.add_argument("--scale", "-b", dest="b", type=float, help="gamma scale (> 0)")
    config.add_argument("--taps", type=int, help="window length (default 16)")
    config.add_argument("--frac-bits", type=int, help="weight fractional bits (default 7)")
    config.add_argument("--rounding", choices=ROUNDING_MODES, help="weight rounding mode")
    config.add_argument("--mode", choices=MODES, help="output mode")
    config.add_argument("--sample-int-bits", type=int, help="sample width in bits (default 7)")
    config.add_argument(
        "--sample-offset", type=float, help="density sample point offset (default 0)"
    )
    source = argparse.ArgumentParser(add_help=False, parents=[config])
    source.add_argument("input", help="input CSV path, or - for stdin")
    source.add_argument("--has-header", action="store_true", help="skip the first input row")

    p = sub.add_parser("weights", parents=[config], help="print the quantized weight vector as JSON")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("run", parents=[source], help="filter a CSV sample stream")
    p.add_argument("-o", "--output", default="-", metavar="PATH", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("step", parents=[config], help="constant-seed step response plus summary")
    p.add_argument("--seed", type=parse_int_literal, default=0x7F, help="step level (hex ok, default 0x7F)")
    p.add_argument("--length", type=int, help="number of samples (default the larger of 32 and taps)")
    p.add_argument("-o", "--output", default="-", metavar="PATH", help="waveform CSV (default stdout)")
    p.add_argument("--summary", default="-", metavar="PATH", help="summary JSON (default stdout)")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("inject", parents=[source], help="inject a transient fault and report attenuation")
    p.add_argument("--kind", choices=FAULT_KINDS, default="spike")
    p.add_argument("--at", type=int, required=True, help="first faulted sample index")
    p.add_argument("--duration", type=int, default=1, help="faulted sample count (default 1)")
    p.add_argument("--magnitude", type=parse_int_literal, default=0, help="fault level (hex ok)")
    p.add_argument("--summary", default="-", metavar="PATH", help="report JSON (default stdout)")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("simulate", parents=[source], help="cycle-accurate pipeline run over a CSV stream")
    p.add_argument("--architecture", choices=ARCHITECTURES, default="tree")
    p.add_argument("-o", "--output", default="-", metavar="PATH", help="cycle CSV (default stdout)")
    p.add_argument("--summary", default="-", metavar="PATH", help="footer JSON (default stdout)")
    p.set_defaults(func=cmd_simulate)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # One parser per process, built on the first call, not at import:
    # parse_args keeps no per-call state on it, and a build costs about a
    # millisecond and 323 young GC objects.
    global _parser
    if _parser is None:
        _parser = build_parser()
    ns = _parser.parse_args(argv)
    try:
        return ns.func(ns)
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).
        _stdout_to_devnull()
        return 1
    except (DataError, ValueError, MemoryError) as exc:
        # a failed write of the error line must not change the exit code
        with suppress(OSError):
            print("error:", "out of memory" if isinstance(exc, MemoryError) else exc, file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
