"""Command-line front end: weights, run, step, inject, simulate.

All data outputs are deterministic: CSV with LF line endings, JSON with a
stable key order, no timestamps.  Seeds and magnitudes accept 0x-prefixed
hex; CSV values are always decimal.  Exit codes: 0 success, 1 data error
(unreadable input, malformed or out-of-range input row), 2 usage or domain
error (an unreadable config file or unwritable output included).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
from contextlib import contextmanager

from .core import (
    MODES,
    FilterConfig,
    GammaWindowFilter,
    check_samples,
    make_config,
    step_response,
)
from .faults import FAULT_KINDS, FaultSpec, attenuation_report
from .fixed_point import ROUNDING_MODES
from .systolic import (
    ARCHITECTURES,
    CYCLE_CSV_HEADER,
    build_pipeline,
    cycle_csv_lines,
    run_pipeline,
)

# Reference figures quoted for the original FPGA implementation of this unit;
# reports compare against them without forcing a match.
HW_REPORTED_STEP_STEADY = 0x3A
HW_CLAIMED_OPS_PER_CYCLE = 22

# Rows formatted per write: the CSV writers never hold a full-size row list.
BLOCK_ROWS = 8192

# Config keys and their value types, from the parameters of make_config.
_CONFIG_TYPES = {
    name: type(param.default)
    for name, param in inspect.signature(make_config).parameters.items()
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
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    samples = _parse_fast(text, has_header, max_raw)
    return _parse_rows(text, path, has_header, max_raw) if samples is None else samples


def _parse_fast(text: str, has_header: bool, max_raw: int) -> list[int] | None:
    """The samples of plain one-column ``text``; None for any other text.

    With no ``,``, ``"`` or ``\\r`` in the text every row is one unquoted
    field ending at ``\\n``, so splitting at ``\\n`` finds the rows
    ``csv.reader`` would (``str.splitlines`` would also split at ``\\v``,
    ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and ``\\u2029``).
    A row ``_parse_rows`` would reject also gives None, so that it can name
    the row.
    """
    if "," in text or '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    try:
        values = list(map(int, lines[1:] if has_header else lines))
    except ValueError:
        return None
    checked, error = check_samples(values, max_raw)
    return checked if error is None else None


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
            if not 0 <= value <= max_raw:
                raise DataError(
                    f"{path} row {row_number}: sample {value} out of range 0..{max_raw}"
                )
            samples.append(value)
    except csv.Error as exc:
        raise DataError(f"{path} row {row_number + 1}: {exc}") from None
    return samples


def _check_level(flag: str, value: int, config: FilterConfig) -> None:
    """A flag that sets a sample level must fit the sample format (exit 2)."""
    max_raw = config.sample_format.max_raw
    if not 0 <= value <= max_raw:
        raise ValueError(f"{flag} {value} out of range 0..{max_raw}")


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    with fh:
        yield fh


def _print_json(obj: dict, path: str) -> None:
    with _open_out(path) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _write_run_csv(fh, samples, outputs) -> None:
    fh.write("index,input,output\n")
    for lo in range(0, len(outputs), BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        rows = zip(range(lo, hi), samples[lo:hi], outputs[lo:hi])
        fh.write("".join([f"{i},{x},{y}\n" for i, x, y in rows]))


def cmd_weights(ns: argparse.Namespace) -> int:
    config = _resolve_config(ns)
    print(json.dumps(config.weights.to_json_dict(), indent=2))
    return 0


def cmd_run(ns: argparse.Namespace) -> int:
    config = _resolve_config(ns)
    samples = _read_samples(ns.input, ns.has_header, config.sample_format.max_raw)
    outputs = GammaWindowFilter(config).run(samples)
    with _open_out(ns.output) as fh:
        _write_run_csv(fh, samples, outputs)
    return 0


def _settle_index(outputs: list[int]) -> int:
    """1-based count of samples after which the output stays at its final value."""
    steady = outputs[-1]
    settle = 1
    for i in range(len(outputs) - 1, -1, -1):
        if outputs[i] != steady:
            settle = i + 2
            break
    return settle


def cmd_step(ns: argparse.Namespace) -> int:
    config = _resolve_config(ns)
    _check_level("--seed", ns.seed, config)
    outputs = step_response(config, ns.seed, ns.length)
    with _open_out(ns.output) as fh:
        _write_run_csv(fh, [ns.seed] * ns.length, outputs)
    steady = outputs[-1]
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
    report = attenuation_report(samples, spec, config)
    _print_json({"spec": dict(vars(spec)), **vars(report)}, ns.summary)
    return 0


def cmd_simulate(ns: argparse.Namespace) -> int:
    config = _resolve_config(ns)
    samples = _read_samples(ns.input, ns.has_header, config.sample_format.max_raw)
    model = build_pipeline(config, ns.architecture)
    _, reports = run_pipeline(model, samples)
    with _open_out(ns.output) as fh:
        fh.write(",".join(CYCLE_CSV_HEADER) + "\n")
        for lo in range(0, len(reports), BLOCK_ROWS):
            fh.write(cycle_csv_lines(reports[lo:lo + BLOCK_ROWS]))
    # Ops are those of the first cycle with every stage busy; a stream
    # shorter than the pipeline never fills it, so it has none to report.
    full = next((r for r in reports if all(r.stage_occupancy)), None)
    total = None if full is None else full.total_ops
    footer = {
        "taps": config.taps,
        "architecture": ns.architecture,
        "latency": model.latency,
        "ops": None if full is None else full.ops,
        "ops_per_cycle_total": total,
        "hw_claimed_ops_per_cycle": HW_CLAIMED_OPS_PER_CYCLE,
        "ops_delta": None if total is None else total - HW_CLAIMED_OPS_PER_CYCLE,
    }
    _print_json(footer, ns.summary)
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value run-config file")
    parser.add_argument("--shape", "-a", dest="a", type=int, help="gamma shape (positive integer)")
    parser.add_argument("--scale", "-b", dest="b", type=float, help="gamma scale (> 0)")
    parser.add_argument("--taps", type=int, help="window length (default 16)")
    parser.add_argument("--frac-bits", type=int, help="weight fractional bits (default 7)")
    parser.add_argument("--rounding", choices=ROUNDING_MODES, help="weight rounding mode")
    parser.add_argument("--mode", choices=MODES, help="output mode")
    parser.add_argument("--sample-int-bits", type=int, help="sample width in bits (default 7)")
    parser.add_argument(
        "--sample-offset", type=float, help="density sample point offset (default 0)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdswu",
        description="Gamma-weighted sliding-window filter tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="print the quantized weight vector as JSON")
    _add_config_flags(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("run", help="filter a CSV sample stream")
    _add_config_flags(p)
    p.add_argument("input", help="input CSV path, or - for stdin")
    p.add_argument("--has-header", action="store_true", help="skip the first input row")
    p.add_argument("-o", "--output", default="-", metavar="PATH", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("step", help="constant-seed step response plus summary")
    _add_config_flags(p)
    p.add_argument("--seed", type=parse_int_literal, default=0x7F, help="step level (hex ok, default 0x7F)")
    p.add_argument("--length", type=int, default=32, help="number of samples (default 32)")
    p.add_argument("-o", "--output", default="-", metavar="PATH", help="waveform CSV (default stdout)")
    p.add_argument("--summary", default="-", metavar="PATH", help="summary JSON (default stdout)")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("inject", help="inject a transient fault and report attenuation")
    _add_config_flags(p)
    p.add_argument("input", help="clean input CSV path, or - for stdin")
    p.add_argument("--has-header", action="store_true", help="skip the first input row")
    p.add_argument("--kind", choices=FAULT_KINDS, default="spike")
    p.add_argument("--at", type=int, required=True, help="first faulted sample index")
    p.add_argument("--duration", type=int, default=1, help="faulted sample count (default 1)")
    p.add_argument("--magnitude", type=parse_int_literal, default=0, help="fault level (hex ok)")
    p.add_argument("--summary", default="-", metavar="PATH", help="report JSON (default stdout)")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("simulate", help="cycle-accurate pipeline run over a CSV stream")
    _add_config_flags(p)
    p.add_argument("input", help="input CSV path, or - for stdin")
    p.add_argument("--has-header", action="store_true", help="skip the first input row")
    p.add_argument("--architecture", choices=ARCHITECTURES, default="tree")
    p.add_argument("-o", "--output", default="-", metavar="PATH", help="cycle CSV (default stdout)")
    p.add_argument("--summary", default="-", metavar="PATH", help="footer JSON (default stdout)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Point stdout at
        # devnull so that the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
