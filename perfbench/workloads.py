"""The benchmark workloads and the oracle gate that checks every call.

Each workload drives the package only through a public entry point,
``gdswu.cli.main`` or ``gdswu.faults.sweep``, in a closed loop: one process,
one caller, the next call only after the previous one returned.  Only the
entry-point calls are timed.  After each call, outside the timed section,
the gate compares every output bit for bit with ``oracle_exact`` and every
exact model statistic with its recorded value in ``expected.json``.  Any
mismatch fails the iteration; nothing is skipped.

Entry points and oracles are looked up on their modules at call time, so
``tracing.py`` can wrap them for the traced run.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses a ``gdswu`` imported from anywhere else.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from unittest import mock

from inputs import make_samples, write_csv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

sys.path.insert(0, SRC)
import gdswu  # noqa: E402
import gdswu.cli  # noqa: E402
import gdswu.faults  # noqa: E402
import gdswu.oracle  # noqa: E402

if not os.path.abspath(gdswu.__file__).startswith(SRC + os.sep):
    raise ImportError(f"gdswu was imported from {gdswu.__file__}, not from {SRC}")


@dataclass
class Iteration:
    """One gated pass of a workload's entry-point calls."""

    elapsed: float  # host seconds inside the entry-point calls only
    samples: int  # input samples those calls consumed: the throughput unit
    errors: list[str] = field(default_factory=list)
    rows_written: int = 0  # CSV data rows the command wrote
    stats: dict = field(default_factory=dict)  # exact model statistics


def _timed_cli(argv: list[str]) -> tuple[float, list[str]]:
    gc.collect()
    start = time.perf_counter()
    code = gdswu.cli.main(argv)
    elapsed = time.perf_counter() - start
    return elapsed, [] if code == 0 else [f"gdswu {argv[0]} exited with code {code}"]


def _mismatch(what: str, got: list, want: list) -> list[str]:
    """Empty when ``got`` equals ``want``; otherwise one line naming the first difference."""
    if got == want:
        return []
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, expected {len(want)}"]
    i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    return [f"{what}[{i}] = {got[i]}, expected {want[i]}"]


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(header: list[str], body: list[list[str]], name: str) -> list[int]:
    """The non-empty integers of one named CSV column."""
    col = header.index(name)
    return [int(row[col]) for row in body if row[col] != ""]


def _cli_flags(config: dict) -> list[str]:
    return ["--taps", str(config["taps"]), "-a", str(config["a"]),
            "-b", str(config["b"]), "--mode", config["mode"]]


def model_stats(reports) -> dict:
    """Exact statistics of a pipeline run, counted from its CycleReports."""
    full = [r.total_ops for r in reports if all(r.stage_occupancy)]
    return {
        "sim_cycles": len(reports),
        "sim_latency": next((r.cycle for r in reports if r.emitted_output is not None), None),
        "sim_ops_per_cycle": sum(full) / len(full) if full else None,
        "sim_stage_busy": [sum(col) for col in zip(*(r.stage_occupancy for r in reports))],
    }


class Workload:
    """Seeded inputs, the timed entry-point calls and their gate."""

    name: str
    default_size: int
    config: dict  # keyword arguments of gdswu.make_config

    def __init__(self, seed: int, size: int, workdir: str):
        self.size = size
        self.samples = make_samples(seed, size)
        self.input_csv = os.path.join(workdir, "input.csv")
        self.base_errors: list[str] = []
        self._patches = ExitStack()

    def setup_code(self) -> str:
        """Python source a fresh interpreter runs to measure setup_s."""
        return f"import gdswu; gdswu.make_config(**{self.config!r})"

    def write_inputs(self) -> None:
        write_csv(self.input_csv, self.samples)

    def prepare(self):
        """Compute the oracle outputs the gate compares against (untimed).

        Returns the workload's FilterConfig."""
        config = gdswu.make_config(**self.config)
        self.expected = self._oracle(config, self.samples)
        self.base_errors = self._real_check(config)
        return config

    def _recorded(self) -> dict:
        """This workload's recorded exact statistics from expected.json."""
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh)[self.name]

    def iterate(self, gate: bool = True) -> Iteration:
        raise NotImplementedError

    def close(self) -> None:
        self._patches.close()

    @staticmethod
    def _oracle(config, stream: list[int]) -> list[int]:
        w = config.weights
        return gdswu.oracle.oracle_exact(
            stream, w.raw, w.raw_sum, config.mode, w.qformat.frac_bits,
            config.sample_format.max_raw,
        )

    def _real_check(self, config) -> list[str]:
        """The exact outputs stay within quantization_error_bound of oracle_real."""
        real = gdswu.oracle.oracle_real(
            self.samples, config.params, config.taps, config.mode,
            sample_max=config.sample_format.max_raw,
            sample_offset=config.weights.sample_offset,
        )
        bound = gdswu.oracle.quantization_error_bound(
            config.weights, config.mode, config.sample_format.max_raw
        )
        report = gdswu.oracle.compare(self.expected, real, bound)
        if report.mismatch_count:
            return [f"oracle_exact departs from oracle_real by more than {bound} "
                    f"at output {report.first_mismatch_index}"]
        return []


class RunStream(Workload):
    name = "run-stream"
    default_size = 65536
    config = {"a": 2, "b": 5.0, "taps": 16, "mode": "normalized-average"}

    def __init__(self, seed: int, size: int, workdir: str):
        super().__init__(seed, size, workdir)
        self.output_csv = os.path.join(workdir, "run.csv")
        self.argv = ["run", self.input_csv, *_cli_flags(self.config), "-o", self.output_csv]

    def iterate(self, gate: bool = True) -> Iteration:
        elapsed, errors = _timed_cli(self.argv)
        it = Iteration(elapsed, self.size, errors)
        if gate and not errors:
            header, body = _read_csv(self.output_csv)
            it.rows_written = len(body)
            if header != ["index", "input", "output"]:
                it.errors.append(f"unexpected run CSV header {header}")
            else:
                it.errors += _mismatch("input", _column(header, body, "input"), self.samples)
                it.errors += _mismatch("output", _column(header, body, "output"), self.expected)
        return it


class SimulateWide(Workload):
    name = "simulate-wide"
    default_size = 32768
    config = {"a": 4, "b": 8.0, "taps": 64, "mode": "normalized-average"}
    architectures = ("tree", "chain")

    def __init__(self, seed: int, size: int, workdir: str):
        super().__init__(seed, size, workdir)
        self.argv = {}
        for arch in self.architectures:
            self.argv[arch] = [
                "simulate", self.input_csv, *_cli_flags(self.config), "--architecture", arch,
                "-o", os.path.join(workdir, f"cycles-{arch}.csv"),
                "--summary", os.path.join(workdir, f"summary-{arch}.json"),
            ]
        # The gate reads the CycleReports the command computed; this keeps
        # the last (outputs, reports) pair that run_pipeline returned.
        self._captured = None
        original = gdswu.cli.run_pipeline

        def capture(model, samples):
            self._captured = original(model, samples)
            return self._captured

        self._patches.enter_context(mock.patch.object(gdswu.cli, "run_pipeline", capture))

    def setup_code(self) -> str:
        return (f"import gdswu; c = gdswu.make_config(**{self.config!r}); "
                f"[gdswu.build_pipeline(c, a) for a in {self.architectures!r}]")

    def prepare(self):
        config = super().prepare()
        recorded = self._recorded()
        if str(self.size) not in recorded:
            raise ValueError(f"expected.json records no model statistics for {self.size} samples")
        self.recorded = recorded[str(self.size)]
        return config

    def iterate(self, gate: bool = True) -> Iteration:
        it = Iteration(0.0, 0)
        for arch in self.architectures:
            elapsed, errors = _timed_cli(self.argv[arch])
            captured, self._captured = self._captured, None
            it.elapsed += elapsed
            it.samples += self.size
            if gate:
                it.errors += errors or self._check(arch, captured, it)
        return it

    def _check(self, arch: str, captured, it: Iteration) -> list[str]:
        if captured is None:
            return [f"{arch}: the command made no run_pipeline call"]
        stats = model_stats(captured[1])
        it.stats[arch] = stats
        errors = [f"{arch} {key} = {stats[key]}, recorded {want}"
                  for key, want in self.recorded[arch].items() if stats[key] != want]
        argv = self.argv[arch]
        header, body = _read_csv(argv[argv.index("-o") + 1])
        it.rows_written += len(body)
        if len(body) != stats["sim_cycles"]:
            errors.append(f"{arch}: {len(body)} cycle CSV rows for {stats['sim_cycles']} cycles")
        errors += _mismatch(f"{arch} input", _column(header, body, "input"), self.samples)
        errors += _mismatch(f"{arch} output", _column(header, body, "output"), self.expected)
        with open(argv[argv.index("--summary") + 1], encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary["latency"] != stats["sim_latency"]:
            errors.append(f"{arch}: summary latency {summary['latency']}, "
                          f"first output on tick {stats['sim_latency']}")
        return errors


class FaultSweep(Workload):
    name = "fault-sweep"
    default_size = 4096
    config = {"a": 4, "b": 8.0, "taps": 64, "mode": "raw-accumulate"}
    kinds = ("spike", "stuck", "dropout")
    durations = (1, 16)
    magnitude = 127

    def __init__(self, seed: int, size: int, workdir: str):
        super().__init__(seed, size, workdir)
        starts = (size // 4, 3 * size // 4)
        self.specs = [gdswu.FaultSpec(kind, start, duration, self.magnitude)
                      for kind in self.kinds for start in starts for duration in self.durations]

    def write_inputs(self) -> None:
        """The sweep takes its stream as a list; there is no file to write."""

    def prepare(self):
        config = super().prepare()
        self.expected_reports = [self._oracle_report(config, spec) for spec in self.specs]
        deviations = [r["max_output_deviation"] for r in self.expected_reports]
        self.expected_aggregate = {
            "count": len(self.specs),
            "max_deviation": max(deviations),
            "worst_bound_slack": min(r["analytic_bound"] - r["max_output_deviation"]
                                     for r in self.expected_reports),
            "all_bounds_satisfied": all(r["bound_satisfied"] for r in self.expected_reports),
        }
        for key, want in self._recorded().items():
            got = self.expected_aggregate[key.removeprefix("fault.")]
            if got != want:
                self.base_errors.append(f"oracle {key} = {got}, recorded {want}")
        return config

    def _oracle_report(self, config, spec) -> dict:
        """Deviation, recovery index and analytic bound recomputed from oracle_exact."""
        end = spec.start + spec.duration
        faulty = list(self.samples)
        faulty[spec.start:end] = [0 if spec.kind == "dropout" else spec.magnitude] * spec.duration
        diffs = [abs(f - c) for f, c in zip(self._oracle(config, faulty), self.expected)]
        changed = [i for i, d in enumerate(diffs) if d]
        deviation = max(diffs)
        delta = max(abs(f - c) for f, c in zip(faulty[spec.start:end], self.samples[spec.start:end]))
        top = sum(sorted(config.weights.raw, reverse=True)[:min(spec.duration, config.taps)])
        if config.mode == gdswu.MODE_NORMALIZED:
            divisor = config.weights.raw_sum
        else:
            divisor = 1 << config.weights.qformat.frac_bits
        bound = -(-top * delta // divisor) + 1
        return {
            "kind": spec.kind, "start": spec.start, "duration": spec.duration,
            "magnitude": spec.magnitude,
            "max_output_deviation": deviation,
            "analytic_bound": bound,
            "recovery_index": max(end, changed[-1] + 1 if changed else 0),
            "bound_satisfied": deviation <= bound,
        }

    def iterate(self, gate: bool = True) -> Iteration:
        config = gdswu.make_config(**self.config)
        gc.collect()
        start = time.perf_counter()
        result = gdswu.faults.sweep(self.specs, config, [self.samples])
        it = Iteration(time.perf_counter() - start, self.size * len(self.specs))
        if gate:
            self._check(result, it)
        return it

    def _check(self, result: dict, it: Iteration) -> None:
        reports = result["reports"]
        if len(reports) != len(self.expected_reports):
            it.errors.append(f"{len(reports)} reports for {len(self.expected_reports)} specs")
        for i, (got, want) in enumerate(zip(reports, self.expected_reports)):
            got = {**got, **got["spec"]}
            wrong = {k: got[k] for k in want if got[k] != want[k]}
            if wrong:
                it.errors.append(f"report {i}: {wrong}, oracle gives "
                                 f"{ {k: want[k] for k in wrong} }")
        aggregate = result["aggregate"]
        for key, want in self.expected_aggregate.items():
            if aggregate[key] != want:
                it.errors.append(f"aggregate {key} = {aggregate[key]}, oracle gives {want}")
        it.stats = {"fault.worst_bound_slack": aggregate["worst_bound_slack"],
                    "fault.all_bounds_satisfied": aggregate["all_bounds_satisfied"]}


WORKLOADS = {cls.name: cls for cls in (RunStream, SimulateWide, FaultSweep)}
