"""Cycle-accurate model of the fully pipelined window datapath.

Two architectures, both emitting outputs bit-identical to
``GammaWindowFilter`` shifted by ``latency - 1`` ticks (the first output
appears on tick number ``latency``, then one per tick at steady state):

- "tree" (default): one multiplier stage with ``taps`` parallel multipliers,
  ``max(1, ceil(log2 taps))`` pairwise-adder stages, one normalize stage.
  Stage count and latency are ``2 + max(1, ceil(log2 taps))`` — 6 for a
  16-tap window; a single-tap tree degenerates to a pass-through level.
- "chain": a linear string of multiply-accumulate elements, one per tap,
  reading a double-spaced delay line, plus the normalize stage; latency is
  ``taps + 1``.

Operation-counting convention: each multiplier is one op, each 2-input adder
is one op, the final divide/shift is one op.  Both architectures therefore
run ``taps`` multiplies, ``taps - 1`` adds and 1 normalize per cycle at
steady state — 32 ops for 16 taps.  Each tick's ``CycleReport`` counts the
ops it fired, and the CLI footer reports those measured on the first cycle
in which every stage is busy, not this formula.  The original hardware unit
quotes 22 operations per cycle for the same window; the delta is surfaced in
reports rather than reconciled, since that figure's counting rules are not
decomposable.

A tick's sample must be an int in the sample format's range; otherwise the
tick raises TypeError or ValueError and leaves the model unchanged.  An idle
tick (input None) clocks a zero into the delay line and launches no output;
equivalence with the in-memory filter holds for gapless streams plus a
trailing drain, which is what ``run_pipeline`` does.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

from .core import FilterConfig, _normalize, check_sample

ARCHITECTURES: tuple[str, ...] = ("tree", "chain")


@dataclass(frozen=True)
class PipelineConfig:
    """Static stage plan for one architecture and window length."""

    taps: int
    architecture: str = "tree"

    def __post_init__(self):
        taps = operator.index(self.taps)
        if taps < 1:
            raise ValueError(f"taps must be >= 1, got {self.taps}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}, expected one of {ARCHITECTURES}"
            )
        object.__setattr__(self, "taps", taps)

    @property
    def tree_depth(self) -> int:
        """Adder-tree levels; a 1-tap tree still occupies one pass-through level."""
        return max(1, (self.taps - 1).bit_length())

    @property
    def latency(self) -> int:
        """Stage count, which is also the tick on which the first output appears."""
        if self.architecture == "tree":
            return 2 + self.tree_depth
        return self.taps + 1


@dataclass
class CycleReport:
    """What one clock tick did: ops fired, stage occupancy, any output."""

    cycle: int
    consumed_input: int | None
    emitted_output: int | None
    ops: dict[str, int]
    stage_occupancy: tuple[bool, ...]

    @property
    def total_ops(self) -> int:
        return sum(self.ops.values())


CYCLE_CSV_HEADER = ("cycle", "input", "output", "mult_ops", "add_ops", "other_ops")


def cycle_csv_row(report: CycleReport) -> tuple:
    """Flatten a CycleReport into the cycle-CSV column order."""
    return (
        report.cycle,
        "" if report.consumed_input is None else report.consumed_input,
        "" if report.emitted_output is None else report.emitted_output,
        report.ops["multiply"],
        report.ops["add"],
        report.ops["normalize"],
    )


def _pairwise(values: list[int]) -> tuple[list[int], int]:
    """One adder-tree level: pairwise sums, odd element passes through."""
    out = []
    adds = 0
    for i in range(0, len(values) - 1, 2):
        out.append(values[i] + values[i + 1])
        adds += 1
    if len(values) % 2:
        out.append(values[-1])
    return out, adds


class TreePipeline:
    """Multiplier stage -> binary adder tree -> normalize, one latch per stage."""

    def __init__(self, config: FilterConfig):
        self.config = config
        self.plan = PipelineConfig(config.taps, "tree")
        self._max_raw = config.sample_format.max_raw
        self._window: deque[int] = deque([0] * config.taps, maxlen=config.taps)
        self._products: list[int] | None = None
        self._sums: list[list[int] | None] = [None] * self.plan.tree_depth
        self._cycle = 0

    @property
    def latency(self) -> int:
        return self.plan.latency

    def tick(self, sample: int | None = None) -> tuple[int | None, CycleReport]:
        if sample is not None:
            sample = check_sample(sample, self._max_raw)
        self._cycle += 1
        ops = {"multiply": 0, "add": 0, "normalize": 0}

        # Normalize stage consumes the last tree level's latch.
        output = None
        final = self._sums[-1]
        if final is not None:
            output = _normalize(self.config, final)[0]
            ops["normalize"] += 1

        # Tree levels consume the previous level's latch from last tick.
        new_sums: list[list[int] | None] = [None] * self.plan.tree_depth
        for level in range(self.plan.tree_depth - 1, 0, -1):
            below = self._sums[level - 1]
            if below is not None:
                new_sums[level], adds = _pairwise(below)
                ops["add"] += adds
        if self._products is not None:
            new_sums[0], adds = _pairwise(self._products)
            ops["add"] += adds

        # Multiplier stage: the delay line clocks every tick (zero on idle);
        # products latch only when a real sample entered.
        self._window.appendleft(0 if sample is None else sample)
        new_products = None
        if sample is not None:
            new_products = [w * x for w, x in zip(self.config.weights.raw, self._window)]
            ops["multiply"] += len(new_products)

        self._products = new_products
        self._sums = new_sums
        occupancy = (
            self._products is not None,
            *(s is not None for s in self._sums),
            output is not None,
        )
        report = CycleReport(self._cycle, sample, output, ops, occupancy)
        return output, report


class ChainPipeline:
    """Linear MAC chain: element j adds weight[j] times the lag-j sample.

    The delay line is double-spaced (element j reads position 2j) so that a
    partial sum travelling down the chain always meets the sample it needs —
    the classic systolic direct form.
    """

    def __init__(self, config: FilterConfig):
        self.config = config
        self.plan = PipelineConfig(config.taps, "chain")
        self._max_raw = config.sample_format.max_raw
        line_len = 2 * config.taps - 1
        self._delay: deque[int] = deque([0] * line_len, maxlen=line_len)
        self._accs: list[int | None] = [None] * config.taps
        self._cycle = 0

    @property
    def latency(self) -> int:
        return self.plan.latency

    def tick(self, sample: int | None = None) -> tuple[int | None, CycleReport]:
        if sample is not None:
            sample = check_sample(sample, self._max_raw)
        self._cycle += 1
        ops = {"multiply": 0, "add": 0, "normalize": 0}
        taps = self.config.taps
        raw = self.config.weights.raw

        self._delay.appendleft(0 if sample is None else sample)

        output = None
        if self._accs[taps - 1] is not None:
            output = _normalize(self.config, (self._accs[taps - 1],))[0]
            ops["normalize"] += 1

        new_accs: list[int | None] = [None] * taps
        for j in range(taps - 1, 0, -1):
            upstream = self._accs[j - 1]
            if upstream is not None:
                new_accs[j] = upstream + raw[j] * self._delay[2 * j]
                ops["multiply"] += 1
                ops["add"] += 1
        if sample is not None:
            new_accs[0] = raw[0] * self._delay[0]
            ops["multiply"] += 1

        self._accs = new_accs
        occupancy = (*(a is not None for a in self._accs), output is not None)
        report = CycleReport(self._cycle, sample, output, ops, occupancy)
        return output, report


def build_pipeline(config: FilterConfig, architecture: str = "tree"):
    """Wire up a pipeline model for the given filter configuration."""
    plan = PipelineConfig(config.taps, architecture)
    return TreePipeline(config) if plan.architecture == "tree" else ChainPipeline(config)


def run_pipeline(model, samples) -> tuple[list[int], list[CycleReport]]:
    """Feed a gapless stream, then drain with idle ticks until every output
    has emerged.  Returns (outputs, per-cycle reports)."""
    outputs: list[int] = []
    reports: list[CycleReport] = []
    for sample in samples:
        out, report = model.tick(sample)
        reports.append(report)
        if out is not None:
            outputs.append(out)
    while len(outputs) < len(samples):
        out, report = model.tick(None)
        reports.append(report)
        if out is not None:
            outputs.append(out)
    return outputs, reports
