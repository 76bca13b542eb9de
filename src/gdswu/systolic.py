"""Cycle-accurate model of the fully pipelined window datapath.

The model is cycle-accurate at its ports.  Each tick's ``CycleReport`` says
which sample it consumed, which output it emitted, which stages hold a
sample and how many ops the busy stages fired.  The partial sums inside the
latches are not modelled, since nothing outside the datapath can see them.

Each architecture is a stage plan: the ops a stage fires on a tick when it
holds a sample.

- "tree" (default): one multiplier stage with ``taps`` parallel multipliers,
  ``max(1, ceil(log2 taps))`` adder levels that add their inputs in pairs
  (an odd one passes through), one normalize stage.  Latency is
  ``2 + max(1, ceil(log2 taps))``, 6 for a 16-tap window; a single-tap tree
  keeps one pass-through level.
- "chain": a linear string of multiply-accumulate elements, one per tap,
  reading a double-spaced delay line (the systolic direct form), plus the
  normalize stage; latency is ``taps + 1``.

Both plans compute the window sum sum(raw[i] * x[t - i]) of the same
non-negative integers and differ only in the order of the additions.  Python
integer addition is exact and associative, so no order can change a sum:
the model takes every output from one pass of the filter's block kernel
per block of ticks and delays it by ``latency - 1`` ticks in a FIFO, so the
first output appears on tick ``latency``.  Stage occupancy is a shift
register of ``latency`` valid bits, and a tick's op counts are the sum of
the plan over its busy stages.

Operation-counting convention: each multiplier is one op, each 2-input adder
is one op, the final divide/shift is one op.  Both architectures therefore
run ``taps`` multiplies, ``taps - 1`` adds and 1 normalize per cycle at
steady state — 32 ops for 16 taps.  The CLI footer reports the ops measured
on the first cycle in which every stage is busy, not this formula.  The
original hardware unit quotes 22 operations per cycle for the same window;
the delta is surfaced in reports rather than reconciled, since that
figure's counting rules are not decomposable.

A tick's sample must be an int in the sample format's range; otherwise the
tick raises TypeError or ValueError and leaves the model unchanged.  An idle
tick (input None) clocks a zero into the delay line, as the hardware's shift
register does, and launches no output.  Idle ticks may come anywhere: an
output is that of the filter run over the stream with a zero in place of
every idle tick before it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

from .core import FilterConfig, GammaWindowFilter, check_samples

ARCHITECTURES: tuple[str, ...] = ("tree", "chain")
OPS: tuple[str, ...] = ("multiply", "add", "normalize")


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

    @property
    def stage_ops(self) -> tuple[tuple[int, int, int], ...]:
        """The (multiply, add, normalize) ops each stage fires while busy."""
        if self.architecture == "chain":
            return ((1, 0, 0), *[(1, 1, 0)] * (self.taps - 1), (0, 0, 1))
        stages = [(self.taps, 0, 0)]
        width = self.taps
        for _ in range(self.tree_depth):
            stages.append((0, width // 2, 0))
            width -= width // 2
        return (*stages, (0, 0, 1))


@dataclass(slots=True)
class CycleReport:
    """What one clock tick did: ops fired, stage occupancy, any output.

    The reports of one block of ticks with the same occupancy share one
    ``ops`` dict and one ``stage_occupancy`` tuple; treat both as read-only.
    """

    cycle: int
    consumed_input: int | None
    emitted_output: int | None
    ops: dict[str, int]
    stage_occupancy: tuple[bool, ...]

    @property
    def total_ops(self) -> int:
        return sum(self.ops.values())


CYCLE_CSV_HEADER = ("cycle", "input", "output", "mult_ops", "add_ops", "other_ops")


def cycle_csv_lines(reports: list[CycleReport]) -> str:
    """The cycle-CSV rows of ``reports``, each ending in ``\\n``.

    Idle inputs and outputs are empty fields.  The ops columns are formatted
    once per distinct ``ops`` dict, which the reports of a block share.
    """
    ops_text = {
        key: f",{ops['multiply']},{ops['add']},{ops['normalize']}\n"
        for key, ops in {id(r.ops): r.ops for r in reports}.items()
    }
    return "".join([
        f"{r.cycle},{'' if r.consumed_input is None else r.consumed_input},"
        f"{'' if r.emitted_output is None else r.emitted_output}{ops_text[id(r.ops)]}"
        for r in reports
    ])


class SystolicPipeline:
    """One architecture's stage plan, clocked over the filter's outputs."""

    def __init__(self, config: FilterConfig, architecture: str = "tree"):
        self.config = config
        self.plan = PipelineConfig(config.taps, architecture)
        self._max_raw = config.sample_format.max_raw
        self._filter = GammaWindowFilter(config)
        self._stage_ops = self.plan.stage_ops
        self._in_flight: list[int | None] = [None] * (self.latency - 1)
        self._valid = 0  # bit k set: the sample of k ticks ago is real
        self._cycle = 0

    @property
    def latency(self) -> int:
        return self.plan.latency

    @property
    def pending(self) -> int:
        """Idle ticks until the last sample in flight emits its output."""
        in_flight = self._valid & ((1 << (self.latency - 1)) - 1)
        # the newest sample in flight is the lowest set bit
        return self.latency - (in_flight & -in_flight).bit_length() if in_flight else 0

    def clock(self, samples) -> tuple[list[int | None], list[CycleReport]]:
        """One tick per item of ``samples``, None being an idle tick.

        Returns each tick's output (None when it emitted none) and report.
        At a bad sample the ticks before it are clocked, then the error of
        ``check_sample`` is raised.
        """
        ticks, error = check_samples(samples, self._max_raw, idle=True)
        emitted, reports = self._clock(ticks)
        if error is not None:
            raise error
        return emitted, reports

    def _clock(self, ticks: list[int | None]):
        # the ticks are checked already, so they skip run's sample check
        count = len(ticks)
        if None in ticks:
            outputs = self._filter._run_block([0 if x is None else x for x in ticks])
            outputs = [None if x is None else y for x, y in zip(ticks, outputs)]
        else:
            outputs = self._filter._run_block(ticks)
        stream = self._in_flight + outputs
        emitted, self._in_flight = stream[:count], stream[count:]

        valid, mask = self._valid, (1 << self.latency) - 1
        history = []
        for x in ticks:
            valid = (valid << 1 | (x is not None)) & mask
            history.append(valid)
        self._valid = valid
        # one occupancy tuple and ops dict per valid-bit pattern in the block
        ops, occupancy = {}, {}
        for bits in set(history):
            busy = occupancy[bits] = tuple(bits >> k & 1 == 1 for k in range(self.latency))
            fired = [stage for stage, on in zip(self._stage_ops, busy) if on]
            ops[bits] = dict(zip(OPS, map(sum, zip((0, 0, 0), *fired))))

        start = self._cycle + 1
        self._cycle += count
        reports = list(map(
            CycleReport, range(start, start + count), ticks, emitted,
            map(ops.__getitem__, history), map(occupancy.__getitem__, history),
        ))
        return emitted, reports


def build_pipeline(config: FilterConfig, architecture: str = "tree") -> SystolicPipeline:
    """Wire up a pipeline model for the given filter configuration."""
    return SystolicPipeline(config, architecture)


def run_pipeline(model, samples) -> tuple[list[int], list[CycleReport]]:
    """Clock ``samples`` as one block (None is an idle tick), then idle ticks
    until every output has emerged.  Returns (outputs, per-cycle reports)."""
    emitted, reports = model.clock(samples)
    drained, drain_reports = model.clock([None] * model.pending)
    outputs = [y for y in chain(emitted, drained) if y is not None]
    reports.extend(drain_reports)
    return outputs, reports
