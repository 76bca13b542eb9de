"""Cycle-accurate model of the fully pipelined window datapath.

The model is cycle-accurate at its ports.  Each tick's ``CycleReport`` says
which sample it consumed, which output it emitted, which stages hold a
sample and how many ops the busy stages fired.  The partial sums inside the
latches are not modelled, since nothing outside the datapath can see them.

Each architecture is a stage plan: the ops a stage fires on a tick when it
holds a sample.  The latency is the plan's stage count.

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
integer addition is exact and associative, so no order can change a sum.
The model's state is the filter's carried samples and a FIFO of the
outputs of the last ``latency - 1`` ticks, None for an idle tick.  A block
of ticks takes its outputs from one pass of the filter's block kernel and
shifts them through the FIFO, so the first output appears on tick
``latency``.  Stage k of a tick holds the sample of k ticks before, so
stage k is busy when that tick's output, read off the FIFO and the block's
outputs, is not None.  A tick's op counts are the sum of the plan over its
busy stages.  Occupancy is computed by runs: while every stage is busy the
valid-bit pattern holds up to the next idle output, so such a run is one
step, and only ticks whose window holds an idle output are stepped one by
one.  A gapless block costs about latency steps, not one per tick.

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

from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

from .core import FilterConfig, GammaWindowFilter, check_samples

ARCHITECTURES: tuple[str, ...] = ("tree", "chain")
OPS: tuple[str, ...] = ("multiply", "add", "normalize")


class StagePlan(NamedTuple):
    """An architecture's stages, each the (multiply, add, normalize) ops it
    fires while busy; the stage count is the latency."""

    architecture: str
    stages: tuple[tuple[int, int, int], ...]


def _stage_plan(taps: int, architecture: str) -> StagePlan:
    if architecture not in ARCHITECTURES:
        raise ValueError(
            f"unknown architecture {architecture!r}, expected one of {ARCHITECTURES}"
        )
    if architecture == "chain":
        stages = [(1, 0, 0), *[(1, 1, 0)] * (taps - 1)]
    else:
        stages = [(taps, 0, 0)]
        width = taps
        # adder levels; a 1-tap tree still occupies one pass-through level
        for _ in range(max(1, (taps - 1).bit_length())):
            stages.append((0, width // 2, 0))
            width -= width // 2
    return StagePlan(architecture, (*stages, (0, 0, 1)))


@dataclass(slots=True)
class CycleReport:
    """What one clock tick did: ops fired, stage occupancy, any output.

    ``stage_occupancy[k]`` is True when the tick k cycles before consumed a
    sample.  The reports of one block of ticks with the same occupancy share
    one ``ops`` dict and one ``stage_occupancy`` tuple; treat both as
    read-only.
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
        self.plan = _stage_plan(config.taps, architecture)
        self.latency = len(self.plan.stages)
        self._filter = GammaWindowFilter(config)
        # the outputs of the last latency - 1 ticks, oldest first; None when idle
        self._in_flight: list[int | None] = [None] * (self.latency - 1)
        self._cycle = 0

    @property
    def pending(self) -> int:
        """Idle ticks until the last sample in flight emits its output."""
        # 1 + the index of the newest output in flight, 0 when there is none
        return max((k + 1 for k, y in enumerate(self._in_flight) if y is not None), default=0)

    def clock(self, samples) -> tuple[list[int | None], list[CycleReport]]:
        """One tick per item of ``samples``, None being an idle tick.

        Returns each tick's output (None when it emitted none) and report.
        At a bad sample the ticks before it are clocked, then the error of
        ``check_sample`` is raised.
        """
        # a list is only read, so it is not copied: a copy adds to the peak memory
        values = samples if isinstance(samples, list) else list(samples)
        gaps = None in values
        zeroed = [0 if x is None else x for x in values] if gaps else values
        ticks, error = check_samples(zeroed, self._filter._max_raw)
        # the ticks are checked already, so they skip run's sample check
        outputs = self._filter._run_block(ticks)
        if gaps:
            ticks = [None if x is None else y for x, y in zip(values, ticks)]
            outputs = [None if x is None else y for x, y in zip(ticks, outputs)]
        count = len(ticks)
        stream = self._in_flight + outputs
        emitted, self._in_flight = stream[:count], stream[count:]

        # stage k of a tick holds the sample of k ticks before; the first
        # latency - 1 items of the stream are the outputs already in flight.
        # spans alternate: the per-tick patterns of ticks whose window holds
        # an idle output, then the tick count of a run with every stage busy.
        full, lead = (1 << self.latency) - 1, self.latency - 1
        valid = 0
        for y in stream[:lead]:
            valid = valid << 1 | (y is not None)
        spans, stepped, i = [], [], lead
        while i < len(stream):
            if valid == full and stream[i] is not None:
                # an index search, not a slice test, keeps gappy blocks linear
                try:
                    j = stream.index(None, i)
                except ValueError:
                    j = len(stream)
                spans += (stepped, j - i)
                stepped, i = [], j
            else:
                valid = (valid << 1 | (stream[i] is not None)) & full
                stepped.append(valid)
                i += 1
        spans.append(stepped)
        # one occupancy tuple and ops dict per valid-bit pattern in the block
        ops, occupancy = {}, {}
        for bits in {full, *chain.from_iterable(spans[::2])}:
            busy = occupancy[bits] = tuple(bits >> k & 1 == 1 for k in range(self.latency))
            fired = [stage for stage, on in zip(self.plan.stages, busy) if on]
            ops[bits] = dict(zip(OPS, map(sum, zip((0, 0, 0), *fired))))

        def column(of):
            return chain.from_iterable(
                repeat(of[full], span) if k % 2 else map(of.__getitem__, span)
                for k, span in enumerate(spans)
            )

        start = self._cycle + 1
        self._cycle += count
        reports = list(map(
            CycleReport, range(start, start + count), ticks, emitted,
            column(ops), column(occupancy),
        ))
        if error is not None:
            raise error
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
