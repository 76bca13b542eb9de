"""Cycle-accurate model of the fully pipelined window datapath.

The model is cycle-accurate at its ports.  Clocking a block of ticks
returns a ``CycleTrace``: which sample each tick consumed, which output it
emitted, which stages held a sample and how many ops the busy stages
fired.  The partial sums inside the latches are not modelled, since
nothing outside the datapath can see them.

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
outputs, is not None.

The trace keeps columns, not per-tick objects: the inputs and outputs as
lists, and the stage occupancy as runs of (valid-bit pattern, tick count),
bit k of a pattern being stage k.  The pattern changes only while the
pipeline fills or drains or an idle tick passes through it.  While every
stage is busy it holds up to the next idle output, so such a run is one
step; only ticks whose window holds an idle output are stepped one by
one, a run each.  The gap test is the kernel's fused sample check
(``core`` module note): a block it accepts holds no idle tick, is packed
once, and its busy run reaches the block's end with no search; in any
other block an index search finds the next idle output.  A gapless block
costs about latency steps, and a steady stretch is a single run: the
change-only idea of a value change dump (IEEE Std 1364-2005, clause 18).
The facts of a pattern are the stage plan's, made once per pipeline on
first use: its ops, counted by popcount over one bit mask per distinct
stage op triple, and its occupancy tuple.  The cycle CSV reads only the
columns, in place, and the ops: ``csv_rows`` builds an all-busy stretch
of runs from its tick range a thousand rows at a time, and any other
tick gets a row of its own.  Per-tick ``CycleReport`` views, for tests
and checks only, carry four fields, and the views of one pattern share
its tuple.

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

from itertools import chain, count, groupby, islice, repeat
from typing import Iterator

from .core import _PACK_ERRORS, FilterConfig, GammaWindowFilter
from .csv_rows import numbered_rows

ARCHITECTURES: tuple[str, ...] = ("tree", "chain")
OPS: tuple[str, ...] = ("multiply", "add", "normalize")


class StagePlan(dict):
    """An architecture's stages, and the facts of each valid-bit pattern.

    As a dict it maps a pattern to the (multiply, add, normalize) ops of its
    busy stages, made on first lookup.  Not ``functools.cache``: its wrappers
    add young GC objects, enough to set off a collection that walks a 64-tap
    ``simulate``'s long lists (about 2 ms).  ``occupancy`` maps a pattern to
    its stage occupancy tuple; only the per-tick views fill it.  ``groups``
    holds (mask, multiply, add, normalize) for each distinct stage triple,
    bit k of the mask set when stage k fires it; ``latency`` is the stage
    count.
    """

    __slots__ = ("architecture", "latency", "full", "groups", "occupancy")

    def __init__(self, taps: int, architecture: str):
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
        stages.append((0, 0, 1))
        masks: dict[tuple[int, int, int], int] = {}
        for k, stage in enumerate(stages):
            masks[stage] = masks.get(stage, 0) | 1 << k
        self.architecture = architecture
        self.latency = len(stages)
        self.full = (1 << self.latency) - 1  # the pattern with every stage busy
        self.groups = tuple((m, *s) for s, m in masks.items())
        self.occupancy: dict[int, tuple[bool, ...]] = {}

    def __missing__(self, bits: int) -> tuple[int, int, int]:
        self[bits] = ops = self.ops(bits)
        return ops

    def ops(self, bits: int) -> tuple[int, int, int]:
        """The (multiply, add, normalize) ops of the stages busy in ``bits``."""
        multiply = add = normalize = 0
        for mask, m, a, n in self.groups:
            busy = (bits & mask).bit_count()
            multiply += busy * m
            add += busy * a
            normalize += busy * n
        return multiply, add, normalize


class CycleTrace:
    """What a run of ticks did, by columns.

    Tick ``t`` is cycle ``first_cycle + t``; it consumed ``inputs[t]`` and
    emitted ``outputs[t]``, None when idle.  ``runs`` covers the ticks in
    order with (valid-bit pattern, tick count) pairs, bit k set when stage
    k holds a sample; neighbouring runs may share a pattern.  ``plan``, the
    pipeline's, turns a pattern into ops.

    ``len``, iteration and ``reversed`` give one ``CycleReport`` view per
    tick, for tests and checks.  The writers read the columns and runs.
    """

    __slots__ = ("first_cycle", "inputs", "outputs", "runs", "plan")

    def __init__(self, first_cycle: int, inputs: list[int | None],
                 outputs: list[int | None], runs: list[tuple[int, int]], plan: StagePlan):
        self.first_cycle = first_cycle
        self.inputs = inputs
        self.outputs = outputs
        self.runs = runs
        self.plan = plan

    def __len__(self) -> int:
        return len(self.inputs)

    def __iter__(self) -> Iterator[CycleReport]:
        ticks = count()
        for bits, length in self.runs:
            for t in islice(ticks, length):
                yield CycleReport(self, t, bits)

    def __reversed__(self) -> Iterator[CycleReport]:
        return reversed(list(self))

    def extend(self, later: CycleTrace) -> None:
        """Append the ticks of the block clocked right after this one."""
        self.inputs += later.inputs
        self.outputs += later.outputs
        self.runs += later.runs

    def steady_ops(self) -> dict[str, int] | None:
        """The ops of a tick with every stage busy; None if no tick had every
        stage busy, as in a stream shorter than the pipeline."""
        if any(bits == self.plan.full for bits, _ in self.runs):
            return dict(zip(OPS, self.plan[self.plan.full]))
        return None


class CycleReport:
    """One tick of a ``CycleTrace``, read through to its columns and plan.

    A view carries four fields: ``cycle``, ``emitted_output``,
    ``stage_occupancy`` and ``total_ops``.  ``stage_occupancy[k]`` is True
    when the tick k cycles before consumed a sample; the views of one
    pattern share that tuple, kept in the plan's ``occupancy``.  Setting
    ``emitted_output`` writes the trace's output column.
    """

    __slots__ = ("_trace", "_tick", "_bits")

    def __init__(self, trace: CycleTrace, tick: int, bits: int):
        self._trace = trace
        self._tick = tick
        self._bits = bits

    @property
    def cycle(self) -> int:
        return self._trace.first_cycle + self._tick

    @property
    def emitted_output(self) -> int | None:
        return self._trace.outputs[self._tick]

    @emitted_output.setter
    def emitted_output(self, value: int | None) -> None:
        self._trace.outputs[self._tick] = value

    @property
    def stage_occupancy(self) -> tuple[bool, ...]:
        plan, bits = self._trace.plan, self._bits
        if bits not in plan.occupancy:
            plan.occupancy[bits] = tuple(bits >> k & 1 == 1 for k in range(plan.latency))
        return plan.occupancy[bits]

    @property
    def total_ops(self) -> int:
        return sum(self._trace.plan[self._bits])


CYCLE_CSV_HEADER = ("cycle", "input", "output", "mult_ops", "add_ops", "other_ops")


def cycle_csv_blocks(trace: CycleTrace) -> Iterator[str]:
    """The cycle-CSV rows of ``trace``, each ending in ``\\n``, a block at a time.

    Inputs and outputs print as ``%d`` prints them; idle ones are empty
    fields.  A stretch of runs with every stage busy consumed and emitted
    on each of its ticks, so ``numbered_rows`` builds it from the columns
    in place, a thousand rows at a time: as bytes where a block's values
    fit a byte, else with ``%d``, say for an output edited past the sample
    format.  Any other stretch gets one row per tick, up to a thousand
    rows per block, its values formatted with ``%d``.
    """
    plan, inputs, outputs = trace.plan, trace.inputs, trace.outputs
    full = plan.full
    texts = {}  # the ops columns of each ops triple
    busy_end = None  # made for the first busy stretch, shared by the rest
    tick = 0
    for busy, group in groupby(trace.runs, lambda run: run[0] == full):
        patterns, lengths = zip(*group)
        stop = tick + sum(lengths)
        if busy:
            if busy_end is None:
                busy_end = ",%d,%d,%d\n" % plan[full]
            yield from numbered_rows(trace.first_cycle, inputs, outputs, tick, stop, busy_end)
        else:
            triples = list(map(plan.__getitem__, patterns))
            texts.update((ops, ",%d,%d,%d\n" % ops) for ops in set(triples) - texts.keys())
            ends = chain.from_iterable(map(repeat, map(texts.__getitem__, triples), lengths))
            for lo in range(tick, stop, 1000):
                hi = min(lo + 1000, stop)
                yield "".join([
                    f"{c},{'' if x is None else '%d' % x},{'' if y is None else '%d' % y}{end}"
                    for c, x, y, end in zip(count(trace.first_cycle + lo), inputs[lo:hi],
                                            outputs[lo:hi], islice(ends, hi - lo))
                ])
        tick = stop


class SystolicPipeline:
    """One architecture's stage plan, clocked over the filter's outputs."""

    def __init__(self, config: FilterConfig, architecture: str = "tree"):
        self.plan = StagePlan(config.taps, architecture)
        self.latency = self.plan.latency
        self._filter = GammaWindowFilter(config)
        # the outputs of the last latency - 1 ticks, oldest first; None when idle
        self._in_flight: list[int | None] = [None] * (self.latency - 1)
        self._cycle = 0

    @property
    def pending(self) -> int:
        """Idle ticks until the last sample in flight emits its output."""
        # 1 + the index of the newest output in flight, 0 when there is none
        return max((k + 1 for k, y in enumerate(self._in_flight) if y is not None), default=0)

    def clock(self, samples) -> CycleTrace:
        """One tick per item of ``samples``, None being an idle tick.

        Returns the trace of the ticks; its output column holds each tick's
        output, None when it emitted none.  At a bad sample the ticks before
        it are clocked, then the error of ``check_sample`` is raised.

        The kernel's fused check is the gap test, which None fails like a
        bad sample.  A block it accepts is gapless and valid: its packed
        stream goes straight to the product, and its busy run needs no
        search.  Only a block it rejects is scanned for None.  With no
        None it holds a bad sample, so it goes straight to the sample by
        sample check; with one it is zeroed and run through the kernel.
        """
        # a list is only read, so it is not copied: a copy adds to the peak memory
        values = samples if isinstance(samples, list) else list(samples)
        kernel = self._filter
        try:
            packed = kernel._pack(values)
        except _PACK_ERRORS:
            gaps = None in values
            if gaps:
                outputs, error = kernel._run_block([0 if x is None else x for x in values])
            else:
                # no idle tick, so a bad sample: the block is not packed again
                outputs, error = kernel._run_prefix(values)
        else:
            gaps, error = False, None
            outputs = kernel._product(packed, len(values))
            # not held while the trace is built: it would raise the peak
            del packed
        # a fresh list: the trace's column must not be the caller's list
        ticks = values[:len(outputs)]
        if gaps:
            outputs = [None if x is None else y for x, y in zip(ticks, outputs)]
        stream = self._in_flight + outputs
        emitted, self._in_flight = stream[:len(ticks)], stream[len(ticks):]

        # stage k of a tick holds the sample of k ticks before; the first
        # latency - 1 items of the stream are the outputs already in flight
        full, lead = self.plan.full, self.latency - 1
        # the top bit, the tick before the outputs in flight, is only read by
        # the first tick's test: with every output in flight it joins the run
        valid = 1
        for y in stream[:lead]:
            valid = valid << 1 | (y is not None)
        runs, i = [], lead
        while i < len(stream):
            if valid == full and stream[i] is not None:
                # without idle ticks the busy run reaches the end; with them,
                # an index search, not a slice test, keeps the block linear
                try:
                    j = stream.index(None, i) if gaps else len(stream)
                except ValueError:
                    j = len(stream)
                runs.append((full, j - i))
                i = j
            else:
                valid = (valid << 1 | (stream[i] is not None)) & full
                runs.append((valid, 1))
                i += 1
        trace = CycleTrace(self._cycle + 1, ticks, emitted, runs, self.plan)
        self._cycle += len(ticks)
        if error is not None:
            raise error
        return trace


def build_pipeline(config: FilterConfig, architecture: str = "tree") -> SystolicPipeline:
    """Wire up a pipeline model for the given filter configuration."""
    return SystolicPipeline(config, architecture)


def run_pipeline(model, samples) -> tuple[list[int], CycleTrace]:
    """Clock ``samples`` as one block (None is an idle tick), then idle ticks
    until every output has emerged.  Returns (outputs, the trace of every
    tick, the drain included)."""
    trace = model.clock(samples)
    trace.extend(model.clock([None] * model.pending))
    return [y for y in trace.outputs if y is not None], trace
