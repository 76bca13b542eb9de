"""Frozen tick-by-tick models of the tree and chain pipelines, for tests only.

These are the original per-architecture models: every latch holds its
partial sums, and each tick moves them one stage on.  The package's
pipeline model must match them at the ports, field for field of every
``CycleReport``, idle ticks included.  Do not change them to follow the
package; they are the specification it is tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from gdswu.core import FilterConfig, _normalize, check_sample


def tree_depth(taps: int) -> int:
    return max(1, (taps - 1).bit_length())


@dataclass
class CycleReport:
    cycle: int
    consumed_input: int | None
    emitted_output: int | None
    ops: dict[str, int]
    stage_occupancy: tuple[bool, ...]

    @property
    def total_ops(self) -> int:
        return sum(self.ops.values())


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
        self.depth = tree_depth(config.taps)
        self.latency = 2 + self.depth
        self._max_raw = config.sample_format.max_raw
        self._window: deque[int] = deque([0] * config.taps, maxlen=config.taps)
        self._products: list[int] | None = None
        self._sums: list[list[int] | None] = [None] * self.depth
        self._cycle = 0

    def tick(self, sample: int | None = None) -> tuple[int | None, CycleReport]:
        if sample is not None:
            sample = check_sample(sample, self._max_raw)
        self._cycle += 1
        ops = {"multiply": 0, "add": 0, "normalize": 0}

        output = None
        final = self._sums[-1]
        if final is not None:
            output = _normalize(self.config, final)[0]
            ops["normalize"] += 1

        new_sums: list[list[int] | None] = [None] * self.depth
        for level in range(self.depth - 1, 0, -1):
            below = self._sums[level - 1]
            if below is not None:
                new_sums[level], adds = _pairwise(below)
                ops["add"] += adds
        if self._products is not None:
            new_sums[0], adds = _pairwise(self._products)
            ops["add"] += adds

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
        return output, CycleReport(self._cycle, sample, output, ops, occupancy)


class ChainPipeline:
    """Linear MAC chain over a double-spaced delay line: element j adds
    weight[j] times the sample at position 2j."""

    def __init__(self, config: FilterConfig):
        self.config = config
        self.latency = config.taps + 1
        self._max_raw = config.sample_format.max_raw
        line_len = 2 * config.taps - 1
        self._delay: deque[int] = deque([0] * line_len, maxlen=line_len)
        self._accs: list[int | None] = [None] * config.taps
        self._cycle = 0

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
        return output, CycleReport(self._cycle, sample, output, ops, occupancy)


def build_reference(config: FilterConfig, architecture: str):
    return TreePipeline(config) if architecture == "tree" else ChainPipeline(config)


def run_reference(model, samples) -> tuple[list[int], list[CycleReport]]:
    """Feed a gapless stream, then drain with idle ticks until every output
    has emerged."""
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
