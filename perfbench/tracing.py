"""Spans around the calls into each package module, for the traced run.

The tracer patches module attributes from outside the package for the
length of one traced iteration only, so the scored run records no spans.

    span name                  wrapped attribute
    cli.main                   gdswu.cli.main
    cli.parse                  gdswu.cli._read_samples
    core.run                   gdswu.core.GammaWindowFilter.run
    systolic.run_pipeline      gdswu.cli.run_pipeline
    faults.sweep               gdswu.faults.sweep
    faults.attenuation_report  gdswu.faults.attenuation_report
    faults.inject              gdswu.faults.inject
    gamma_weights.build        gdswu.core.build_weight_vector
    oracle.exact, oracle.real  gdswu.oracle.oracle_exact, oracle_real

``mac_exact`` runs once per filtered sample, so rather than a span per call
it gets a call counter and a summed timer (wrapping ``gdswu.core.mac_exact``,
the name ``core`` calls); its time counts as child time of the open span.

A span's self time is its duration minus its children's.  Spans are kept in
memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import ExitStack, contextmanager
from unittest import mock

import gdswu.cli
import gdswu.core
import gdswu.faults
import gdswu.oracle


class Span:
    __slots__ = ("trace", "id", "parent", "name", "start", "end", "child_s", "attrs")

    def __init__(self, trace: str, span_id: int, parent: int | None, name: str):
        self.trace, self.id, self.parent, self.name = trace, span_id, parent, name
        self.start = self.end = self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _targets():
    """(owner, attribute, span name, attributes taken from (args, result))."""
    return [
        (gdswu.cli, "main", "cli.main", None),
        (gdswu.cli, "_read_samples", "cli.parse", lambda a, r: {"rows": len(r)}),
        (gdswu.cli, "run_pipeline", "systolic.run_pipeline",
         lambda a, r: {"architecture": a[0].plan.architecture, "cycles": len(r[1])}),
        (gdswu.core.GammaWindowFilter, "run", "core.run", lambda a, r: {"samples": len(r)}),
        (gdswu.core, "build_weight_vector", "gamma_weights.build", None),
        (gdswu.faults, "sweep", "faults.sweep",
         lambda a, r: {"specs": len(a[0]), "stream_len": len(a[2][0])}),
        (gdswu.faults, "attenuation_report", "faults.attenuation_report", None),
        (gdswu.faults, "inject", "faults.inject", None),
        (gdswu.oracle, "oracle_exact", "oracle.exact", lambda a, r: {"samples": len(r)}),
        (gdswu.oracle, "oracle_real", "oracle.real", lambda a, r: {"samples": len(r)}),
    ]


class Tracer:
    """In-memory spans plus the mac_exact counter, grouped by trace id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.mac: dict[str, list] = {}  # trace id -> [calls, seconds]
        self._trace = ""
        self._stack: list[Span] = []

    @contextmanager
    def tracing(self, trace: str):
        """Wrap every target while the block runs; spans get id ``trace``."""
        self._trace = trace
        self.mac[trace] = [0, 0.0]
        with ExitStack() as stack:
            for owner, attr, name, attrs in _targets():
                wrapper = self._span(name, getattr(owner, attr), attrs)
                stack.enter_context(mock.patch.object(owner, attr, wrapper))
            mac = self._mac(gdswu.core.mac_exact)
            stack.enter_context(mock.patch.object(gdswu.core, "mac_exact", mac))
            yield

    def _span(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(self._trace, len(self.spans), parent and parent.id, name)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return wrapper

    def _mac(self, fn):
        @functools.wraps(fn)
        def wrapper(samples, weights):
            start = time.perf_counter()
            result = fn(samples, weights)
            elapsed = time.perf_counter() - start
            counter = self.mac[self._trace]
            counter[0] += 1
            counter[1] += elapsed
            if self._stack:
                self._stack[-1].child_s += elapsed
            return result

        return wrapper

    def of(self, trace: str) -> list[Span]:
        return [s for s in self.spans if s.trace == trace]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"trace": s.trace, "id": s.id, "parent": s.parent,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "self_s": s.self_s, "attrs": s.attrs}) + "\n")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def iteration_metrics(tracer: Tracer, trace: str, rows_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration of a workload."""
    spans = tracer.of(trace)
    mac_calls, mac_s = tracer.mac[trace]

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(group):
        return sum(s.duration for s in group)

    mains = named("cli.main")
    main_ids = {s.id for s in mains}
    parse = named("cli.parse")
    runs = named("core.run")
    pipes = named("systolic.run_pipeline")
    sweeps = named("faults.sweep")
    reports = named("faults.attenuation_report")
    injects = named("faults.inject")
    pushed = sum(s.attrs["samples"] for s in runs)
    write_s = sum(s.self_s for s in mains)
    swept = sum(s.attrs["specs"] * s.attrs["stream_len"] for s in sweeps)

    def cycles_per_s(arch):
        group = [s for s in pipes if s.attrs["architecture"] == arch]
        return _rate(sum(s.attrs["cycles"] for s in group), total(group))

    return {
        "cli.parse_s": total(parse),
        "cli.parse.rows_per_s": _rate(sum(s.attrs["rows"] for s in parse), total(parse)),
        "cli.compute_s": total(s for s in runs + pipes if s.parent in main_ids),
        "cli.write_s": write_s,
        "cli.write.rows_per_s": _rate(rows_written, write_s),
        "core.run.samples_per_s": _rate(pushed, total(runs)),
        "core.run.calls": len(runs),
        "core.samples_pushed": pushed,
        "core.self_s": sum(s.self_s for s in runs),
        "fixed_point.mac_exact.calls_per_sample": _rate(mac_calls, pushed),
        "fixed_point.self_s": mac_s,
        "systolic.tree.cycles_per_s": cycles_per_s("tree"),
        "systolic.chain.cycles_per_s": cycles_per_s("chain"),
        "systolic.self_s": sum(s.self_s for s in pipes),
        "faults.attenuation_report_s": _rate(total(reports), len(reports)),
        "faults.inject_s": _rate(total(injects), len(injects)),
        "faults.filter_samples_per_spec": _rate(pushed, swept),
        "faults.self_s": sum(s.self_s for s in sweeps + reports + injects),
        "gamma_weights.build_s": total(named("gamma_weights.build")),
    }


def oracle_metrics(tracer: Tracer, trace: str) -> dict[str, float]:
    """Oracle throughput in the gate's own preparation."""
    spans = tracer.of(trace)
    exact = [s for s in spans if s.name == "oracle.exact"]
    real = [s for s in spans if s.name == "oracle.real"]

    def rate(group):
        return _rate(sum(s.attrs["samples"] for s in group), sum(s.duration for s in group))

    return {
        "oracle.exact.samples_per_s": rate(exact),
        "oracle.real.samples_per_s": rate(real),
        "oracle.self_s": sum(s.self_s for s in exact + real),
    }


@contextmanager
def pipeline_alloc_peaks(peaks: list[float]):
    """Append the tracemalloc peak (MB) of each run_pipeline call the CLI makes.

    Allocation tracing slows every allocation, so it runs in an iteration
    of its own whose timings are discarded.
    """
    original = gdswu.cli.run_pipeline

    def measured(model, samples):
        tracemalloc.start()
        try:
            return original(model, samples)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    with mock.patch.object(gdswu.cli, "run_pipeline", measured):
        yield
