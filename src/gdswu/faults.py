"""Transient-fault injection at the filter input, with deviation bounds.

Faults model a corrupted upstream decision signal: a spike replaces samples
with a given level, a stuck fault holds that level, a dropout forces zero.
Injection happens at the filter input only.

The analytic deviation bound for a fault of per-sample delta D is

    ceil(sum_of_k_largest_raw_weights * D / divisor) + 1

with k = min(duration, taps) and the divisor per output mode (raw_sum for
normalized-average, 2**frac_bits for raw-accumulate).  The +1 absorbs the
interaction of the two floor divisions on the clean and faulty paths.  The
largest weights are taken from the actual vector, not assumed to sit at
lag 0.  Sweeps are embarrassingly parallel: every report uses fresh filter
instances.

A report filters only the span of the stream that a fault can reach.  An
output depends on the last ``taps`` samples alone (finite support), so the
clean and faulty outputs can differ only at indices ``start .. end + taps -
2``, and each of those depends on samples from ``start - taps + 1`` on.  Both
filters run over ``stream[lo:hi]`` with ``lo = max(0, start - taps + 1)`` and
``hi = min(n, end + taps - 1)``, and the first ``start - lo`` outputs are
dropped.  When ``lo == 0`` a fresh filter's zero padding is the stream's own
start; when ``lo > 0`` every kept output sees only samples in the span.  So
each kept output equals the full-stream one.  The whole stream is still
checked, and errors name stream indices: a window that overruns the stream
first, then a bad sample, then an out-of-range level, at the fault's start.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .core import (
    FilterConfig,
    GammaWindowFilter,
    MODE_NORMALIZED,
    check_sample,
    check_samples,
    raise_sample_error,
)

FAULT_KINDS: tuple[str, ...] = ("spike", "stuck", "dropout")


@dataclass(frozen=True)
class FaultSpec:
    """One injected transient: kind, position, duration, level."""

    kind: str
    start: int
    duration: int = 1
    magnitude: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}, expected one of {FAULT_KINDS}")
        if operator.index(self.start) < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if operator.index(self.duration) < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        if operator.index(self.magnitude) < 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")

    @property
    def end(self) -> int:
        """First sample index after the fault."""
        return self.start + self.duration

    @property
    def replacement_value(self) -> int:
        return 0 if self.kind == "dropout" else self.magnitude


@dataclass(frozen=True)
class AttenuationReport:
    """Measured output deviation of a faulty run against its clean twin."""

    max_output_deviation: int
    analytic_bound: int
    recovery_index: int
    bound_satisfied: bool


def inject(samples: Sequence[int], spec: FaultSpec) -> list[int]:
    """Pure transformation: returns a copy with the fault window replaced."""
    _check_window(spec, len(samples))
    out = list(samples)
    for i in range(spec.start, spec.end):
        out[i] = spec.replacement_value
    return out


def analytic_deviation_bound(config: FilterConfig, spec: FaultSpec, delta_max: int) -> int:
    """Worst single-output deviation a fault with per-sample delta_max can cause."""
    weights = config.weights
    k = min(spec.duration, config.taps)
    top = sum(sorted(weights.raw, reverse=True)[:k])
    if config.mode == MODE_NORMALIZED:
        divisor = weights.raw_sum
    else:
        divisor = 1 << weights.qformat.frac_bits
    return -(-top * delta_max // divisor) + 1


def attenuation_report(
    clean_stream: Sequence[int],
    spec: FaultSpec,
    config: FilterConfig,
) -> AttenuationReport:
    """Run clean and faulty streams through identical fresh filters.

    Only the span the fault can reach is filtered, and the report equals
    the one over the whole stream (see the module note); the whole stream
    is checked.  recovery_index is the first index at or after the fault
    end from which the two output streams agree for good; a window purge
    guarantees it is at most ``spec.end + taps - 1``.
    """
    return _span_report(_checked_stream(clean_stream, spec, config), spec, config)


def _check_window(spec: FaultSpec, length: int) -> None:
    if spec.end > length:
        raise ValueError(
            f"fault window [{spec.start}, {spec.end}) exceeds stream length {length}"
        )


def _checked_stream(stream: Sequence[int], spec: FaultSpec, config: FilterConfig) -> list[int]:
    """``stream`` as a list of checked samples, once ``spec`` fits in it."""
    clean = list(stream)
    _check_window(spec, len(clean))
    checked, error = check_samples(clean, config.sample_format.max_raw)
    if error is not None:
        raise_sample_error(error, len(checked))
    return checked


def _span_report(clean: list[int], spec: FaultSpec, config: FilterConfig) -> AttenuationReport:
    """The report over checked samples, filtering only ``clean[lo:hi]``."""
    _check_window(spec, len(clean))
    try:
        level = check_sample(spec.replacement_value, config.sample_format.max_raw)
    except ValueError as exc:
        raise_sample_error(exc, spec.start)
    lo = max(0, spec.start - config.taps + 1)
    hi = min(len(clean), spec.end + config.taps - 1)
    skip = spec.start - lo
    span = clean[lo:hi]
    faulty = span.copy()
    faulty[skip : skip + spec.duration] = [level] * spec.duration
    out_clean = GammaWindowFilter(config).run(span)[skip:]
    out_faulty = GammaWindowFilter(config).run(faulty)[skip:]

    deviations = [abs(a - b) for a, b in zip(out_faulty, out_clean)]
    max_deviation = max(deviations)
    delta_max = max(abs(level - x) for x in clean[spec.start : spec.end])
    bound = analytic_deviation_bound(config, spec, delta_max)

    last_diff = -1
    for i, d in enumerate(deviations, spec.start):
        if d != 0:
            last_diff = i
    recovery_index = max(spec.end, last_diff + 1)

    return AttenuationReport(
        max_output_deviation=max_deviation,
        analytic_bound=bound,
        recovery_index=recovery_index,
        bound_satisfied=max_deviation <= bound,
    )


def sweep(
    specs: Sequence[FaultSpec],
    config: FilterConfig,
    streams: Sequence[Sequence[int]],
) -> dict:
    """Per-spec attenuation reports plus aggregate deviation statistics.

    ``streams`` is either a single stream shared by every spec or one
    stream per spec.  Each distinct stream is checked once, however many
    specs share it.
    """
    if len(streams) not in (1, len(specs)) and specs:
        raise ValueError(
            f"need 1 stream or {len(specs)} streams, got {len(streams)}"
        )
    # id of each stream seen -> the stream (held, so that no other object
    # takes its id) and its checked samples
    checked = {}
    reports = []
    for i, spec in enumerate(specs):
        stream = streams[0] if len(streams) == 1 else streams[i]
        if id(stream) not in checked:
            checked[id(stream)] = stream, _checked_stream(stream, spec, config)
        report = _span_report(checked[id(stream)][1], spec, config)
        reports.append({"spec": dict(vars(spec)), **vars(report)})

    deviations = [r["max_output_deviation"] for r in reports]
    slacks = [r["analytic_bound"] - r["max_output_deviation"] for r in reports]
    aggregate = {
        "count": len(reports),
        "min_deviation": min(deviations) if deviations else None,
        "max_deviation": max(deviations) if deviations else None,
        "mean_deviation": sum(deviations) / len(deviations) if deviations else None,
        "worst_bound_slack": min(slacks) if slacks else None,
        "all_bounds_satisfied": all(r["bound_satisfied"] for r in reports),
    }
    return {"reports": reports, "aggregate": aggregate}
