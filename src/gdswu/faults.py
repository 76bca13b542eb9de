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
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Sequence

from .core import FilterConfig, GammaWindowFilter, MODE_NORMALIZED

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
    if spec.end > len(samples):
        raise ValueError(
            f"fault window [{spec.start}, {spec.end}) exceeds stream length {len(samples)}"
        )
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

    recovery_index is the first index at or after the fault end from which
    the two output streams agree for good; a window purge guarantees it is
    at most ``spec.end + taps - 1``.
    """
    clean = list(clean_stream)
    faulty = inject(clean, spec)
    out_clean = GammaWindowFilter(config).run(clean)
    out_faulty = GammaWindowFilter(config).run(faulty)

    deviations = [abs(a - b) for a, b in zip(out_faulty, out_clean)]
    max_deviation = max(deviations, default=0)
    delta_max = max(
        (abs(faulty[i] - clean[i]) for i in range(spec.start, spec.end)), default=0
    )
    bound = analytic_deviation_bound(config, spec, delta_max)

    last_diff = -1
    for i, d in enumerate(deviations):
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
    stream per spec.
    """
    if len(streams) not in (1, len(specs)) and specs:
        raise ValueError(
            f"need 1 stream or {len(specs)} streams, got {len(streams)}"
        )
    reports = []
    for i, spec in enumerate(specs):
        stream = streams[0] if len(streams) == 1 else streams[i]
        report = attenuation_report(stream, spec, config)
        reports.append({"spec": asdict(spec), **asdict(report)})

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
