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
lag 0.

The stream is filtered once, whole, by a fresh filter.  That clean run
checks the stream's samples and is the clean twin of every spec.
Each spec then needs only the span of its faulty stream that the fault
can reach.  An output depends on the last ``taps`` samples alone (finite
support), so the clean and faulty outputs can differ only at indices
``start .. end + taps - 2``, and each of those depends on samples from
``start - taps + 1`` on.  A spec's segment is therefore the faulty stream
over ``[start - taps + 1, hi)``, ``hi = min(n, end + taps - 1)``, with a zero
pad standing in for each index before the stream's start, as a fresh
filter's zeroed window does.  The segments of all specs are joined, in
spec order, and filtered by one fresh filter in one run.  The last
``hi - start`` outputs of a segment see only that segment's samples: the
``taps - 1`` before them lead every segment.  So each equals the
full-stream faulty output, and it is compared with ``clean_out[start:hi]``.
Every check runs before the joined run, in spec order, and errors name
stream indices: a window that overruns the stream first, then a bad
sample (at the first spec, by the clean run), then an out-of-range level,
at the fault's start.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import FilterConfig, GammaWindowFilter, MODE_NORMALIZED, check_sample

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


def inject(samples: Sequence[int], spec: FaultSpec) -> list[int]:
    """Pure transformation: returns a copy with the fault window replaced."""
    _check_window(spec, len(samples))
    out = list(samples)
    out[spec.start : spec.end] = [spec.replacement_value] * spec.duration
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
) -> dict:
    """The ``sweep`` report of ``spec`` alone over ``clean_stream``."""
    return sweep([spec], config, [clean_stream])["reports"][0]


def _check_window(spec: FaultSpec, length: int) -> None:
    if spec.end > length:
        raise ValueError(
            f"fault window [{spec.start}, {spec.end}) exceeds stream length {length}"
        )


def sweep(
    specs: Sequence[FaultSpec],
    config: FilterConfig,
    streams: Sequence[Iterable[int]],
) -> dict:
    """Per-spec attenuation reports over one stream, plus aggregate
    deviation statistics.

    ``streams`` holds exactly one stream.  It is read once and filtered
    clean once, after the first spec's window check, which checks its
    samples; the faulty segments of all specs, each the span its fault can
    reach, then take one more run (see the module note).  A report holds
    the spec's fields under ``"spec"``, then ``max_output_deviation``,
    ``analytic_bound``, ``recovery_index`` and ``bound_satisfied``, and
    equals the one over the whole stream.  recovery_index is the first
    index at or after the fault end from which the two output streams
    agree for good; a window purge guarantees it is at most
    ``spec.end + taps - 1``.
    """
    if len(streams) != 1:
        raise ValueError(f"need exactly 1 stream, got {len(streams)}")
    clean = list(streams[0])
    taps = config.taps
    spans, joined = [], []
    for spec in specs:
        _check_window(spec, len(clean))
        if not spans:
            clean_out = GammaWindowFilter(config).run(clean)
        try:
            level = check_sample(spec.replacement_value, config.sample_format.max_raw)
        except ValueError as exc:
            raise ValueError(f"sample {spec.start}: {exc}") from exc
        # the taps - 1 samples before the fault, zeros before the stream's
        # start, then the faulty stream up to hi
        lo = spec.start - taps + 1
        hi = min(len(clean), spec.end + taps - 1)
        joined += [0] * -lo + clean[max(0, lo):spec.start]
        spans.append((spec, level, hi, len(joined)))
        joined += [level] * spec.duration + clean[spec.end:hi]
    joined_out = GammaWindowFilter(config).run(joined) if spans else []

    reports = []
    for spec, level, hi, at in spans:
        faulty_out = joined_out[at : at + hi - spec.start]
        deviations = list(map(abs, map(operator.sub, faulty_out, clean_out[spec.start : hi])))
        max_deviation = max(deviations)
        delta_max = max(abs(level - operator.index(x)) for x in clean[spec.start : spec.end])
        bound = analytic_deviation_bound(config, spec, delta_max)
        # the outputs agree for good after the last deviation
        changed = len(deviations)
        while changed and not deviations[changed - 1]:
            changed -= 1

        reports.append({
            "spec": dict(vars(spec)),
            "max_output_deviation": max_deviation,
            "analytic_bound": bound,
            "recovery_index": max(spec.end, spec.start + changed),
            "bound_satisfied": max_deviation <= bound,
        })

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
