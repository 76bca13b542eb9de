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

The stream is checked once, at the first spec, by the kernel's fused
check (``_pack``), which changes no state.  A stream it refuses is run by
the filter, which then raises the error of its first bad sample (the
``core`` module note), as a run over the whole stream would.  After that
check, one run of one fresh filter takes every spec's faulty span, then
the clean spans.

Each spec needs only the span of its faulty stream that the fault can
reach.  An output depends on the last ``taps`` samples alone (finite
support), so the clean and faulty outputs can differ only at indices
``start .. end + taps - 2``, and each of those depends on samples from
``start - taps + 1`` on.  A spec's segment is therefore the faulty stream
over ``[start - taps + 1, hi)``, ``hi = min(n, end + taps - 1)``, with a zero
pad standing in for each index before the stream's start, as a fresh
filter's zeroed window does.  The last ``hi - start`` outputs of a segment
see only that segment's samples: the ``taps - 1`` before them lead every
segment.  So each equals the full-stream faulty output.

The reports read the clean outputs ``[start, hi)`` of each spec, and no
other.  The clean spans are the union of those ranges, sorted, with two
merged where the gap between them is at most ``taps - 1`` samples, each
led by its own ``taps - 1`` samples (zeros before index 0), so that its
outputs too equal the full-stream ones.  That is the union of the led
ranges ``[start - taps + 1, hi)``, merged where two overlap or touch,
which is how ``sweep`` builds them.  Merging across a gap of g
samples filters those g where a separate lead would filter ``taps - 1``.
A lead that stays separate skips a gap of at least ``taps`` samples, so
it lies inside that gap, after the span before it.  The spans and the
leads after the first are thus disjoint ranges of the stream, and the
clean part is at most ``n + taps - 1`` samples: as many as the fields
that a whole-stream run packs, zeroed window included.

The faulty segments go first, in spec order, and the clean spans last,
in increasing order.  The run's last output is then the clean output at
the largest ``hi - 1``, the last one that the spec with that ``hi``
compares.  Where the two outputs agree there, an edit of that last
output moves the spec's recovery index, which the benchmark's check of
its own correctness gate relies on.

Every check runs before the run, in spec order, and errors name stream
indices: a window that overruns the stream first, then a bad sample (at
the first spec, by the stream check), then an out-of-range level, at the
fault's start.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import Iterable, Sequence

from .core import _PACK_ERRORS, FilterConfig, GammaWindowFilter, MODE_NORMALIZED, check_sample
from .fixed_point import Record

FAULT_KINDS: tuple[str, ...] = ("spike", "stuck", "dropout")


class FaultSpec(Record):
    """One injected transient: kind, position, duration, level (as ints)."""

    _fields = ("kind", "start", "duration", "magnitude")

    def __init__(self, kind: str, start: int, duration: int = 1, magnitude: int = 0):
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}, expected one of {FAULT_KINDS}")
        start, duration, magnitude = map(operator.index, (start, duration, magnitude))
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if duration < 1:
            raise ValueError(f"duration must be >= 1, got {duration}")
        if magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {magnitude}")
        vars(self).update(kind=kind, start=start, duration=duration, magnitude=magnitude)

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

    ``streams`` holds exactly one stream.  It is read once and checked
    once, after the first spec's window check; then one run of one filter
    takes each spec's faulty span and the clean spans the reports read
    (see the module note).  A report holds the spec's fields under
    ``"spec"``, then ``max_output_deviation``, ``analytic_bound``,
    ``recovery_index`` and ``bound_satisfied``, and equals the one over
    the whole stream.  recovery_index is the first index at or after the
    fault end from which the two output streams agree for good; a window
    purge guarantees it is at most ``spec.end + taps - 1``.
    """
    if len(streams) != 1:
        raise ValueError(f"need exactly 1 stream, got {len(streams)}")
    clean = list(streams[0])
    n, taps = len(clean), config.taps
    lead = taps - 1
    max_raw = config.sample_format.max_raw
    filt = GammaWindowFilter(config)
    spans, reach, joined = [], [], []
    for spec in specs:
        start, end = spec.start, spec.end
        _check_window(spec, n)
        if not spans:
            try:
                filt._pack(clean)
            except _PACK_ERRORS:
                # a throwaway filter raises the error of the first bad
                # sample, and filt stays fresh whatever that run does
                GammaWindowFilter(config).run(clean)
        try:
            level = check_sample(spec.replacement_value, max_raw)
        except ValueError as exc:
            raise ValueError(f"sample {start}: {exc}") from exc
        # the taps - 1 samples before the fault, zeros before the stream's
        # start, then the faulty stream up to hi
        lo, hi = start - lead, min(n, end + lead)
        joined += clean[lo:start] if lo >= 0 else [0] * -lo + clean[:start]
        spans.append((spec, start, end, level, hi, len(joined)))
        reach.append((lo, hi))
        joined += [level] * (end - start)
        joined += clean[end:hi]

    # the clean spans: the union of the specs' led reaches [start - taps + 1,
    # hi), merged where they overlap or touch
    merged = []
    for lo, hi in sorted(reach):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    at = len(joined)
    for lo, hi in merged:
        joined += clean[lo:hi] if lo >= 0 else [0] * -lo + clean[:hi]
    out = filt.run(joined) if spans else []
    clean_out = [0] * n
    for lo, hi in merged:
        clean_out[lo + lead : hi] = out[at + lead : at + hi - lo]
        at += hi - lo

    # the analytic bound of each spec (see the module note): tops[k - 1] is
    # the sum of the k largest raw weights
    weights = config.weights
    tops = list(accumulate(sorted(weights.raw, reverse=True)))
    divisor = weights.raw_sum if config.mode == MODE_NORMALIZED else 1 << weights.qformat.frac_bits
    sub, index = operator.sub, operator.index
    reports = []
    for spec, start, end, level, hi, at in spans:
        deviations = list(map(abs, map(sub, out[at : at + hi - start], clean_out[start:hi])))
        max_deviation = max(deviations)
        delta_max = max(abs(level - index(x)) for x in clean[start:end])
        bound = -(-tops[min(end - start, taps) - 1] * delta_max // divisor) + 1
        # the outputs agree for good after the last deviation
        changed = len(deviations)
        while changed and not deviations[changed - 1]:
            changed -= 1
        reports.append({
            "spec": dict(vars(spec)),
            "max_output_deviation": max_deviation,
            "analytic_bound": bound,
            "recovery_index": max(end, start + changed),
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
