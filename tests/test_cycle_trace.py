"""The columnar cycle trace and the cycle CSV written from it.

``SystolicPipeline.clock`` returns a ``CycleTrace``: input and output
columns plus occupancy runs.  Its CSV is formatted a run at a time and must
equal rows formatted tick by tick from the frozen reference models, block
splits, idle ticks and thousand-row edges included.  Per-tick views read
through to the columns, and a view's ``emitted_output`` writes through, as
the benchmark gate's corruption check relies on.  The per-pattern facts
live on the pipeline's stage plan: the ops of each pattern, which the
writer fills, and the occupancy tuples, which only the views fill.  The
views of one pattern share one occupancy tuple, across the traces of one
pipeline too, which keeps the gate's memory flat.
"""

import io
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdswu.cli
from gdswu import csv_rows, systolic
from gdswu.core import GammaWindowFilter, make_config
from gdswu.csv_rows import numbered_rows
from gdswu.systolic import ARCHITECTURES, OPS, CycleTrace, build_pipeline, run_pipeline
from reference_systolic import build_reference, cycle_csv_lines, expand_trace, run_reference
from strategies import configs
from test_systolic import fields, gappy_streams, trace_fields, view_fields


def reference_rows(reports) -> str:
    """Cycle-CSV rows formatted one per-tick report at a time."""
    return "".join(
        f"{r.cycle},{'' if r.consumed_input is None else r.consumed_input},"
        f"{'' if r.emitted_output is None else r.emitted_output},"
        f"{r.ops['multiply']},{r.ops['add']},{r.ops['normalize']}\n"
        for r in reports
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_cycle_csv_of_any_block_split_matches_the_reference_rows(data):
    config = data.draw(configs())
    architecture = data.draw(st.sampled_from(ARCHITECTURES))
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    blocks = data.draw(st.lists(gappy_streams(config, max_size=40), max_size=5))
    for block in [*blocks, [None] * (model.latency + 1)]:
        trace = model.clock(block)
        want = [reference.tick(sample)[1] for sample in block]
        assert cycle_csv_lines(trace) == reference_rows(want)


@pytest.mark.parametrize("idle", [(990, 998, 1003, 1999), range(0, 2100, 3)],
                         ids=["busy", "gappy"])
@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("taps", [1, 5, 64])
def test_the_cycle_csv_across_thousand_row_edges(architecture, taps, idle):
    # busy runs that start, end or break on either side of cycles 999,
    # 1,000 and 2,000, or stepped ticks over them, in a second block that
    # starts mid-thousand
    config = make_config(taps=taps)
    stream = [(7 * i) % 128 for i in range(2100)]
    for i in idle:
        stream[i] = None
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    for block in (stream[:37], stream[37:], [None] * model.pending):
        trace = model.clock(block)
        want = [reference.tick(sample)[1] for sample in block]
        assert cycle_csv_lines(trace) == reference_rows(want)


# every digit count of a byte value, True among them, and values past a
# byte either way, which send their block through the %d template
BYTE_VALUES = (0, 9, 10, 99, 100, 255, True)
WIDE_VALUES = (256, -1, 2**64)


@settings(max_examples=60, deadline=None)
@given(first=st.one_of(st.sampled_from([999, 1000, 9999, 10000, 99999, 100000, 999999, 1000000]),
                       st.integers(0, 3000)),
       lo=st.one_of(st.just(0), st.integers(1, 2100)),
       rows=st.integers(0, 2100),
       wide=st.lists(st.tuples(st.integers(0, 2099), st.booleans(), st.sampled_from(WIDE_VALUES)),
                     max_size=3),
       end=st.sampled_from(["\n", ",64,63,1\n"]))
@example(first=999, lo=0, rows=1100, wide=[], end="\n")  # bytes, across 1,000
@example(first=9999, lo=0, rows=1500, wide=[(0, False, 256)], end="\n")  # %d, then bytes across 10,000
@example(first=99999, lo=0, rows=2002, wide=[(2001, True, -1)], end=",64,63,1\n")  # bytes, then %d
@example(first=999999, lo=0, rows=1003, wide=[(1, True, 2**64)], end="\n")  # bytes, %d, bytes
@example(first=0, lo=0, rows=1001, wide=[(1000, False, 2**64)], end=",64,63,1\n")  # block 0 bytes
@example(first=999, lo=1001, rows=1100, wide=[(5, True, 256)], end="\n")  # from row lo, %d first
def test_numbered_rows_match_rows_formatted_one_at_a_time(first, lo, rows, wide, end):
    xs = [BYTE_VALUES[i % 7] if i % 3 else (i * 0x9E3779B97F4A7C15) % 256 for i in range(rows)]
    ys = [BYTE_VALUES[i % 5] if i % 2 else (i * i) % 256 for i in range(rows)]
    for at, column, value in wide:
        if at < rows:
            (ys if column else xs)[at] = value
    want = "".join(f"{first + i},{x:d},{y:d}{end}" for i, (x, y) in enumerate(zip(xs, ys)))
    assert "".join(numbered_rows(first, xs, ys, 0, rows, end)) == want
    # rows lo to lo + rows - 1, numbered from first; the columns hold items
    # before lo and after lo + rows that must not be read
    xs, ys = [256] * lo + xs + [256], [-1] * lo + ys + [-1]
    assert "".join(numbered_rows(first - lo, xs, ys, lo, lo + rows, end)) == want


class _Index:
    """A sample that is an int only through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# The byte path's digit tables with letters for digits, so that a value
# the byte path wrote reads as letters and one the %d template wrote as
# digits.  The row numbers' digits come from other columns and stay digits.
_LETTERED = tuple(table.translate(bytes.maketrans(b"0123456789", b"abcdefghij"))
                  for table in csv_rows._TABLES)
_LETTERS = str.maketrans("0123456789", "abcdefghij")


def _rows(first, xs, ys, by_bytes):
    """Rows formatted one at a time from the values' texts, a value's
    digits as letters in the blocks ``by_bytes`` names."""
    rows = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        values = f"{x},{y}"
        if by_bytes((first + i) // 1000):
            values = values.translate(_LETTERS)
        rows.append(f"{first + i},{values}\n")
    return "".join(rows)


# A value, its text, and whether the byte path takes its block: a bool and
# an int through __index__ fit a byte; a value past a byte either way, or a
# non-integer, sends its block, and only its block, through the %d template.
ODD_VALUES = [
    (True, "1", True), (_Index(7), "7", True), (256, "256", False), (-1, "-1", False),
    (1.5, "1", False), (_Index(300), "300", False),
]


@pytest.mark.parametrize("kind", [list, tuple, gdswu.cli._Held], ids=["list", "tuple", "held"])
@pytest.mark.parametrize("value, text, fits", ODD_VALUES,
                         ids=["bool", "index", "256", "-1", "1.5", "index-256"])
@pytest.mark.parametrize("column", ["x", "y"])
def test_only_the_block_the_byte_constructor_refuses_takes_the_percent_d_template(
    monkeypatch, kind, value, text, fits, column
):
    monkeypatch.setattr(csv_rows, "_TABLES", _LETTERED)
    # blocks 0 to 3 of the row numbers: rows 0-99, 100-1099, 1100-2099 and
    # 2100-2299; the odd value sits in block 2
    first, rows, at = 900, 2300, 1500
    xs = [(7 * i) % 256 for i in range(rows)]
    ys = [(i * i) % 256 for i in range(rows)]
    texts = {"x": list(map(str, xs)), "y": list(map(str, ys))}
    (xs if column == "x" else ys)[at] = value
    texts[column][at] = text
    got = "".join(numbered_rows(first, kind(xs), kind(ys), 0, rows))
    assert got == _rows(first, texts["x"], texts["y"], lambda block: fits or block != 2)


@pytest.mark.parametrize("start, by_bytes", [(0, {0, 1}), (150, {0}), (200, set())],
                         ids=["bytes", "bytes then %d", "%d"])
def test_a_range_column_takes_the_byte_path_where_its_values_fit_a_byte(
    monkeypatch, start, by_bytes
):
    # rows 0-99 are block 0 and rows 100-249 block 1
    monkeypatch.setattr(csv_rows, "_TABLES", _LETTERED)
    xs, ys = range(start, start + 250), range(5, 255)
    got = "".join(numbered_rows(900, xs, ys, 0, 250))
    assert got == _rows(900, list(map(str, xs)), list(map(str, ys)), by_bytes.__contains__)


@pytest.mark.parametrize("length", [12, 2100], ids=["%d", "table"])
@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_a_bool_or_index_sample_prints_as_its_int_on_any_tick(architecture, length):
    # A bool and an __index__ sample on the fill ticks, on busy ticks, and
    # on the ticks after an idle one; each row prints the int, as the row
    # of the same stream of ints does.
    config = make_config(taps=2)
    ints = [(7 * i) % 128 for i in range(length)]
    for i in (0, 1, 6, 7, 9, 10):
        ints[i] = 1 if i % 3 == 0 else 7
    ints[8] = None
    mixed = [True if x == 1 else _Index(7) if x == 7 else x for x in ints]
    traces = [run_pipeline(build_pipeline(config, architecture), stream)[1]
              for stream in (mixed, ints)]
    busy = {t for t, view in enumerate(traces[0]) if all(view.stage_occupancy)}
    assert {0, 1, 9, 10}.isdisjoint(busy) and {6, 7} <= busy
    got, want = (cycle_csv_lines(trace) for trace in traces)
    assert got == want
    assert [row.split(",")[1] for row in got.splitlines()[:2]] == ["1", "7"]


class _Unhashable(_Index):
    """An ``__index__`` sample with ``__eq__``, and so no ``__hash__``."""

    def __eq__(self, other):
        return isinstance(other, _Index) and self.value == other.value


@pytest.mark.parametrize("writer", [*ARCHITECTURES, "run"])
def test_an_unhashable_index_sample_prints_as_its_int_in_a_long_csv(writer):
    # the 2,100 rows of a long trace or run CSV, every fifth sample an
    # object that no dict can key
    config = make_config(taps=2)
    ints = [(7 * i) % 128 for i in range(2100)]
    mixed = [_Unhashable(x) if i % 5 == 0 else x for i, x in enumerate(ints)]
    if writer == "run":
        got, want = io.StringIO(), io.StringIO()
        for fh, stream in ((got, mixed), (want, ints)):
            gdswu.cli._write_run_csv(fh, stream, GammaWindowFilter(config).run(stream), len(stream))
        got, want = got.getvalue(), want.getvalue()
    else:
        got, want = (cycle_csv_lines(run_pipeline(build_pipeline(config, writer), stream)[1])
                     for stream in (mixed, ints))
    assert got == want


def _bump_last_output(trace):
    view = next(r for r in reversed(trace) if r.emitted_output is not None)
    view.emitted_output += 1
    return view


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_a_bump_through_reversed_writes_through_to_the_csv(architecture):
    stream = [5, 120, 7, 0, 127, 33, 64, 9]
    outputs, trace = run_pipeline(build_pipeline(make_config(taps=4), architecture), stream)
    before = cycle_csv_lines(trace).splitlines()
    view = _bump_last_output(trace)
    assert trace.outputs[-1] == view.emitted_output == outputs[-1] + 1
    # the drain stops on the tick that emits the last output
    row = before[-1].split(",")
    row[2] = str(outputs[-1] + 1)
    assert cycle_csv_lines(trace).splitlines() == before[:-1] + [",".join(row)]


@pytest.mark.parametrize("value", [128, -1, 2**64], ids=["top+1", "negative", "wide"])
@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_an_output_edited_out_of_range_prints_as_its_int_through_each_path(
    architecture, value
):
    # a busy tick's output edited past the 7-bit format prints as %d
    # prints it: 128 still fits a byte and takes the byte path, -1 and
    # 2**64 send their block through the %d template
    stream = [(7 * i) % 128 for i in range(2100)]
    _, trace = run_pipeline(build_pipeline(make_config(taps=4), architecture), stream)
    before = cycle_csv_lines(trace).splitlines()
    tick, view = [(t, v) for t, v in enumerate(trace) if all(v.stage_occupancy)][1500]
    view.emitted_output = value
    row = before[tick].split(",")
    row[2] = str(value)
    assert cycle_csv_lines(trace).splitlines() == [*before[:tick], ",".join(row), *before[tick + 1:]]


def test_a_bump_made_on_the_returned_trace_reaches_the_cli_cycle_csv(tmp_path):
    path, cycles = tmp_path / "in.csv", tmp_path / "cycles.csv"
    path.write_text("".join(f"{x}\n" for x in range(0, 128, 9)), encoding="utf-8")
    original = gdswu.cli.run_pipeline

    def bump(model, samples):
        outputs, trace = original(model, samples)
        _bump_last_output(trace)
        return outputs, trace

    argv = ["simulate", str(path), "--taps", "5", "-o", str(cycles),
            "--summary", str(tmp_path / "summary.json")]
    with mock.patch.object(gdswu.cli, "run_pipeline", bump):
        assert gdswu.cli.main(argv) == 0
    outputs, _ = run_pipeline(build_pipeline(make_config(taps=5), "tree"), list(range(0, 128, 9)))
    last = cycles.read_text(encoding="utf-8").splitlines()[-1].split(",")
    assert int(last[2]) == outputs[-1] + 1


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_len_and_iteration_from_either_end(architecture):
    stream = [3, None, 127, 0, 64, None, None, 5, 9]
    model = build_pipeline(make_config(taps=3), architecture)
    _, trace = run_pipeline(model, stream)
    views = list(trace)
    assert len(trace) == len(views) == len(stream) + model.latency - 1
    want = list(map(view_fields, reversed(expand_trace(trace))))
    assert list(map(view_fields, reversed(trace))) == list(map(view_fields, reversed(views))) == want


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_a_drain_extends_the_block_it_follows(architecture):
    config = make_config(taps=4)
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    block = [8, None, 100, 3]
    trace = model.clock(block)
    emitted = list(trace.outputs)
    drain = model.clock([None] * model.pending)
    drained = drain.outputs
    trace.extend(drain)
    want = [reference.tick(sample) for sample in block + [None] * len(drained)]
    assert len(trace) == len(want)
    assert trace.outputs == emitted + drained == [output for output, _ in want]
    assert trace_fields(trace) == [fields(report) for _, report in want]
    assert cycle_csv_lines(trace) == reference_rows(report for _, report in want)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_clock_returns_a_trace_that_extend_grows_in_place(architecture):
    config = make_config(taps=5)
    model = build_pipeline(config, architecture)
    reference = build_reference(config, architecture)
    blocks = [[8, None, 100], [], [3] * 12 + [None, 7], [None] * 9]
    trace = model.clock(blocks[0])
    inputs, outputs, runs = trace.inputs, trace.outputs, trace.runs
    for block in blocks[1:]:
        later = model.clock(block)
        assert type(later) is CycleTrace
        trace.extend(later)
    assert trace.inputs is inputs and trace.outputs is outputs and trace.runs is runs
    want = [reference.tick(sample) for block in blocks for sample in block]
    assert trace.outputs == [output for output, _ in want]
    assert trace_fields(trace) == [fields(report) for _, report in want]
    assert cycle_csv_lines(trace) == reference_rows(report for _, report in want)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("taps", [1, 2, 5, 64])
def test_steady_ops_are_the_plan_ops_once_every_stage_is_busy(taps, architecture):
    config = make_config(taps=taps)
    latency = build_pipeline(config, architecture).latency
    for length in (0, 1, latency - 1, latency, latency + 1, 3 * latency):
        model = build_pipeline(config, architecture)
        stream = [(5 * i) % 128 for i in range(length)]
        _, trace = run_pipeline(model, stream)
        want = next((r.ops for r in run_reference(build_reference(config, architecture), stream)[1]
                     if all(r.stage_occupancy)), None)
        if length < latency:
            assert trace.steady_ops() is want is None
        else:
            assert trace.steady_ops() == want == dict(zip(OPS, model.plan.ops(model.plan.full)))
            assert want == {"multiply": taps, "add": taps - 1, "normalize": 1}


@pytest.mark.parametrize("idle", [(), (1, 2)], ids=["gapless", "half-idle"])
@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_the_views_of_one_pattern_share_one_occupancy_tuple(architecture, idle):
    # the simulate-wide gate holds every view's occupancy at once
    stream = [None if i % 4 in idle else (7 * i) % 128 for i in range(2000)]
    _, trace = run_pipeline(build_pipeline(make_config(taps=64), architecture), stream)
    occupancies = [view.stage_occupancy for view in trace]  # all alive, so no id is reused
    patterns = set(occupancies)
    assert len(patterns) < len(occupancies)
    assert len(set(map(id, occupancies))) == len(patterns)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_a_block_and_its_drain_share_the_plan_and_its_occupancy_tuples(architecture):
    # run_pipeline's two clocks; the idle tick leaves the pattern that the
    # drain's first tick has too
    model = build_pipeline(make_config(taps=5), architecture)
    block = model.clock([5] * 10 + [None] + [5] * 10)
    drain = model.clock([None] * model.pending)
    assert block.plan is drain.plan is model.plan
    first = {occupancy: occupancy for occupancy in (view.stage_occupancy for view in block)}
    shared = [view.stage_occupancy for view in drain if view.stage_occupancy in first]
    assert shared and all(first[occupancy] is occupancy for occupancy in shared)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_simulate_fills_the_plan_ops_but_no_occupancy(tmp_path, architecture):
    path = tmp_path / "in.csv"
    path.write_text("".join(f"{(5 * x) % 128}\n" for x in range(300)), encoding="utf-8")
    models = []
    original = gdswu.cli.run_pipeline

    def capture(model, samples):
        models.append(model)
        return original(model, samples)

    argv = ["simulate", str(path), "--taps", "16", "--architecture", architecture,
            "-o", str(tmp_path / "cycles.csv"), "--summary", str(tmp_path / "summary.json")]
    with mock.patch.object(gdswu.cli, "run_pipeline", capture):
        assert gdswu.cli.main(argv) == 0
    (model,) = models
    assert model.plan.full in model.plan
    assert model.plan.occupancy == {}


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("taps", [1, 2, 5, 64])
def test_the_cached_ops_are_the_plan_ops(taps, architecture):
    model = build_pipeline(make_config(taps=taps), architecture)
    # a gapless stretch that fills even a 64-tap chain, then gaps
    stream = [None if 90 < i < 100 or i > 150 and i % 3 == 1 else (7 * i) % 128
              for i in range(300)]
    _, trace = run_pipeline(model, stream)
    cycle_csv_lines(trace)
    plan = model.plan
    assert plan.full in plan and set(plan) == {bits for bits, _ in trace.runs}
    assert all(ops == plan.ops(bits) for bits, ops in plan.items())


def test_simulate_builds_no_per_tick_view(tmp_path):
    path, cycles = tmp_path / "in.csv", tmp_path / "cycles.csv"
    path.write_text("".join(f"{(5 * x) % 128}\n" for x in range(3000)), encoding="utf-8")
    for architecture in ARCHITECTURES:
        argv = ["simulate", str(path), "--taps", "16", "--architecture", architecture,
                "-o", str(cycles), "--summary", str(tmp_path / "summary.json")]
        with mock.patch.object(systolic.CycleReport, "__init__",
                               side_effect=AssertionError("a per-tick view was built")):
            assert gdswu.cli.main(argv) == 0
        rows = cycles.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + 3000 + build_pipeline(make_config(taps=16), architecture).latency - 1


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("taps", [1, 5, 64])
def test_a_gapless_caller_list_is_never_the_trace_column(taps, architecture):
    # The trace's input column grows as drains extend it, so it must be a
    # list of the trace's own, not the caller's.
    config = make_config(taps=taps)
    stream = [(7 * i) % 128 for i in range(3 * taps)]
    kept = list(stream)
    for clock in (build_pipeline(config, architecture).clock,
                  lambda samples: run_pipeline(build_pipeline(config, architecture), samples)[1]):
        trace = clock(stream)
        assert trace.inputs is not stream
        assert stream == kept
        trace.extend(build_pipeline(config, architecture).clock([None] * 3))
        assert stream == kept
