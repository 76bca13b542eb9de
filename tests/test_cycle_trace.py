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

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdswu.cli
from gdswu import systolic
from gdswu.core import make_config
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


@settings(max_examples=60, deadline=None)
@given(first=st.integers(0, 3000), rows=st.integers(0, 2100),
       end=st.sampled_from(["\n", ",64,63,1\n"]))
def test_numbered_rows_match_rows_formatted_one_at_a_time(first, rows, end):
    pairs = [(i % 128, (i * i) % 1000) for i in range(rows)]
    want = "".join(f"{first + i},{x},{y}{end}" for i, (x, y) in enumerate(pairs))
    assert "".join(numbered_rows(first, pairs, end)) == want


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
