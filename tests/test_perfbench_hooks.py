"""The package names the benchmark reads or wraps must keep resolving.

``perfbench/tracing.py`` patches its attributes only in the unscored
``--trace 1`` run, and ``perfbench/workloads.py`` reads config and weight
attributes to gate each run, so a renamed or deleted name would otherwise
show up only in the benchmark.
"""

import importlib.util
import os
from unittest import mock

import pytest

import gdswu
import gdswu.cli
import gdswu.core
from gdswu.systolic import ARCHITECTURES, CYCLE_CSV_HEADER, build_pipeline, cycle_csv_lines

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(owner, attr) for owner, attr, _, _ in tracing._targets()]
    targets.append((gdswu.core, "mac_exact"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_a_pipeline_names_its_architecture(architecture):
    # tracing.py labels each run_pipeline span with model.plan.architecture
    model = build_pipeline(gdswu.core.make_config(taps=5), architecture)
    assert model.plan.architecture == architecture


def test_the_top_level_names_the_workloads_use_resolve():
    for name in ("make_config", "build_pipeline", "FaultSpec", "MODE_NORMALIZED"):
        assert hasattr(gdswu, name), name


def test_the_config_and_weight_attributes_the_workloads_read_resolve():
    config = gdswu.make_config(taps=5, frac_bits=9, sample_offset=0.5)
    weights = config.weights
    assert (config.params.a, config.params.b) == (1, 10.0)
    assert config.taps == len(weights.raw) == 5
    assert config.mode == gdswu.MODE_NORMALIZED
    assert config.sample_format.max_raw == 127
    assert weights.raw_sum == sum(weights.raw)
    assert weights.qformat.frac_bits == 9
    assert weights.sample_offset == 0.5


@pytest.mark.parametrize("text", ["5\n9\n", '"5"\n9\n'], ids=["plain", "quoted"])
def test_the_traced_reader_returns_a_list(tmp_path, text):
    # tracing.py takes len() of what cli._read_samples returns as its row count
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    samples = gdswu.cli._read_samples(str(path), False, 127)
    assert type(samples) is list and samples == [5, 9]


def test_simulate_hands_every_report_through_cli_run_pipeline(tmp_path):
    # The simulate-wide gate and the reports-memory hook replace
    # gdswu.cli.run_pipeline and read the reports it returns; a simulate
    # that bypassed the name, or wrote cycles it did not return, would
    # escape both.
    path, cycles = tmp_path / "in.csv", tmp_path / "cycles.csv"
    path.write_text("".join(f"{x}\n" for x in range(0, 128, 9)), encoding="utf-8")
    seen = []
    original = gdswu.cli.run_pipeline

    def capture(model, samples):
        seen.append(original(model, samples))
        return seen[-1]

    argv = ["simulate", str(path), "--taps", "5", "-o", str(cycles),
            "--summary", str(tmp_path / "summary.json")]
    with mock.patch.object(gdswu.cli, "run_pipeline", capture):
        assert gdswu.cli.main(argv) == 0
    assert len(seen) == 1
    reports = seen[0][1]
    assert len(reports) == 15 + 4  # the samples, then latency - 1 drain ticks
    header = ",".join(CYCLE_CSV_HEADER) + "\n"
    assert cycles.read_text(encoding="utf-8") == header + cycle_csv_lines(reports)
