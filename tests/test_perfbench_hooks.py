"""The package names the benchmark reads or wraps must keep resolving.

``perfbench/tracing.py`` patches its attributes only in the unscored
``--trace 1`` run, and ``perfbench/workloads.py`` reads config and weight
attributes to gate each run, so a renamed or deleted name would otherwise
show up only in the benchmark.
"""

import importlib.util
import inspect
import os
import subprocess
import sys
from unittest import mock

import pytest

import gdswu
import gdswu.cli
import gdswu.core
import gdswu.faults
from gdswu.systolic import ARCHITECTURES, CYCLE_CSV_HEADER, build_pipeline
from reference_systolic import cycle_csv_lines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_resolves():
    targets = [(owner, attr) for owner, attr, _, _ in _tracing()._targets()]
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


def test_importing_the_package_loads_neither_the_oracle_nor_the_cli():
    # The setup_s probe runs "import gdswu" with PYTHONDONTWRITEBYTECODE=1,
    # so it compiles every module that import pulls in from source.
    code = ("import gdswu, sys; loaded = {'gdswu.oracle', 'gdswu.cli'} & set(sys.modules); "
            "assert not loaded, loaded")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_the_setup_probe_loads_only_the_config_modules():
    # Neither dataclasses (it imports inspect, ast, dis and tokenize) nor
    # fractions (it imports decimal), nor a submodule the probe does not
    # call; the lazy names still resolve, and the CLI loads no inspect.
    code = (
        "import sys\n"
        "import gdswu\n"
        "gdswu.make_config()\n"
        "heavy = {'dataclasses', 'fractions', 'inspect', 'gdswu.faults', 'gdswu.systolic'}\n"
        "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
        "assert gdswu.FaultSpec.__module__ == 'gdswu.faults'\n"
        "assert gdswu.build_pipeline.__module__ == 'gdswu.systolic'\n"
        "import gdswu.cli\n"
        "assert not {'inspect', 'dataclasses'} & set(sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_the_config_keys_are_the_make_config_parameters():
    # cli builds _CONFIG_TYPES from make_config's code object, without inspect
    parameters = inspect.signature(gdswu.make_config).parameters.values()
    assert gdswu.cli._CONFIG_TYPES == {p.name: type(p.default) for p in parameters}


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


def test_run_and_sweep_call_the_public_filter_run(tmp_path):
    # perfbench/smoke.py proves the run-stream and fault-sweep gates by
    # corrupting GammaWindowFilter.run, and tracing.py wraps it; a path
    # around it would escape the corruption and read 0 in the trace.
    path = tmp_path / "in.csv"
    path.write_text("5\n9\n", encoding="utf-8")
    config = gdswu.core.make_config(taps=5)
    spec = gdswu.FaultSpec(kind="spike", start=1, duration=1, magnitude=100)
    run = gdswu.core.GammaWindowFilter.run
    with mock.patch.object(gdswu.core.GammaWindowFilter, "run", autospec=True,
                           side_effect=run) as hook:
        argv = ["run", str(path), "--taps", "5", "-o", str(tmp_path / "out.csv")]
        assert gdswu.cli.main(argv) == 0
        assert hook.call_count == 1
        gdswu.faults.sweep([spec], config, [[5, 9, 7, 3]])
        assert hook.call_count > 1


def test_the_sweep_span_reads_the_workload_call_shape():
    # The fault-sweep workload calls sweep(specs, config, [samples]), and
    # tracing.py labels the span with len(args[0]) and len(args[2][0]).
    config = gdswu.make_config(taps=8, mode="raw-accumulate")
    samples = [(5 * i) % 128 for i in range(64)]
    specs = [gdswu.FaultSpec(kind, start, duration, 127)
             for kind in ("spike", "stuck", "dropout") for start in (16, 48) for duration in (1, 16)]
    args = (specs, config, [samples])
    result = gdswu.faults.sweep(*args)
    (attrs,) = [fn for owner, attr, _, fn in _tracing()._targets()
                if (owner, attr) == (gdswu.faults, "sweep")]
    assert attrs(args, result) == {"specs": len(specs), "stream_len": len(samples)}
