"""The package names the benchmark reads or wraps must keep resolving.

``perfbench/tracing.py`` patches its attributes only in the unscored
``--trace 1`` run, and ``perfbench/workloads.py`` reads config and weight
attributes to gate each run, so a renamed or deleted name would otherwise
show up only in the benchmark.
"""

import importlib.util
import os

import pytest

import gdswu
import gdswu.core
from gdswu.systolic import ARCHITECTURES, build_pipeline

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
