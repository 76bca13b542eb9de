"""The package names the benchmark's traced run wraps must keep resolving.

``perfbench/tracing.py`` patches these attributes only in the unscored
``--trace 1`` run, so a renamed or deleted hook would otherwise show up
only there.
"""

import importlib.util
import os

import gdswu.core

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
