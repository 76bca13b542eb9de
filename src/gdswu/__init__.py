"""Gamma-weighted sliding-window filter model and verification kit.

Fixed-point 16-tap (configurable) window filter whose tap weights follow a
gamma probability density, with an exact-integer reference oracle, a
cycle-accurate systolic pipeline simulator, and a fault-injection harness.
The package re-exports four names; import any other from its module.
``make_config`` and ``MODE_NORMALIZED`` load with the package; ``FaultSpec``
and ``build_pipeline`` load ``faults`` and ``systolic`` on first use (PEP 562).
"""

from .core import MODE_NORMALIZED, make_config

_LAZY = {"FaultSpec": "faults", "build_pipeline": "systolic"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
