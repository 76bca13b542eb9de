"""Gamma-weighted sliding-window filter model and verification kit.

Fixed-point 16-tap (configurable) window filter whose tap weights follow a
gamma probability density, with an exact-integer reference oracle, a
cycle-accurate systolic pipeline simulator, and a fault-injection harness.
The package re-exports the names below; import any other from its module.
"""

from .core import MODE_NORMALIZED, make_config
from .faults import FaultSpec
from .systolic import build_pipeline
