"""Gamma-weighted sliding-window filter model and verification kit.

Fixed-point 16-tap (configurable) window filter whose tap weights follow a
gamma probability density, with an exact-integer reference oracle, a
cycle-accurate systolic pipeline simulator, and a fault-injection harness.
"""

from .core import (
    MODE_NORMALIZED,
    MODE_RAW,
    MODES,
    FilterConfig,
    GammaWindowFilter,
    make_config,
    step_response,
)
from .faults import (
    AttenuationReport,
    FaultSpec,
    analytic_deviation_bound,
    attenuation_report,
    inject,
    sweep,
)
from .fixed_point import (
    ROUNDING_MODES,
    QFormat,
    mac_exact,
    round_scaled,
)
from .gamma_weights import (
    MAX_SHAPE,
    GammaParams,
    WeightVector,
    build_weight_vector,
    gamma_int,
    gamma_pdf,
)
from .oracle import (
    ComparisonReport,
    compare,
    oracle_exact,
    oracle_real,
    quantization_error_bound,
)
from .systolic import (
    ARCHITECTURES,
    CycleReport,
    PipelineConfig,
    SystolicPipeline,
    build_pipeline,
    run_pipeline,
)

__version__ = "0.1.0"
