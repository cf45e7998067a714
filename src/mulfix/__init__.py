"""mulfix: fixed points of self-maps on multiplicative metric spaces.

Multiplicative metrics satisfy d(x, y) >= 1, d(x, y) = 1 iff x = y,
symmetry, and the product triangle law d(x, z) <= d(x, y) * d(y, z); the
library evaluates them in the log domain, certifies contraction-type
conditions on sampled pairs, runs Picard iteration with multiplicative
Cauchy stopping, and verifies geometric a-priori error bounds.
"""

from .conditions import (
    CONDITION_IDS,
    ConditionReport,
    ConstantEstimates,
    PhiSpec,
    ZamfirescuConstants,
    classify,
    estimate_constants,
)
from .errors import (
    ConfigError,
    DegeneratePairError,
    DomainError,
    DomainEscapeError,
    MonotoneResidualError,
    MulfixError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
    write_report,
)
from .fixtures import FIXTURE_NAMES, RemarkReport, fixture_config, run_fixture
from .maps import Box, SelfMapSpec, grid_points, sample_box
from .metrics import (
    AxiomReport,
    FunctionMetric,
    MetricSpec,
    Point,
    ReverseTriangleReport,
    as_point,
    in_open_ball,
    star_abs,
    verify_axioms,
    verify_reverse_triangle,
)
from .sequences import (
    IterationTrace,
    Status,
    cauchy_indicator,
    detect_limit_point,
    is_converged_to,
)
from .solver import (
    BoundReport,
    FixedPointResult,
    SolverConfig,
    StartIndependenceReport,
    UniquenessReport,
    apriori_bound,
    picard,
    uniqueness_probe,
    verify_bound,
    verify_start_independence,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BoundReport",
    "Box",
    "CONDITION_IDS",
    "ConditionReport",
    "ConfigError",
    "ConstantEstimates",
    "DegeneratePairError",
    "DomainError",
    "DomainEscapeError",
    "ExperimentConfig",
    "ExperimentReport",
    "FIXTURE_NAMES",
    "FixedPointResult",
    "FunctionMetric",
    "IterationTrace",
    "MetricSpec",
    "MonotoneResidualError",
    "MulfixError",
    "PhiSpec",
    "Point",
    "RemarkReport",
    "ReverseTriangleReport",
    "SelfMapSpec",
    "SolverConfig",
    "StartIndependenceReport",
    "Status",
    "UniquenessReport",
    "ZamfirescuConstants",
    "apriori_bound",
    "as_point",
    "cauchy_indicator",
    "classify",
    "detect_limit_point",
    "estimate_constants",
    "fixture_config",
    "grid_points",
    "in_open_ball",
    "is_converged_to",
    "picard",
    "run_experiment",
    "run_fixture",
    "sample_box",
    "star_abs",
    "uniqueness_probe",
    "verify_axioms",
    "verify_bound",
    "verify_reverse_triangle",
    "verify_start_independence",
    "write_report",
]
