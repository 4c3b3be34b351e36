"""Composite path modeling with cyclic feedback estimation.

Estimates structural models over latent constructs by alternating outer and
inner approximation, then quantifies feedback loops with a two-step
procedure: the converged source score re-enters a second model as a
single-indicator block, and bootstrap standard errors feed a reinforcement
test comparing the sequential and cyclic coefficients.
"""

__version__ = "0.1.0"

from .assessment import (
    ConstructReliability,
    IndicatorReliability,
    ReliabilityReport,
    assess,
    ave,
    composite_reliability,
    cronbach_alpha,
    dijkstra_rho_a,
    unidimensionality,
)
from .cyclic import (
    DIRECTIONS,
    CyclicFit,
    TestResult,
    build_feedback_model,
    estimate_cyclic,
    reinforcement_test,
    reinforcement_tests,
    score_column_name,
)
from .dataset import (
    MISSING_POLICIES,
    PreparedData,
    RawTable,
    load_table,
    mca_first_dimension,
    mca_inertia_shares,
    prepare_blocks,
    standardize_column,
)
from .errors import DataError, DataFileError, EstimationError, ModelError
from .modelspec import (
    MODES,
    SCHEMES,
    BlockSpec,
    CyclicSpec,
    ModelSpec,
    PathSpec,
    ValidationReport,
    ancestors,
    model_document,
    parse_model,
    serialize_model,
    topological_order,
    validate_model,
)
from .plscore import DEFAULT_MAX_ITER, DEFAULT_TOL, PlsFit, fit_pls
from .report import build_run_report, render_text
from .resample import (
    MIN_REPLICATES,
    BootstrapResult,
    CoefficientStats,
    bootstrap,
    percentile_ci,
)
from .simgen import (
    ConstructPopulation,
    PopulationSpec,
    gen_acyclic,
    gen_cyclic_equilibrium,
    indicator_names,
    parse_population,
    population_truth,
)

__all__ = [
    "__version__",
    "ModelError",
    "DataError",
    "EstimationError",
    "DataFileError",
    "MODES",
    "SCHEMES",
    "BlockSpec",
    "PathSpec",
    "CyclicSpec",
    "ModelSpec",
    "ValidationReport",
    "parse_model",
    "serialize_model",
    "model_document",
    "validate_model",
    "topological_order",
    "ancestors",
    "MISSING_POLICIES",
    "RawTable",
    "PreparedData",
    "load_table",
    "prepare_blocks",
    "standardize_column",
    "mca_first_dimension",
    "mca_inertia_shares",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "PlsFit",
    "fit_pls",
    "ReliabilityReport",
    "ConstructReliability",
    "IndicatorReliability",
    "assess",
    "cronbach_alpha",
    "composite_reliability",
    "ave",
    "dijkstra_rho_a",
    "unidimensionality",
    "DIRECTIONS",
    "CyclicFit",
    "TestResult",
    "build_feedback_model",
    "estimate_cyclic",
    "reinforcement_test",
    "reinforcement_tests",
    "score_column_name",
    "MIN_REPLICATES",
    "BootstrapResult",
    "CoefficientStats",
    "bootstrap",
    "percentile_ci",
    "ConstructPopulation",
    "PopulationSpec",
    "parse_population",
    "gen_acyclic",
    "gen_cyclic_equilibrium",
    "indicator_names",
    "population_truth",
    "build_run_report",
    "render_text",
]
