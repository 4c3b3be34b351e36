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
    Moments,
    PreparedData,
    RawTable,
    load_table,
    mca_first_dimension,
    prepare_blocks,
    standardize_column,
    write_table,
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
