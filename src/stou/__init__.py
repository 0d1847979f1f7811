"""Spatio-temporal Ornstein-Uhlenbeck fields on space-time lattices:
exact and grid-approximate simulation, moment and composite-likelihood
estimation, and asymptotic-normal / parametric-bootstrap confidence
intervals with coverage experiments and a bootstrap coverage proxy."""

# set before the submodules load: experiment.py records it in manifest.txt
__version__ = "0.1.0"

from .bootstrap import (
    REPORT_PARAMS,
    IntervalEstimate,
    McCiResult,
    coverage_proxy,
    mc_ci,
    params_to_report,
    quantile_interval,
)
from .cholesky import (
    DEFAULT_MAX_POINTS,
    CholeskyFactor,
    CovarianceMatrix,
    build_covariance,
    cholesky_factor,
    simulate_exact,
)
from .cl import (
    PARAM_NAMES,
    EstimationScenario,
    PairWeightSpec,
    SandwichResult,
    ThetaCL,
    WindowSpec,
    hessian_h,
    l_pair,
    maximize_cl,
    pairwise_loglik,
    sandwich_ci,
    score_u,
    total_pair_weight,
    wsev_j,
)
from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    CorrelationAtUnity,
    CovarianceJitter,
    DegenerateSample,
    DimensionMismatch,
    FailureRateExceeded,
    InsufficientUsableLags,
    NoValidWindows,
    NotPositiveDefinite,
    OptimizerDidNotConverge,
    SingularH,
    StouError,
    TruncationTooShallow,
)
from .experiment import (CoverageEntry, CoverageReport, ExperimentConfig,
                         coverage_experiment, read_field, run, write_field)
from .gridsim import GridSimConfig, cone_cell_areas, simulate_grid
from .mm import AcfEstimate, empirical_acf, fit_mm, mm_from_moments
from .model import (
    FieldSample,
    Lattice,
    StouParams,
    corr_canonical,
    corr_separable,
    derived_moments,
)
