"""Spatio-temporal Ornstein-Uhlenbeck fields on space-time lattices:
exact and grid-approximate simulation, moment and composite-likelihood
estimation, and asymptotic-normal / parametric-bootstrap confidence
intervals with coverage experiments and a bootstrap coverage proxy.

`import stou` loads neither numpy nor any submodule: a public name loads
the submodule that defines it on first use (PEP 562), so `stou.cli` can
load numpy itself, on one BLAS thread."""

import importlib

# experiment.py records it in manifest.txt
__version__ = "0.1.0"

# each submodule and the public names it defines; `stou.<submodule>`
# resolves too, as a bare `import stou` bound every submodule's name
_EXPORTS = {
    "bootstrap": ("REPORT_PARAMS", "IntervalEstimate", "McCiResult", "coverage_proxy",
                  "mc_ci", "params_to_report", "quantile_interval"),
    "cholesky": ("DEFAULT_MAX_POINTS", "CovarianceMatrix", "build_covariance",
                 "cholesky_factor", "simulate_exact"),
    "cl": ("PARAM_NAMES", "EstimationScenario", "PairWeightSpec", "SandwichResult",
           "WindowSpec", "hessian_h", "l_pair", "maximize_cl", "pairwise_loglik",
           "sandwich_ci", "score_u", "total_pair_weight", "wsev_j"),
    "errors": ("BudgetExceeded", "ConfigInvalid", "CorrelationAtUnity", "CovarianceJitter",
               "DegenerateSample", "DimensionMismatch", "FailureRateExceeded",
               "InsufficientUsableLags", "NoValidWindows", "NotPositiveDefinite",
               "OptimizerDidNotConverge", "SingularH", "StouError", "TruncationTooShallow"),
    "experiment": ("CoverageEntry", "CoverageReport", "ExperimentConfig",
                   "coverage_experiment", "read_field", "run", "write_field"),
    "gridsim": ("GridSimConfig", "cone_cell_areas", "simulate_grid"),
    "mm": ("AcfEstimate", "empirical_acf", "fit_mm", "mm_from_moments"),
    "model": ("FieldSample", "Lattice", "StouParams", "corr_canonical", "derived_moments"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
