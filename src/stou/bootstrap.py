"""Parametric-bootstrap confidence intervals and the bootstrap coverage
proxy.

mc_ci fits a field by moments, simulates B fields from the fitted model
into one (B, n_t, n_x) array (exact ones by one simulate_exact call in
its GEMM layout, which holds no factor), refits them by one stacked
moment fit, and reads CI bounds off the empirical quantiles of the B
re-estimates (linear order-statistic interpolation, position
1 + (B - 1) q).  The coverage engine (stou.experiment) draws each
dataset's field from the truth and passes it to mc_ci.  coverage_proxy
estimates the coverage a quantile interval would achieve without knowing
the truth, by reflecting the interval around the bootstrap median:

    CP = ECDF(theta_E + (theta_M - theta_L)) - ECDF((theta_E - (theta_U - theta_M))^-),

with the upper ECDF right-continuous and the lower term a left limit,
so CP is the mass of a closed interval centred (in the reflected sense)
on the point estimate theta_E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cholesky import DEFAULT_MAX_POINTS, build_covariance, simulate_exact
from .errors import FailureRateExceeded, StouError
from .gridsim import GridSimConfig, simulate_grid, with_default_depth
from .mm import _fit_stack, fit_mm
from .model import FieldSample, StouParams, _require_int

__all__ = [
    "REPORT_PARAMS",
    "IntervalEstimate",
    "McCiResult",
    "params_to_report",
    "quantile_interval",
    "mc_ci",
    "coverage_proxy",
]

# reporting order of the natural and derived parameters
REPORT_PARAMS = ("lambda", "c", "mu_seed", "tau", "mu", "sigma2")

# smallest bootstrap size mc_ci accepts, and the share of its refits
# that may fail before the interval is refused
MIN_BOOT = 20
MAX_FAIL_FRAC = 0.1
# fewest re-estimates a successful mc_ci returns (at B = MIN_BOOT; a
# larger B never returns fewer), so the fewest the coverage proxy must
# accept: 20 - floor(0.1 * 20) = 18
MIN_ESTIMATES = MIN_BOOT - math.floor(MAX_FAIL_FRAC * MIN_BOOT)
# largest B and n_datasets, the fields one simulate_exact call draws: at
# the site ceiling they hold no more doubles than gridsim.MAX_NOISE_CELLS
MAX_FIELDS = DEFAULT_MAX_POINTS // 2


def params_to_report(params: StouParams) -> dict[str, float]:
    """Parameter set as the reported scalar quantities."""
    return {
        "lambda": params.lam,
        "c": params.c,
        "mu_seed": params.mu_seed,
        "tau": math.sqrt(params.tau2),
        "mu": params.mu,
        "sigma2": params.sigma2,
    }


@dataclass(frozen=True)
class IntervalEstimate:
    """One parameter's point estimate and interval bounds."""

    parameter: str
    point: float
    lower: float
    upper: float
    median: float
    level: float

    def __post_init__(self):
        if not self.lower <= self.median <= self.upper:
            raise ValueError(
                f"{self.parameter}: bounds must satisfy lower <= median <= upper, "
                f"got ({self.lower!r}, {self.median!r}, {self.upper!r})"
            )

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class McCiResult:
    """Bootstrap intervals plus the re-estimates behind them, and the
    depth every grid draw used (None for exact draws)."""

    intervals: dict[str, IntervalEstimate]
    estimates: dict[str, np.ndarray]
    fitted: StouParams
    n_boot: int
    n_failed: int
    level: float
    grid_depth: int | None


def quantile_interval(values, level: float) -> tuple[float, float, float]:
    """(lower, median, upper) empirical quantiles at (1 -/+ level)/2 and
    1/2, by linear interpolation of order statistics (position
    1 + (n - 1) q)."""
    lo, med, hi = np.quantile(
        np.asarray(values, dtype=float),
        [(1.0 - level) / 2.0, 0.5, (1.0 + level) / 2.0],
        method="linear",
    )
    return float(lo), float(med), float(hi)


def check_mc_ci_args(B: int, level: float, simulator: str) -> None:
    """Raise the ValueError mc_ci raises for these arguments, if any."""
    _require_int("B", B, MIN_BOOT, MAX_FIELDS)
    if not 0.0 <= level < 1.0:
        raise ValueError(f"level: must be in [0, 1), got {level!r}")
    if simulator not in ("exact", "grid"):
        raise ValueError(f"simulator: must be 'exact' or 'grid', got {simulator!r}")


def mc_ci(
    field: FieldSample,
    B: int,
    level: float,
    simulator: str,
    rng: np.random.Generator,
    grid_config: GridSimConfig | None = None,
    max_lag: int = 5,
) -> McCiResult:
    """Parametric-bootstrap quantile CIs for all reported parameters.

    Replications use index-derived child streams of rng, so results are
    reproducible bit-for-bit for a given generator state and B.  All B
    fields are drawn, a stream each, before the first refit: exact ones
    by one simulate_exact call whose predictor rows meet them in one GEMM.
    A non-finite value in any of them raises ValueError; then one stacked
    moment fit refits them all.  Replications whose refit fails are
    dropped, the others keep their order; more than MAX_FAIL_FRAC of B
    dropped raises FailureRateExceeded; a draw's error is raised.  The
    grid model is resolved once, and every draw uses it: grid_config
    (None is GridSimConfig()) at the fitted model's default depth if it
    sets none.
    """
    check_mc_ci_args(B, level, simulator)
    lattice = field.lattice
    fitted = fit_mm(field, max_lag=max_lag)

    if simulator == "exact":
        values = simulate_exact(build_covariance(fitted, lattice), fitted.mu, rng.spawn(B),
                                batch=True)
        grid_depth = None
    else:
        grid_config = with_default_depth(grid_config or GridSimConfig(), fitted, lattice)
        values = np.empty((B, *lattice.shape))
        for out, stream in zip(values, rng.spawn(B)):
            out[...] = simulate_grid(fitted, lattice, grid_config, stream).values
        grid_depth = grid_config.truncation_p
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")

    refits = [fit for fit in _fit_stack(values, lattice, max_lag)
              if not isinstance(fit, StouError)]
    n_failed = B - len(refits)
    if n_failed > MAX_FAIL_FRAC * B:
        raise FailureRateExceeded(f"{n_failed} of {B} bootstrap refits failed")

    reports = [params_to_report(p) for p in refits]
    estimates = {name: np.array([r[name] for r in reports]) for name in REPORT_PARAMS}
    points = params_to_report(fitted)
    intervals = {}
    for name in REPORT_PARAMS:
        lo, med, hi = quantile_interval(estimates[name], level)
        intervals[name] = IntervalEstimate(
            parameter=name,
            point=points[name],
            lower=lo,
            upper=hi,
            median=med,
            level=level,
        )
    return McCiResult(
        intervals=intervals,
        estimates=estimates,
        fitted=fitted,
        n_boot=B,
        n_failed=n_failed,
        level=level,
        grid_depth=grid_depth,
    )


def coverage_proxy(bootstrap_estimates, theta_e: float, level: float = 0.95) -> float:
    """Coverage proxy of a quantile interval, from the bootstrap
    estimates alone.  Always in [0, 1]; invariant under common positive
    affine rescaling of the estimates and theta_e."""
    est = np.asarray(bootstrap_estimates, dtype=float)
    if est.size < MIN_ESTIMATES:
        raise ValueError(f"need >= {MIN_ESTIMATES} estimates, got {est.size}")
    if not 0.0 <= level < 1.0:
        raise ValueError(f"level: must be in [0, 1), got {level!r}")
    q_l, q_m, q_u = quantile_interval(est, level)
    upper = theta_e + (q_m - q_l)
    lower = theta_e - (q_u - q_m)
    n_upper = int(np.count_nonzero(est <= upper))
    n_lower = int(np.count_nonzero(est < lower))
    return (n_upper - n_lower) / est.size
