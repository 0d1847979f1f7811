"""Parametric-bootstrap confidence intervals, coverage experiments, and
the bootstrap coverage proxy.

mc_ci fits a field by moments, simulates B fields from the fitted
model, refits each, and reads CI bounds off the empirical quantiles of
the B re-estimates (linear order-statistic interpolation, position
1 + (B - 1) q).  coverage_experiment replicates that over independent
datasets drawn from a known truth and counts interval hits per
parameter.  coverage_proxy estimates the coverage a quantile interval
would achieve without knowing the truth, by reflecting the interval
around the bootstrap median:

    CP = ECDF(theta_E + (theta_M - theta_L)) - ECDF((theta_E - (theta_U - theta_M))^-),

with the upper ECDF right-continuous and the lower term a left limit,
so CP is the mass of a closed interval centred (in the reflected sense)
on the point estimate theta_E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cholesky import (
    DEFAULT_MAX_POINTS,
    CholeskyFactor,
    build_covariance,
    cholesky_factor,
    simulate_exact,
)
from .errors import FailureRateExceeded, StouError
from .gridsim import GridSimConfig, simulate_grid
from .mm import fit_mm
from .model import CorrKind, FieldSample, Lattice, StouParams

__all__ = [
    "REPORT_PARAMS",
    "IntervalEstimate",
    "McCiResult",
    "CoverageEntry",
    "CoverageReport",
    "params_to_report",
    "quantile_interval",
    "mc_ci",
    "coverage_dataset",
    "coverage_experiment",
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
    """Bootstrap intervals plus the re-estimates behind them."""

    intervals: dict[str, IntervalEstimate]
    estimates: dict[str, np.ndarray]
    fitted: StouParams
    n_boot: int
    n_failed: int
    level: float


def _default_grid_config(fitted: StouParams, lattice: Lattice) -> GridSimConfig:
    # depth lam * p * dt = 7 keeps the discarded tail below 1e-3
    p = max(1, math.ceil(7.0 / (fitted.lam * lattice.dt)))
    return GridSimConfig(truncation_p=p, cells_per_obs_cell=1)


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


def mc_ci(
    field: FieldSample,
    B: int,
    level: float,
    simulator: str,
    rng: np.random.Generator,
    grid_config: GridSimConfig | None = None,
    max_lag: int = 5,
    max_points: int = DEFAULT_MAX_POINTS,
) -> McCiResult:
    """Parametric-bootstrap quantile CIs for all reported parameters.

    Replications use index-derived child streams of rng, so results are
    reproducible bit-for-bit for a given generator state.  Replications
    whose refit fails are dropped; more than MAX_FAIL_FRAC of B dropped
    raises FailureRateExceeded.
    """
    if B < MIN_BOOT:
        raise ValueError(f"B must be >= {MIN_BOOT}, got {B}")
    if not 0.0 <= level < 1.0:
        raise ValueError(f"level must be in [0, 1), got {level!r}")
    if simulator not in ("exact", "grid"):
        raise ValueError(f"simulator must be 'exact' or 'grid', got {simulator!r}")

    lattice = field.lattice
    fitted = fit_mm(field, max_lag=max_lag)

    factor: CholeskyFactor | None = None
    config = grid_config
    if simulator == "exact":
        cov = build_covariance(fitted, lattice, CorrKind.CANONICAL, max_points)
        factor = cholesky_factor(cov)
    elif config is None:
        config = _default_grid_config(fitted, lattice)

    streams = rng.spawn(B)
    refits = []
    n_failed = 0
    for stream in streams:
        if factor is not None:
            sim = simulate_exact(factor, fitted.mu, lattice, stream)
        else:
            sim = simulate_grid(fitted, lattice, config, stream)
        try:
            refits.append(fit_mm(sim, max_lag=max_lag))
        except StouError:
            n_failed += 1
    if n_failed > MAX_FAIL_FRAC * B:
        raise FailureRateExceeded(f"{n_failed} of {B} bootstrap refits failed")

    estimates = {
        name: np.array([params_to_report(p)[name] for p in refits])
        for name in REPORT_PARAMS
    }
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
    )


def coverage_proxy(bootstrap_estimates, theta_e: float, level: float = 0.95) -> float:
    """Coverage proxy of a quantile interval, from the bootstrap
    estimates alone.  Always in [0, 1]; invariant under common positive
    affine rescaling of the estimates and theta_e."""
    est = np.asarray(bootstrap_estimates, dtype=float)
    if est.size < MIN_ESTIMATES:
        raise ValueError(f"need >= {MIN_ESTIMATES} estimates, got {est.size}")
    if not 0.0 <= level < 1.0:
        raise ValueError(f"level must be in [0, 1), got {level!r}")
    q_l, q_m, q_u = quantile_interval(est, level)
    upper = theta_e + (q_m - q_l)
    lower = theta_e - (q_u - q_m)
    n_upper = int(np.count_nonzero(est <= upper))
    n_lower = int(np.count_nonzero(est < lower))
    return (n_upper - n_lower) / est.size


@dataclass(frozen=True)
class CoverageEntry:
    """Aggregated interval performance for one parameter."""

    parameter: str
    n: int
    hits: int
    coverage: float
    se: float
    mean_proxy: float
    proxy_se: float


@dataclass(frozen=True)
class CoverageReport:
    """Per-parameter coverage over replicated datasets."""

    level: float
    n_datasets: int
    entries: dict[str, CoverageEntry]
    failures: tuple[tuple[int, str], ...]


def coverage_dataset(
    truth: StouParams,
    factor: CholeskyFactor,
    lattice: Lattice,
    B: int,
    level: float,
    simulator: str,
    data_rng: np.random.Generator,
    boot_rng: np.random.Generator,
    grid_config: GridSimConfig | None = None,
    max_lag: int = 5,
    max_points: int = DEFAULT_MAX_POINTS,
) -> tuple[dict[str, IntervalEstimate], dict[str, float]]:
    """One coverage-experiment dataset: exact field draw from the truth
    factor, then bootstrap intervals and per-parameter proxies."""
    data = simulate_exact(factor, truth.mu, lattice, data_rng)
    result = mc_ci(
        data, B, level, simulator, boot_rng,
        grid_config=grid_config, max_lag=max_lag, max_points=max_points,
    )
    proxies = {
        name: coverage_proxy(result.estimates[name], result.intervals[name].point, level)
        for name in REPORT_PARAMS
    }
    return result.intervals, proxies


def coverage_experiment(
    truth: StouParams,
    lattice: Lattice,
    n_datasets: int,
    B: int,
    level: float,
    simulator: str,
    data_simulator: str = "exact",
    rng: np.random.Generator | None = None,
    grid_config: GridSimConfig | None = None,
    max_lag: int = 5,
    max_points: int = DEFAULT_MAX_POINTS,
) -> CoverageReport:
    """Interval coverage of mc_ci over datasets simulated from a known
    truth.  Data fields always come from the exact simulator; the
    bootstrap inside each dataset uses the chosen simulator."""
    if n_datasets < 10:
        raise ValueError(f"n_datasets must be >= 10, got {n_datasets}")
    if data_simulator != "exact":
        raise ValueError(
            f"data_simulator must be 'exact', got {data_simulator!r}"
        )
    if rng is None:
        raise ValueError("rng is required for a reproducible experiment")

    cov = build_covariance(truth, lattice, CorrKind.CANONICAL, max_points)
    factor = cholesky_factor(cov)
    truth_values = params_to_report(truth)

    hits = {name: 0 for name in REPORT_PARAMS}
    proxies = {name: [] for name in REPORT_PARAMS}
    failures = []
    n_ok = 0
    for index, stream in enumerate(rng.spawn(n_datasets)):
        data_rng, boot_rng = stream.spawn(2)
        try:
            intervals, dataset_proxies = coverage_dataset(
                truth, factor, lattice, B, level, simulator,
                data_rng, boot_rng,
                grid_config=grid_config, max_lag=max_lag, max_points=max_points,
            )
        except StouError as exc:
            failures.append((index, f"{type(exc).__name__}: {exc}"))
            continue
        n_ok += 1
        for name in REPORT_PARAMS:
            hits[name] += int(intervals[name].contains(truth_values[name]))
            proxies[name].append(dataset_proxies[name])

    if n_ok == 0:
        raise FailureRateExceeded("every dataset failed")
    entries = {}
    for name in REPORT_PARAMS:
        rate = hits[name] / n_ok
        prox = np.array(proxies[name])
        entries[name] = CoverageEntry(
            parameter=name,
            n=n_ok,
            hits=hits[name],
            coverage=rate,
            se=math.sqrt(rate * (1.0 - rate) / n_ok),
            mean_proxy=float(prox.mean()),
            proxy_se=float(prox.std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else 0.0,
        )
    return CoverageReport(
        level=level,
        n_datasets=n_datasets,
        entries=entries,
        failures=tuple(failures),
    )
