"""Exact Gaussian simulation on a lattice via dense Cholesky factorization.

The field restricted to n = n_x * n_t sites is multivariate normal with
mean mu and covariance sigma2 * rho(d_t, d_x) evaluated at all site
pairs, so one lower-triangular factor L with L L^T = Sigma turns i.i.d.
standard normals z into an exact draw mu + L z.  The factor is the
expensive part; callers simulating many replications on the same
lattice should build it once and reuse it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    CovarianceJitter,
    DimensionMismatch,
    NotPositiveDefinite,
)
from .model import FieldSample, Lattice, StouParams

__all__ = [
    "DEFAULT_MAX_POINTS",
    "CovarianceMatrix",
    "CholeskyFactor",
    "build_covariance",
    "cholesky_factor",
    "simulate_exact",
]

# Dense n x n storage grows fast; 101 x 101 sites (the largest lattice
# exercised in the source experiments) is the default ceiling.
DEFAULT_MAX_POINTS = 101 * 101


@dataclass(frozen=True)
class CovarianceMatrix:
    """Dense covariance of the field at n lattice sites, site-ordered."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (self.n, self.n):
            raise DimensionMismatch(
                f"entries shape {entries.shape}, expected ({self.n}, {self.n})"
            )
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L L^T equal to a site covariance.

    Entries are stored in Fortran order, the layout the triangular BLAS
    product reads without a copy; only the lower triangle is read.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asfortranarray(self.entries, dtype=float)
        if entries.shape != (self.n, self.n):
            raise DimensionMismatch(
                f"entries shape {entries.shape}, expected ({self.n}, {self.n})"
            )
        object.__setattr__(self, "entries", entries)


def build_covariance(params: StouParams, lattice: Lattice) -> CovarianceMatrix:
    """Covariance matrix of the field at all lattice sites.

    Entries are sigma2 * rho(|t_i - t_j| dt, |x_i - x_j| dx) with rho
    the canonical correlation.  Raises BudgetExceeded when lattice.n >
    DEFAULT_MAX_POINTS before allocating the n x n array.
    """
    n = lattice.n
    if n > DEFAULT_MAX_POINTS:
        raise BudgetExceeded(
            f"lattice has {n} sites, budget is {DEFAULT_MAX_POINTS}; "
            "use the grid simulator for larger lattices"
        )
    t = np.arange(lattice.n_t) * lattice.dt
    x = np.arange(lattice.n_x) * lattice.dx
    d_t = np.abs(t[:, None] - t[None, :])
    d_x = np.abs(x[:, None] - x[None, :])
    # Entry ((t_a, x_a), (t_b, x_b)) combines one time-lag and one space-lag
    # table entry: -lam * max(u, v) == min(-lam * u, -lam * v) exactly, and
    # exp and the sigma2 product keep order, so the minimum is
    # sigma2 * exp(-lam * max(d_t, d_x / c)) to the bit.
    time_table = params.sigma2 * np.exp(-params.lam * d_t)
    space_table = params.sigma2 * np.exp(-params.lam * (d_x / params.c))
    out = np.minimum(time_table[:, None, :, None], space_table[None, :, None, :])
    return CovarianceMatrix(n=n, entries=out.reshape(n, n))


def cholesky_factor(cov: CovarianceMatrix) -> CholeskyFactor:
    """Lower Cholesky factor of a covariance matrix.

    On failure, retries once with diagonal jitter 1e-12 * max diagonal
    entry (warning CovarianceJitter); a second failure raises
    NotPositiveDefinite.
    """
    import scipy.linalg  # on first use: with numpy.f2py, most of `import stou`'s time

    try:
        L = scipy.linalg.cholesky(cov.entries, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        jitter = 1e-12 * float(np.max(np.diagonal(cov.entries)))
        warnings.warn(
            f"covariance not positive definite, retrying with jitter {jitter:.3e}",
            CovarianceJitter,
            stacklevel=2,
        )
        bumped = cov.entries.copy()
        bumped.flat[:: cov.n + 1] += jitter
        try:
            L = scipy.linalg.cholesky(bumped, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "covariance factorization failed after jitter retry"
            ) from exc
    return CholeskyFactor(n=cov.n, entries=L)


def simulate_exact(
    factor: CholeskyFactor,
    mu: float,
    lattice: Lattice,
    rng: np.random.Generator,
) -> FieldSample:
    """One exact field draw mu + L z, z i.i.d. standard normal.

    L z is the triangular BLAS product, which reads only the lower half.
    """
    if factor.n != lattice.n:
        raise DimensionMismatch(
            f"factor built for {factor.n} sites, lattice has {lattice.n}"
        )
    import scipy.linalg

    z = rng.standard_normal(factor.n)
    values = mu + scipy.linalg.blas.dtrmv(factor.entries, z, lower=1)
    return FieldSample(lattice=lattice, values=values.reshape(lattice.shape))
