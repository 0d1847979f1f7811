"""Exact Gaussian simulation on a lattice by a block Levinson-Durbin recursion.

The field at the n = n_t * n_x lattice sites is multivariate normal with
mean mu.  In site order (t, x) its covariance is block Toeplitz in time:
rows X_{t+k} and X_t covary through the symmetric n_x x n_x block
Gamma(k) = sigma2 * min(exp(-lam k dt), S), S_ab = exp(-lam |x_a - x_b| / c),
so only Gamma(0..n_t-1) is built, never the n x n matrix.  The
multivariate Levinson-Durbin recursion (Whittle 1963, Biometrika
50:129-134) gives the innovations form of that matrix's lower Cholesky
factor L,

    (L z)_t = C_t z_t + sum_{j=1..t} A_{t,j} (L z)_{t-j},

with A_{t,j} the order-t predictor of X_t from its past and C_t the lower
Cholesky factor of its error covariance V_t.  The blocks are symmetric, so
the process is time-reversible and the forward predictor serves as the
backward one.  The factor costs O(n_t^2 n_x^3) time and n_t^2 n_x^2 / 2
doubles, numpy only; callers drawing many fields on one lattice should
build it once.  A draw mu + L z costs one matrix-vector product per row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, CovarianceJitter, DimensionMismatch, NotPositiveDefinite
from .model import FieldSample, Lattice, StouParams

__all__ = ["DEFAULT_MAX_POINTS", "CovarianceMatrix", "CholeskyFactor", "build_covariance",
           "cholesky_factor", "simulate_exact"]

# The factor of 101 x 101 sites (the largest lattice exercised in the source
# experiments) holds about 0.42 GB of coefficients: the default ceiling.
DEFAULT_MAX_POINTS = 101 * 101


@dataclass(frozen=True)
class CovarianceMatrix:
    """Site covariance in block-Toeplitz form: blocks[k] is the symmetric
    n_x x n_x covariance of time rows k steps apart, k = 0..n_t-1."""

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2] or len(blocks) < 1:
            raise DimensionMismatch(f"blocks shape {blocks.shape}, expected (n_t, n_x, n_x)")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower Cholesky factor L of a block-Toeplitz covariance, in
    innovations form: rows[t] is the n_x x (t+1) n_x block row
    [A_{t,t}, ..., A_{t,1}, C_t], which meets X_0, ..., X_{t-1}, z_t.
    `factor @ z` is L z for z of shape (n,) or (n, k)."""

    rows: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, int]:
        """(n_t, n_x) of the lattice the factor was built for."""
        return len(self.rows), self.rows[0].shape[0]

    @property
    def n(self) -> int:
        return self.shape[0] * self.shape[1]

    def __matmul__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape[:1] != (self.n,):
            raise DimensionMismatch(f"operand shape {z.shape}, factor has {self.n} rows")
        n_t, n_x = self.shape
        rest = z.shape[1:]
        # time row t holds z_t until X_t replaces it: one product per row
        out = z.reshape(n_t, n_x, *rest).copy()
        for t, row in enumerate(self.rows):
            out[t] = row @ out[: t + 1].reshape((t + 1) * n_x, *rest)
        return out.reshape(z.shape)


def build_covariance(params: StouParams, lattice: Lattice) -> CovarianceMatrix:
    """Block-Toeplitz covariance of the field at all lattice sites:
    blocks[k][a, b] is sigma2 * rho(k dt, |x_a - x_b|) with rho the
    canonical correlation.  Raises BudgetExceeded when lattice.n >
    DEFAULT_MAX_POINTS before allocating anything."""
    if lattice.n > DEFAULT_MAX_POINTS:
        raise BudgetExceeded(f"lattice has {lattice.n} sites, budget is {DEFAULT_MAX_POINTS}; "
                             "use the grid simulator for larger lattices")
    x = np.arange(lattice.n_x) * lattice.dx
    d_x = np.abs(x[:, None] - x[None, :])
    # -lam * max(u, v) == min(-lam * u, -lam * v) exactly, and exp and the
    # sigma2 product keep order, so the minimum of the time-lag and the
    # space-lag table is sigma2 * exp(-lam * max(k dt, d_x / c)) to the bit.
    time_table = params.sigma2 * np.exp(-params.lam * (np.arange(lattice.n_t) * lattice.dt))
    space_table = params.sigma2 * np.exp(-params.lam * (d_x / params.c))
    return CovarianceMatrix(np.minimum(time_table[:, None, None], space_table[None]))


def _levinson(blocks: np.ndarray) -> CholeskyFactor:
    """The innovations form; LinAlgError when some V_t is not positive definite."""
    n_t, n_x, _ = blocks.shape
    v = blocks[0]
    rows = [np.linalg.cholesky(v)]
    for p in range(n_t - 1):
        a = rows[-1][:, :-n_x]  # [A_{p,p}, ..., A_{p,1}]
        # order p -> p + 1: delta = Gamma(p+1) - sum_j A_{p,j} Gamma(p+1-j)
        # is the covariance of the forward and backward errors
        delta = blocks[p + 1] - a @ blocks[1 : p + 1].reshape(p * n_x, n_x)
        gain = np.linalg.solve(v, delta.T).T  # A_{p+1,p+1} = delta V_p^-1
        # A_{p+1,j} = A_{p,j} - gain A_{p,p+1-j}: the backward predictor is
        # the forward one, so gain @ a is read back in reverse block order
        row = np.empty((n_x, (p + 2) * n_x))
        row[:, :n_x] = gain
        np.subtract(a.reshape(n_x, p, n_x), (gain @ a).reshape(n_x, p, n_x)[:, ::-1],
                     out=row[:, n_x:-n_x].reshape(n_x, p, n_x))
        v = v - gain @ delta.T
        row[:, -n_x:] = np.linalg.cholesky(v)
        rows.append(row)
    return CholeskyFactor(rows=tuple(rows))


def cholesky_factor(cov: CovarianceMatrix) -> CholeskyFactor:
    """Lower Cholesky factor of a block-Toeplitz covariance.  On failure, retries
    once with jitter 1e-12 * max diagonal entry added to the diagonal of blocks[0],
    which is every diagonal block of the full matrix (warning CovarianceJitter); a
    second failure raises NotPositiveDefinite."""
    try:
        return _levinson(cov.blocks)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.max(np.diagonal(cov.blocks[0])))
        warnings.warn(f"covariance not positive definite, retrying with jitter {jitter:.3e}",
                      CovarianceJitter, stacklevel=2)
        bumped = cov.blocks.copy()
        bumped[0].flat[:: bumped.shape[1] + 1] += jitter
        try:
            return _levinson(bumped)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("factorization failed after jitter retry") from exc


def simulate_exact(factor: CholeskyFactor, mu: float, lattice: Lattice,
                   rng: np.random.Generator) -> FieldSample:
    """One exact field draw mu + L z, z i.i.d. standard normal."""
    if factor.shape != lattice.shape:
        raise DimensionMismatch(f"factor built for (n_t, n_x) = {factor.shape}, "
                                f"lattice is {lattice.shape}")
    values = mu + factor @ rng.standard_normal(factor.n)
    return FieldSample(lattice=lattice, values=values.reshape(lattice.shape))
