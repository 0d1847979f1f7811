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
backward one.

Each Gamma(k) depends on |x_a - x_b| only, so it is centrosymmetric: it
commutes with the mirror x_a -> x_{n_x-1-a}, and the field splits into a
mirror-even and a mirror-odd part that no block couples (Cantoni & Butler
1976, Linear Algebra Appl. 13:275-288).  In an orthonormal basis of the
two parts every Gamma(k) is block diagonal, so the recursion runs on two
halves ceil(n_x / 2) wide, stacked (a zero column pads the odd half when
n_x is odd).  Each half costs a quarter of the whole recursion's
O(n_t^2 n_x^3) flops.  Its predictors, in the split basis, come to about
n_t^2 n_x^2 / 4 doubles, half of what the whole recursion's come to, and
each C_t is the Cholesky factor of V_t recombined in site order, so L is
still the unique lower Cholesky factor.  A draw mu + L z keeps its
history in the split basis, at one batched product per time row.  A
hand-built CovarianceMatrix is one part in the identity basis, through the
same recursion and draw.  numpy only.

The recursion yields the factor one time row at a time.  simulate_exact
needs no factor: it applies each row to all of its fields as it is
yielded and drops it, holding the fields and their split-basis histories
(about 2 n doubles per field) in place of the factor.  A data field meets
each row in a product broadcast over the fields, an item per field, so it
has the same bits however many are drawn together: a replay of one
dataset draws the field of the full run.  The bootstrap's fields meet
each row in one GEMM, their histories the columns of one matrix; a
column's bits then depend on the number of columns, that is on B and the
lattice, which the config fixes.  cholesky_factor lists every row, so
that L can be inspected.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, CovarianceJitter, DimensionMismatch, NotPositiveDefinite
from .model import Lattice, StouParams

__all__ = ["DEFAULT_MAX_POINTS", "CovarianceMatrix", "build_covariance", "cholesky_factor",
           "simulate_exact"]

# 101 x 101 sites, the largest lattice in the source experiments, is the default
# ceiling, set by the recursion's O(n_t^2 n_x^3) time: no command holds the
# factor, which would be 0.21 GB there.
DEFAULT_MAX_POINTS = 101 * 101


@dataclass(frozen=True)
class CovarianceMatrix:
    """Site covariance in block-Toeplitz form: blocks[k] is the symmetric
    n_x x n_x covariance of time rows k steps apart, k = 0..n_t-1.
    basis[p] is the n_x x m array of part p's orthonormal columns, parts
    that no block couples; a zero column pads a narrower part.  It is the
    identity, one part, except that build_covariance sets the mirror split
    on the read-only blocks it builds."""

    blocks: np.ndarray
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2] or len(blocks) < 1:
            raise DimensionMismatch(f"blocks shape {blocks.shape}, expected (n_t, n_x, n_x)")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "basis", np.eye(blocks.shape[1])[None])

    @property
    def n(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]


def _mirror_basis(n_x: int) -> np.ndarray:
    """The mirror-even and mirror-odd parts, ceil(n_x / 2) columns each:
    (e_a +- e_{n_x-1-a}) / sqrt(2) for a < n_x // 2, then, when n_x is odd,
    the middle site's e_a in the even part and a zero column in the odd."""
    half, m = n_x // 2, (n_x + 1) // 2
    basis = np.zeros((2, n_x, m))
    a = np.arange(half)
    basis[:, a, a] = math.sqrt(0.5)
    basis[:, n_x - 1 - a, a] = [[math.sqrt(0.5)], [-math.sqrt(0.5)]]
    if n_x % 2:
        basis[0, half, half] = 1.0
    return basis


def build_covariance(params: StouParams, lattice: Lattice) -> CovarianceMatrix:
    """Block-Toeplitz covariance of the field at all lattice sites:
    blocks[k][a, b] is sigma2 * rho(k dt, |x_a - x_b|) with rho the
    canonical correlation, with the mirror-even and mirror-odd parts as
    its basis.  Raises BudgetExceeded when lattice.n > DEFAULT_MAX_POINTS before
    allocating anything."""
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
    blocks = np.minimum(time_table[:, None, None], space_table[None])
    # the split holds only while the blocks stay functions of |x_a - x_b|
    blocks.flags.writeable = False
    cov = CovarianceMatrix(blocks)
    object.__setattr__(cov, "basis", _mirror_basis(lattice.n_x))
    return cov


def _site_root(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis[p]^T C for C the lower Cholesky factor of the error covariance
    sum_p basis[p] v[p] basis[p]^T, whose parts are v; LinAlgError when it
    is not positive definite."""
    basis_t = basis.swapaxes(1, 2)
    return basis_t @ np.linalg.cholesky((basis @ v @ basis_t).sum(axis=0))


def _levinson(blocks: np.ndarray, basis: np.ndarray):
    """The innovations form, one time row at a time: yields (predictors_t,
    roots_t) for t = 0..n_t-1, on the parts of basis (see
    CovarianceMatrix), keeping only the last row between steps.
    predictors_t[p] is part p's m x t m block row [A_{t,t}, ..., A_{t,1}],
    which meets basis[p]^T X_s for s = 0..t-1, and roots_t[p] is
    basis[p]^T C_t.  LinAlgError when some V_t is not positive definite."""
    n_t, n_x, _ = blocks.shape
    parts, _, m = basis.shape
    # gamma[:, k] stacks the parts' own blocks basis[p]^T Gamma(k) basis[p];
    # a padding column is white noise of unit variance, which no predictor meets
    gamma = basis.swapaxes(1, 2)[:, None] @ blocks @ basis[:, None]
    pad_part, pad_col = np.nonzero(~basis.any(axis=1))
    gamma[pad_part, 0, pad_col, pad_col] = 1.0
    v = gamma[:, 0]
    row = np.empty((parts, m, 0))
    yield row, _site_root(v, basis)
    for p in range(n_t - 1):
        a = row  # [A_{p,p}, ..., A_{p,1}] of each part
        # order p -> p + 1: delta = Gamma(p+1) - sum_j A_{p,j} Gamma(p+1-j)
        # is the covariance of the forward and backward errors
        delta = gamma[:, p + 1] - a @ gamma[:, 1 : p + 1].reshape(parts, p * m, m)
        # A_{p+1,p+1} = delta V_p^-1
        gain = np.linalg.solve(v, delta.swapaxes(1, 2)).swapaxes(1, 2)
        # A_{p+1,j} = A_{p,j} - gain A_{p,p+1-j}: the backward predictor is
        # the forward one, so gain @ a is read back in reverse block order
        row = np.empty((parts, m, (p + 1) * m))
        row[:, :, :m] = gain
        np.subtract(a.reshape(parts, m, p, m), (gain @ a).reshape(parts, m, p, m)[:, :, ::-1],
                    out=row[:, :, m:].reshape(parts, m, p, m))
        v = v - gain @ delta.swapaxes(1, 2)
        yield row, _site_root(v, basis)


def _with_jitter(cov: CovarianceMatrix, use):
    """use(blocks) on cov's blocks.  On LinAlgError, retries once with jitter
    1e-12 * max diagonal entry added to the diagonal of blocks[0], which is
    every diagonal block of the full matrix (warning CovarianceJitter, at
    the line that called this function's caller); a second failure raises
    NotPositiveDefinite."""
    try:
        return use(cov.blocks)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.max(np.diagonal(cov.blocks[0])))
        warnings.warn(f"covariance not positive definite, retrying with jitter {jitter:.3e}",
                      CovarianceJitter, stacklevel=3)
        bumped = cov.blocks.copy()
        bumped[0].flat[:: bumped.shape[1] + 1] += jitter
        try:
            return use(bumped)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("factorization failed after jitter retry") from exc


def cholesky_factor(cov: CovarianceMatrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """The rows (predictors_t, roots_t), t = 0..n_t-1, of the lower Cholesky
    factor of a block-Toeplitz covariance, as _levinson yields them on the
    parts of cov.basis.  On failure, retries once with jitter 1e-12 * max
    diagonal entry added to the diagonal of blocks[0] (warning
    CovarianceJitter); a second failure raises NotPositiveDefinite."""
    return _with_jitter(cov, lambda blocks: list(_levinson(blocks, cov.basis)))


def simulate_exact(cov: CovarianceMatrix, mu: float, rngs, *, batch: bool = False) -> np.ndarray:
    """Exact fields mu + L z, L the lower Cholesky factor of cov, shaped
    (len(rngs), n_t, n_x): one per generator, z = rng.standard_normal(n).
    Each generator restarts from its state at the call, so one listed k
    times gives one field k times; fields drawn in turn from one generator
    take a call each.  No factor is held: each predictor row meets every
    field as the recursion yields it, and is dropped.  Besides the fields,
    which hold the normals until a row's values replace them, a pass holds
    each field's split-basis history; at most m (n_t - 1) / 2 + n_x fields
    share a pass (one recursion), so that their history never outgrows the
    factor.  When the recursion fails, it retries once with jitter 1e-12 *
    max diagonal entry added to the diagonal of blocks[0] (warning
    CovarianceJitter), replaying each generator from its saved state; a
    second failure raises NotPositiveDefinite.

    By default each row meets a pass's fields in one product broadcast
    over them, an item per field, so a field has the same bits however
    many are drawn.  batch=True makes the pass's histories the columns of
    one matrix, so each row meets them in one GEMM; a column's bits then
    depend on how many fields the pass holds, and agree with the default's
    to rounding."""
    n_t, n_x, _ = cov.blocks.shape
    parts, _, m = cov.basis.shape
    fields = np.empty((len(rngs), n_t, n_x))
    states = [rng.bit_generator.state for rng in rngs]
    per_pass = m * (n_t - 1) // 2 + n_x
    width = min(per_pass, len(fields))

    def draw(blocks):
        for rng, state, out in zip(rngs, states, fields):
            rng.bit_generator.state = state
            rng.standard_normal(out=out)
        histories = np.empty((1, parts, n_t * m, width) if batch else (width, parts, n_t * m, 1))
        for start in range(0, len(fields), per_pass):
            chunk = fields[start : start + per_pass]
            # (items, n_t, n_x, columns) views of the pass's fields, and
            # their (items, parts, n_t m, columns) histories
            if batch:
                cols, history = chunk.transpose(1, 2, 0)[None], histories[..., : len(chunk)]
            else:
                cols, history = chunk[..., None], histories[: len(chunk)]
            for t, (row, root) in enumerate(_levinson(blocks, cov.basis)):
                # y_t = C_t z_t + sum_j A_{t,j} y_{t-j}, on the rows before it
                y = history[:, :, t * m : (t + 1) * m]
                y[...] = root @ cols[:, None, t]
                if t:
                    y += row @ history[:, :, : t * m]
                cols[:, t] = mu + (cov.basis @ y).sum(axis=1)
        return fields

    return _with_jitter(cov, draw)

