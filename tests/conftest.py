import copy
import math

import numpy as np
import pytest

import stou.bootstrap
from stou import (FieldSample, InsufficientUsableLags, Lattice, StouParams, build_covariance,
                  simulate_exact)


def factor_product(basis, rows, z) -> np.ndarray:
    """L z from cholesky_factor's rows on the parts of basis, for z of shape
    (n,) or (n, k): one roots @ z product, then each predictor row in
    turn, then the basis recombination.  This per-draw loop is the
    reference that simulate_exact's one pass is checked against, bit for
    bit; it shares no step with the draw but the recursion."""
    z = np.asarray(z, dtype=float)
    parts, n_x, m = basis.shape
    n_t = len(rows)
    k = math.prod(z.shape[1:])
    # y[:, t] holds basis^T C_t z_t until basis^T X_t replaces it: one
    # product per row serves every part
    y = np.stack([root for _, root in rows], axis=1) @ z.reshape(n_t, n_x, k)
    history = y.reshape(parts, n_t * m, k)
    for t, (row, _) in enumerate(rows[1:], start=1):
        # y_t = C_t z_t + sum_j A_{t,j} y_{t-j}
        history[:, t * m : (t + 1) * m] += row @ history[:, : t * m]
    return (basis[:, None] @ y).sum(axis=0).reshape(z.shape)


def per_draw_field(basis, rows, mu, rng) -> np.ndarray:
    """mu + L z, shaped (n_t, n_x), with z = rng.standard_normal(n) applied
    to cholesky_factor's rows by factor_product."""
    n_t, n_x = len(rows), basis.shape[1]
    return (mu + factor_product(basis, rows, rng.standard_normal(n_t * n_x))).reshape(n_t, n_x)


def exact_field(params, lattice, rng) -> FieldSample:
    """One exact field of params on lattice, drawn from rng."""
    (values,) = simulate_exact(build_covariance(params, lattice), params.mu, [rng])
    return FieldSample(lattice=lattice, values=values)


def exact_fields_in_turn(params, lattice, rng, k) -> list[FieldSample]:
    """The k fields that k exact_field calls in turn on rng draw, by one
    simulate_exact call: each field's generator is a copy of rng at the
    state the fields before it leave, and rng ends where the k calls
    would leave it."""
    rngs = []
    for _ in range(k):
        rngs.append(copy.deepcopy(rng))
        rng.standard_normal(lattice.n)
    values = simulate_exact(build_covariance(params, lattice), params.mu, rngs)
    return [FieldSample(lattice=lattice, values=v) for v in values]


def fail_refits(monkeypatch, failing) -> list[int]:
    """Makes mc_ci's stacked refit, stou.bootstrap._fit_stack, fail the
    replications whose index, counted from 0 over all of its calls, is
    in failing, with InsufficientUsableLags("synthetic failure"); the
    others keep their fits.  Returns the list of the stacks' sizes, one
    entry per call."""
    real = stou.bootstrap._fit_stack
    sizes = []

    def flaky(values, lattice, max_lag):
        start = sum(sizes)
        sizes.append(len(values))
        return [InsufficientUsableLags("synthetic failure") if start + i in failing else fit
                for i, fit in enumerate(real(values, lattice, max_lag))]

    monkeypatch.setattr(stou.bootstrap, "_fit_stack", flaky)
    return sizes


@pytest.fixture(scope="session")
def base_params() -> StouParams:
    return StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)


@pytest.fixture(scope="session")
def small_lattice() -> Lattice:
    return Lattice(n_x=21, n_t=21, dx=0.05, dt=0.05)


@pytest.fixture(scope="session")
def small_field(base_params, small_lattice):
    return exact_field(base_params, small_lattice, np.random.default_rng(42))
