"""
Simulating STOU fields two ways
===============================

An STOU field integrates an exponentially fading kernel over a cone of
past space-time, driven by Gaussian white noise.  On a regular lattice
the resulting field is a stationary Gaussian process with correlation

    rho((d_t, d_x)) = exp(-lambda * max(|d_t|, |d_x| / c)),

so we can simulate it exactly from the Cholesky factor of the covariance
matrix, or approximately by Riemann-summing the noise over the cone.
The covariance is block Toeplitz in time, so the exact factor comes
from its n_t time-lag blocks by a block Levinson-Durbin recursion, one
time row at a time, without ever forming the full matrix.
This demo draws one field with each simulator and checks both against
the model moments.
"""

import numpy as np

from stou import (
    GridSimConfig,
    Lattice,
    StouParams,
    build_covariance,
    corr_canonical,
    simulate_exact,
    simulate_grid,
)

params = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
lattice = Lattice(n_x=31, n_t=31, dx=0.05, dt=0.05)

print("model parameters")
print(f"  lambda = {params.lam}, c = {params.c}, "
      f"mu_seed = {params.mu_seed}, tau2 = {params.tau2}")
print(f"  derived: mean mu = {params.mu:.4f}, variance sigma2 = {params.sigma2:.4f}")

# 1. Exact simulation: each time row of the factor is applied to standard
#    normal vectors as the recursion yields it, so the factor is never held.
cov = build_covariance(params, lattice)
rng = np.random.default_rng(2)
(field,) = simulate_exact(cov, params.mu, [rng])
print("\nexact (Cholesky) simulator")
print(f"  covariance matrix is {cov.n} x {cov.n}, "
      f"held as {cov.blocks.shape[0]} blocks of {cov.blocks.shape[1]} x {cov.blocks.shape[2]}")
print(f"  sample mean {field.mean():+.4f}   model mu {params.mu:+.4f}")
print(f"  sample var  {field.var():.5f}   model sigma2 {params.sigma2:.5f}")
print("  (the domain spans only ~1.5 correlation lengths, so a single")
print("   field's sample variance sits well below sigma2; this is the")
print("   small-domain effect that the later demos keep running into)")

# 2. Approximate simulation: noise on a fine mesh, weighted by the
#    kernel times the cone-cell areas.  truncation_p controls how much
#    of the kernel tail is kept: depth p*dt = 10 time units here.
config = GridSimConfig(truncation_p=200, cells_per_obs_cell=1)
approx = simulate_grid(params, lattice, config, rng)
print("\napproximate (cone Riemann sum) simulator")
# the cone widens with age, so depth x = lam p dt cuts (1 + x) e^{-x} of the mean
x = params.lam * config.truncation_p * lattice.dt
print(f"  truncation depth {config.truncation_p * lattice.dt:.1f} time units, "
      f"share of the mean cut off {(1.0 + x) * np.exp(-x):.1e}")
print(f"  sample mean {approx.values.mean():+.4f}   model mu {params.mu:+.4f}")
print(f"  sample var  {approx.values.var():.5f}   model sigma2 {params.sigma2:.5f}")

# 3. Many exact replications: the empirical lag-1 correlations converge
#    to the model correlation at the lattice spacings.  One call per
#    field continues rng's stream where the last field left it.
n_rep = 200
draws = np.concatenate([simulate_exact(cov, params.mu, [rng]) for _ in range(n_rep)])


def across_rep_corr(a, b):
    am, bm = a.mean(0), b.mean(0)
    return float((((a - am) * (b - bm)).mean(0) / (a.std(0) * b.std(0))).mean())


corr_t = across_rep_corr(
    draws[:, :-1, :].reshape(n_rep, -1), draws[:, 1:, :].reshape(n_rep, -1)
)
corr_x = across_rep_corr(
    draws[:, :, :-1].reshape(n_rep, -1), draws[:, :, 1:].reshape(n_rep, -1)
)
target = corr_canonical(params, lattice.dt, 0.0)
print(f"\nlag-1 correlations over {n_rep} exact replications")
print(f"  temporal {corr_t:.4f}   spatial {corr_x:.4f}   model {target:.4f}")
