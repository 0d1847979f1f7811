"""
Axis autocorrelations and the moment fit
========================================

Along the lattice axes the STOU correlation decays exponentially:
exp(-lambda * h) in time and exp(-(lambda / c) * h) in space.  The
moment fit estimates both decay rates by a no-intercept least-squares
line through -log(rho_hat) at the usable lags, then reads the mean and
variance off the sample moments.
"""

import numpy as np

from stou import (
    FieldSample,
    Lattice,
    StouParams,
    build_covariance,
    empirical_acf,
    fit_mm,
    simulate_exact,
)

params = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)

# A coarse lattice decorrelates the sample mean from the field, which
# keeps the empirical ACF close to the model ACF.  (On a dense 31x31
# patch with dx = 0.05 the ACF is biased low by ~0.08: every pair is
# measured against a sample mean it is itself correlated with.)
lattice = Lattice(n_x=61, n_t=61, dx=1.0, dt=1.0)
rng = np.random.default_rng(7)
(values,) = simulate_exact(build_covariance(params, lattice), params.mu, [rng])
field = FieldSample(lattice=lattice, values=values)

# 1. Empirical autocorrelation along each axis.
acf_t = empirical_acf(field, "temporal", max_lag=5)
acf_x = empirical_acf(field, "spatial", max_lag=5)
print("temporal ACF (model exp(-lambda * h)):")
for h, r in zip(acf_t.lags, acf_t.values):
    print(f"  lag {h}: {r:+.4f}   model {np.exp(-params.lam * h * lattice.dt):.4f}")
print("spatial ACF (model exp(-(lambda / c) * h)):")
for h, r in zip(acf_x.lags, acf_x.values):
    print(f"  lag {h}: {r:+.4f}   model {np.exp(-params.c_tilde * h * lattice.dx):.4f}")

# 2. One-call moment fit.  Lags whose rho_hat falls outside (0, 1) are
#    dropped from the log-linear regression.
fit = fit_mm(field, max_lag=5)
print("\nmoment fit vs truth")
for name in ("lam", "c", "mu_seed", "tau2"):
    print(f"  {name:8s} {getattr(fit, name):+.4f}   truth {getattr(params, name):+.4f}")

# 3. The fit is exactly scale equivariant: doubling the field doubles
#    the fitted mean seed, quadruples the seed variance, and leaves the
#    rates untouched, bit for bit.
doubled = fit_mm(
    type(field)(lattice=field.lattice, values=2.0 * field.values), max_lag=5
)
print("\nscale equivariance under field * 2")
print(f"  lambda   {doubled.lam == fit.lam}")
print(f"  c        {doubled.c == fit.c}")
print(f"  mu_seed  {doubled.mu_seed == 2.0 * fit.mu_seed}")
print(f"  tau2     {doubled.tau2 == 4.0 * fit.tau2}")
