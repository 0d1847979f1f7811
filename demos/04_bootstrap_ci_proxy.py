"""
Parametric bootstrap intervals and the coverage proxy
=====================================================

The Monte Carlo interval refits the moment estimator on B fields
simulated from the fitted model and reports quantiles of the bootstrap
estimates.  The coverage proxy then estimates, from those same
bootstrap estimates alone, how often such an interval would contain
the estimate of a correctly specified model -- no replicated datasets
needed.
"""

import numpy as np

from stou import (
    FieldSample,
    Lattice,
    StouParams,
    build_covariance,
    coverage_proxy,
    fit_mm,
    mc_ci,
    simulate_exact,
)

truth = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
lattice = Lattice(n_x=31, n_t=31, dx=0.05, dt=0.05)
rng = np.random.default_rng(21)
(values,) = simulate_exact(build_covariance(truth, lattice), truth.mu, [rng])
field = FieldSample(lattice=lattice, values=values)

# 1. Point fit, then B bootstrap refits from the fitted model.  Each
#    replication draws a fresh field with the exact simulator and
#    refits; failed refits are dropped (more than 10% raises).
B = 200
result = mc_ci(field, B=B, level=0.95, simulator="exact",
               rng=np.random.default_rng(22))
fitted = fit_mm(field)
truth_by_name = {
    "lambda": truth.lam, "c": truth.c, "mu_seed": truth.mu_seed,
    "tau": np.sqrt(truth.tau2), "mu": truth.mu, "sigma2": truth.sigma2,
}
print(f"95% bootstrap intervals from B = {B} replications "
      f"({result.n_failed} failed refits)")
print(f"  {'parameter':10s} {'point':>8s} {'lower':>8s} {'upper':>8s}  truth")
for name, iv in result.intervals.items():
    mark = "in " if iv.lower <= truth_by_name[name] <= iv.upper else "OUT"
    print(f"  {name:10s} {iv.point:8.4f} {iv.lower:8.4f} {iv.upper:8.4f}"
          f"  {truth_by_name[name]:.4f} {mark}")

# 2. The coverage proxy for each parameter, from the same bootstrap
#    estimates.  It recenters the interval construction at each
#    bootstrap estimate in turn and counts how often the original
#    estimate would have been captured.
print("\ncoverage proxy per parameter (nominal level 0.95)")
for name, est in result.estimates.items():
    proxy = coverage_proxy(est, theta_e=result.intervals[name].point, level=0.95)
    print(f"  {name:10s} {proxy:.3f}")

print("\nA proxy well below the nominal level warns that the actual")
print("coverage is poor before any replicated experiment is run; on")
print("this small, strongly correlated domain that is the usual case")
print("for the rate parameters.")
