"""
Pairwise composite likelihood and sandwich intervals
====================================================

Instead of the full (n x n covariance) likelihood we maximize a sum of
bivariate log-densities over nearby axis-aligned observation pairs.
The maximizer is asymptotically normal with sandwich covariance
H^-1 J H^-1, where H is the expected pair information and J is
estimated by summing score contributions over sliding lattice windows
(one window ~ one "effective replicate").
"""

import numpy as np

from stou import (
    EstimationScenario,
    FieldSample,
    Lattice,
    PairWeightSpec,
    StouParams,
    WindowSpec,
    build_covariance,
    pairwise_loglik,
    sandwich_ci,
    simulate_exact,
    total_pair_weight,
)

truth = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
lattice = Lattice(n_x=41, n_t=41, dx=0.05, dt=0.05)
rng = np.random.default_rng(15)
(values,) = simulate_exact(build_covariance(truth, lattice), truth.mu, [rng])
field = FieldSample(lattice=lattice, values=values)

# 1. The CL objective uses unit weights on axis-aligned pairs up to 3
#    lattice steps apart; everything else is weighted zero.
weights = PairWeightSpec(cutoff_d=3)
print(f"pairs entering the objective: {total_pair_weight(lattice, weights):.0f}")
print(f"pairwise log-likelihood at the truth: {pairwise_loglik(truth, field, weights):.1f}")

# 2. Subsampling windows for the variability matrix.  11x11 windows
#    stepped by 5 give 7x7 = 49 overlapping windows on this lattice.
windows = WindowSpec(window_nx=11, window_nt=11, step_x=5, step_t=5)
t0s, x0s = windows.origins(lattice)
print(f"windows: {t0s.size} x {x0s.size} origins")

# 3. Fit with all four coordinates free and report the intervals.  The
#    derived parameters (c, tau, mu_seed) get Delta-method intervals.
scenario = EstimationScenario(free=("lambda", "c_tilde", "sigma2", "mu"))
result = sandwich_ci(field, weights, windows, scenario, level=0.95)
truth_by_name = {
    "lambda": truth.lam, "c_tilde": truth.c_tilde, "sigma2": truth.sigma2,
    "mu": truth.mu, "c": truth.c, "tau": np.sqrt(truth.tau2),
    "mu_seed": truth.mu_seed,
}
print("\n95% sandwich intervals (all parameters free)")
print(f"  {'parameter':10s} {'estimate':>9s} {'se':>8s} {'lower':>8s} {'upper':>8s}  truth")
for name, iv in result.intervals.items():
    mark = "in " if iv.lower <= truth_by_name[name] <= iv.upper else "OUT"
    print(
        f"  {name:10s} {iv.point:9.4f} {result.standard_errors[name]:8.4f} "
        f"{iv.lower:8.4f} {iv.upper:8.4f}  {truth_by_name[name]:.4f} {mark}"
    )

# 4. Freeing fewer parameters helps.  With sigma2 and mu pinned at
#    their true values, the rate intervals tighten noticeably; the
#    variance coordinate is nearly unidentifiable from one small field
#    (its information is concentrated at lag 0, where the sample
#    variance itself is biased on a strongly correlated domain).
pinned = EstimationScenario(
    free=("lambda", "c_tilde"),
    fixed_values={"sigma2": truth.sigma2, "mu": truth.mu},
)
result_pinned = sandwich_ci(field, weights, windows, pinned, level=0.95)
print("\n95% sandwich intervals (sigma2, mu pinned at truth)")
for name in ("lambda", "c_tilde"):
    iv = result_pinned.intervals[name]
    print(f"  {name:10s} [{iv.lower:7.4f}, {iv.upper:7.4f}]  "
          f"width {iv.upper - iv.lower:.4f}  "
          f"(was {result.intervals[name].upper - result.intervals[name].lower:.4f})")
