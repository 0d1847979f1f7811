"""Weighted pairwise composite likelihood under the separable correlation,
with analytic score, expected Hessian, window-subsampled score variance,
and sandwich confidence intervals.

For one admissible pair (y_i, y_j) at lag (d_t, d_x), write a = y_i - mu,
b = y_j - mu, rho = exp(-lam |d_t| - c_tilde |d_x|).  The pair term is

    l = -1/2 [ 2 log sigma2 + log(1 - rho^2) + B / (sigma2 (1 - rho^2)) ],
    B = a^2 + b^2 - 2 rho a b,

and the objective is pl(theta) = sum over axis-aligned pairs within the
cutoff of w * l.  On axis-aligned lags the separable and canonical
correlations coincide, so pl is the same under either form.

At fixed rates (lam, c_tilde), pl is a quadratic in mu divided by
sigma2, plus a log sigma2 term, so both have closed-form maximizers.
With r_k = 1 + rho_k and o_k = 1 - rho_k^2 at axis lag k, n_k pairs,
and SB_k(mu) the sum of B over them,

    mu_hat     = sum_k sum(y_i + y_j)_k / r_k  /  sum_k 2 n_k / r_k
    sigma2_hat = sum_k SB_k(mu_hat) / o_k  /  2 sum_k n_k,

where -pl = sum_k n_k (log sigma2_hat + log(o_k) / 2) + N, N = sum_k n_k.
maximize_cl profiles the free ones out this way, so its search runs
over the free ones among (log lam, log c_tilde) only, by Fisher scoring
on the profile's gradient and expected information, from the formulas below.

Score components, with F = rho (a^2 + b^2) - (1 + rho^2) a b and
one = 1 - rho^2 (all validated against central finite differences in
the test suite):

    dl/drho    = rho / one - F / (sigma2 one^2)
    dl/dsigma2 = -1 / sigma2 + B / (2 sigma2^2 one)
    dl/dmu     = (a + b) / (sigma2 (1 + rho))

Each is a polynomial in S = a + b, A = a^2 + b^2 and C = a b whose
coefficients are constant within a lag, so one per-lag function,
_lag_sums, maps n and the sums of S, A and C over n pairs of a lag to
the sums of B and of the three components.  score_u is its n = 1 case,
the fit takes sum B and sum dl/drho from the whole field's lag sums,
and the window variance below takes each window's summed score from
that window's sums.  dl/d(lam, c_tilde) follows by the chain rule with
grad rho = (-|d_t|, -|d_x|) rho.  The expected per-pair information
block (the negative expected Hessian) is deterministic,

    E[-d2l / dphi dphi'] = (1 + rho^2) / one^2 * grad_rho grad_rho^T
    E[-d2l / dphi dsigma2] = -rho / (sigma2 one) * grad_rho
    E[-d2l / dsigma2^2] = 1 / sigma2^2
    E[-d2l / dmu^2] = 2 / (sigma2 (1 + rho)),     phi = (lam, c_tilde),

with zero mu cross terms.  The score variance J is estimated by window
subsampling: windows slide over the lattice, each contributes the outer
product of its summed score scaled by its pair weight, and the sandwich
covariance of theta_hat is G_inv = W H^-1 J* H^-1 with W the total pair
weight.
"""

from __future__ import annotations

import functools
import math
import statistics
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bootstrap import IntervalEstimate
from .errors import (
    CorrelationAtUnity,
    DegenerateSample,
    NoValidWindows,
    OptimizerDidNotConverge,
    SingularH,
)
from .mm import fit_mm
from .model import (FieldSample, Lattice, StouParams, _axis_lags, _finite, _pair_ends,
                    _require_int, _require_positive)

__all__ = [
    "PARAM_NAMES",
    "PairWeightSpec",
    "WindowSpec",
    "EstimationScenario",
    "SandwichResult",
    "l_pair",
    "pairwise_loglik",
    "score_u",
    "hessian_h",
    "wsev_j",
    "maximize_cl",
    "sandwich_ci",
    "total_pair_weight",
]

# canonical coordinate order of theta
PARAM_NAMES = ("lambda", "c_tilde", "sigma2", "mu")

_RHO_TOL = 1e-12


@dataclass(frozen=True)
class PairWeightSpec:
    """Admissible-pair rule: unit weight on axis-aligned pairs separated
    by at most cutoff_d grid steps, zero otherwise."""

    cutoff_d: int = 3

    def __post_init__(self):
        _require_int("cutoff_d", self.cutoff_d, 1)


@dataclass(frozen=True)
class WindowSpec:
    """Sliding subsampling window: extents and strides in grid points."""

    window_nx: int
    window_nt: int
    step_x: int = 1
    step_t: int = 1

    def __post_init__(self):
        _require_int("window_nx", self.window_nx, 2)
        _require_int("window_nt", self.window_nt, 2)
        _require_int("step_x", self.step_x, 1)
        _require_int("step_t", self.step_t, 1)

    def origins(self, lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
        """Window origin indices (t0s, x0s); empty when no window fits."""
        t0s = np.arange(0, lattice.n_t - self.window_nt + 1, self.step_t)
        x0s = np.arange(0, lattice.n_x - self.window_nx + 1, self.step_x)
        return t0s, x0s


@dataclass(frozen=True)
class EstimationScenario:
    """Which theta coordinates are estimated; the rest are pinned.

    free may be empty (degenerate all-fixed scenario); together with
    fixed_values it must cover all four coordinates exactly once.
    """

    free: tuple[str, ...]
    fixed_values: dict[str, float] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        free = tuple(n for n in PARAM_NAMES if n in set(self.free))
        unknown = set(self.free) - set(PARAM_NAMES)
        if unknown:
            raise ValueError(f"free: must be names in {PARAM_NAMES}, got {sorted(unknown)}")
        fixed = set(PARAM_NAMES) - set(free)
        if set(self.fixed_values) != fixed:
            raise ValueError(
                f"fixed_values: must have keys {sorted(fixed)}, got {sorted(self.fixed_values)}"
            )
        for name, v in self.fixed_values.items():
            if name != "mu":
                _require_positive(f"fixed_values[{name!r}]", v)
            elif not _finite(v):
                raise ValueError(f"fixed_values['mu']: must be finite, got {v!r}")
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "fixed_values", dict(self.fixed_values))

    @classmethod
    def pinned_at(cls, free: tuple[str, ...], theta: StouParams) -> "EstimationScenario":
        """free estimated, every other coordinate pinned at theta's value."""
        values = dict(zip(PARAM_NAMES, theta.as_array().tolist()))
        return cls(free=free, fixed_values={name: v for name, v in values.items()
                                            if name not in free})

    def free_indices(self) -> np.ndarray:
        return np.array([PARAM_NAMES.index(n) for n in self.free], dtype=int)

    def pin(self, theta: StouParams) -> StouParams:
        """theta with the fixed coordinates replaced by fixed_values."""
        return StouParams.from_array(
            {**dict(zip(PARAM_NAMES, theta.as_array())), **self.fixed_values}.values())


@dataclass(frozen=True)
class SandwichResult:
    """Sandwich-variance CI bundle at the CL maximizer.

    H and J_star are the full 4x4 expected Hessian and subsampled score
    variance; G_inv is W * H^-1 J* H^-1 restricted to the free
    coordinates (order given by free).  intervals holds one
    IntervalEstimate per free parameter plus the derived (c, tau,
    mu_seed) via the Delta method.
    """

    theta_hat: StouParams
    H: np.ndarray
    J_star: np.ndarray
    G_inv: np.ndarray
    W: float
    free: tuple[str, ...]
    standard_errors: dict[str, float]
    intervals: dict[str, IntervalEstimate]
    level: float


def _rho(lam: float, c_tilde: float, d_t: float, d_x: float) -> float:
    """Pair correlation at axis lag (d_t, d_x); CorrelationAtUnity near 1."""
    rho = math.exp(-lam * d_t - c_tilde * d_x)
    if rho >= 1.0 - _RHO_TOL:
        raise CorrelationAtUnity("pair correlation too close to 1")
    return rho


def _require_squarable(s2: float) -> None:
    """DegenerateSample when s2 * s2 underflows to 0, as the sigma2 score
    and its expected information divide by it: _fisher_terms, hessian_h
    and wsev_j check their sigma2 first."""
    if s2 * s2 == 0.0:
        raise DegenerateSample(f"sigma2: its square underflows to 0, got {s2!r}")


def _sum_b(rho, mu, n, s_1, s_2, s_ab) -> tuple:
    """(sum B, A, C) over n pairs at correlation rho, from s_1 = sum
    (y_i + y_j), s_2 = sum (y_i^2 + y_j^2) and s_ab = sum y_i y_j,
    elementwise over arrays.  Centring at mu gives A and C, the sums of
    a^2 + b^2 and a b."""
    C = s_ab - mu * s_1 + n * mu * mu
    A = s_2 - 2.0 * mu * s_1 + 2 * n * mu * mu
    return A - 2.0 * rho * C, A, C


def _lag_sums(rho, s2, mu, n, s_1, s_2, s_ab) -> tuple:
    """(sum B, sum dl/drho, sum dl/dsigma2, sum dl/dmu) over n pairs at
    correlation rho, from the sums _sum_b takes; S, the sum of a + b, is
    s_1 centred at mu.  Sum B does not depend on s2."""
    sum_B, A, C = _sum_b(rho, mu, n, s_1, s_2, s_ab)
    S = s_1 - 2 * n * mu
    one = 1.0 - rho * rho
    return (sum_B,
            n * rho / one - (rho * A - (1.0 + rho * rho) * C) / (one * one) / s2,
            -n / s2 + sum_B / (2.0 * s2 * s2 * one),
            S / (s2 * (1.0 + rho)))


def _pair_sums(theta: StouParams, y_i, y_j, rho_ij) -> tuple:
    """(rho, _lag_sums of single pairs), elementwise over broadcast inputs;
    CorrelationAtUnity where a |rho| is near 1."""
    rho = np.asarray(rho_ij, dtype=float)
    if np.any(np.abs(rho) >= 1.0 - _RHO_TOL):
        raise CorrelationAtUnity("pair correlation too close to +/-1")
    a = np.asarray(y_i, dtype=float) - theta.mu
    b = np.asarray(y_j, dtype=float) - theta.mu
    return rho, _lag_sums(rho, theta.sigma2, 0.0, 1, a + b, a * a + b * b, a * b)


def l_pair(theta: StouParams, y_i, y_j, rho_ij):
    """Pair log-likelihood term, elementwise over broadcast inputs.

    Equals the bivariate normal log-density at (y_i, y_j) plus log(2 pi).
    """
    rho, (B, *_) = _pair_sums(theta, y_i, y_j, rho_ij)
    one = 1.0 - rho * rho
    return -0.5 * (
        2.0 * math.log(theta.sigma2) + np.log(one) + B / (theta.sigma2 * one)
    )


def score_u(theta: StouParams, y_i, y_j, rho_ij, grad_rho) -> np.ndarray:
    """Analytic gradient of l_pair in theta, shape (..., 4).

    grad_rho holds (d rho / d lambda, d rho / d c_tilde) in the trailing
    axis; under the separable correlation at lag (d_t, d_x) it is
    (-|d_t|, -|d_x|) * rho.
    """
    _, (_, dl_drho, dl_ds2, dl_dmu) = _pair_sums(theta, y_i, y_j, rho_ij)
    grad_rho = np.asarray(grad_rho, dtype=float)
    return np.stack(np.broadcast_arrays(
        dl_drho * grad_rho[..., 0], dl_drho * grad_rho[..., 1], dl_ds2, dl_dmu), axis=-1)


def _lag_stats(field: FieldSample, weights: PairWeightSpec) -> list[tuple]:
    """Per-lag pair statistics (d_t, d_x, n, s_1, s_2, s_ab) in _axis_lags
    order: with a the first and b the second endpoint of each pair, s_1
    sums a + b, s_2 sums a^2 + b^2 and s_ab sums a b."""
    d = weights.cutoff_d
    out = []
    for h_t, h_x, d_t, d_x, n in _axis_lags(field.lattice, d, d):
        yi, yj = _pair_ends(field.values, h_t, h_x)
        out.append((
            d_t, d_x, n, float(yi.sum()) + float(yj.sum()),
            float((yi * yi).sum()) + float((yj * yj).sum()), float((yi * yj).sum()),
        ))
    return out


def _neg_pl(lam: float, c_tilde: float, s2: float | None, mu: float | None,
            stats: list[tuple]) -> tuple[float, float, float]:
    """(-pl, sigma2, mu) at (lam, c_tilde) from the _lag_stats entries.

    A sigma2 or mu of None is replaced by its closed-form maximizer at
    these rates (see maximize_cl).  The lag terms are added left to
    right, so the value does not depend on how a Python version sums.
    """
    # named, not starred, unpacking: a starred target builds a list per lag
    rhos = [_rho(lam, c_tilde, d_t, d_x) for d_t, d_x, _, _, _, _ in stats]
    if mu is None:
        num = den = 0.0
        for rho, (_, _, n, s_1, _, _) in zip(rhos, stats):
            num += s_1 / (1.0 + rho)
            den += 2 * n / (1.0 + rho)
        mu = num / den
    n_all = 0
    q = log_o = 0.0
    for rho, (_, _, n, s_1, s_2, s_ab) in zip(rhos, stats):
        one = 1.0 - rho * rho
        q += _sum_b(rho, mu, n, s_1, s_2, s_ab)[0] / one
        log_o += n * math.log(one)
        n_all += n
    if s2 is None:
        s2 = q / (2 * n_all)
    # q / (2 s2) is N at the profiled sigma2 up to rounding; computing it
    # keeps the value bitwise equal to -pl at the returned theta
    return n_all * math.log(s2) + 0.5 * log_o + q / (2.0 * s2), s2, mu


def pairwise_loglik(theta: StouParams, field: FieldSample, weights: PairWeightSpec) -> float:
    """Weighted pairwise log-likelihood over admissible pairs.

    Pairs are accumulated per axis lag from sufficient statistics, in a
    fixed order, so repeated evaluation is bitwise stable.
    """
    return -_neg_pl(theta.lam, theta.c_tilde, theta.sigma2, theta.mu,
                    _lag_stats(field, weights))[0]


def _pair_information(theta: StouParams, d_t: float, d_x: float) -> np.ndarray:
    """Expected information block of one pair at the given lag."""
    rho = _rho(theta.lam, theta.c_tilde, d_t, d_x)
    s2 = theta.sigma2
    one = 1.0 - rho * rho
    g = np.array([-d_t * rho, -d_x * rho])
    block = np.zeros((4, 4))
    block[:2, :2] = (1.0 + rho * rho) / (one * one) * np.outer(g, g)
    block[:2, 2] = -rho / (s2 * one) * g
    block[2, :2] = block[:2, 2]
    block[2, 2] = 1.0 / (s2 * s2)
    block[3, 3] = 2.0 / (s2 * (1.0 + rho))
    return block


def total_pair_weight(lattice: Lattice, weights: PairWeightSpec) -> float:
    """Total weight W of admissible pairs on the lattice."""
    d = weights.cutoff_d
    return float(sum(n for *_, n in _axis_lags(lattice, d, d)))


def hessian_h(theta: StouParams, lattice: Lattice, weights: PairWeightSpec) -> np.ndarray:
    """Expected Hessian H(theta): the sum over admissible weighted pairs
    of the per-pair expected information block.  Needs no data."""
    _require_squarable(theta.sigma2)
    H = np.zeros((4, 4))
    d = weights.cutoff_d
    for _, _, d_t, d_x, n in _axis_lags(lattice, d, d):
        H += n * _pair_information(theta, d_t, d_x)
    return H


def wsev_j(
    theta_hat: StouParams,
    field: FieldSample,
    weights: PairWeightSpec,
    windows: WindowSpec,
) -> np.ndarray:
    """Window-subsampled empirical variance of the pair score.

    J* = (1/m) sum_k (1/W_k) S_k S_k^T, where S_k sums w * U over the
    pairs whose endpoints both lie inside window k and W_k is the
    window's pair weight.
    """
    _require_squarable(theta_hat.sigma2)
    lat = field.lattice
    t0s, x0s = windows.origins(lat)
    if t0s.size == 0 or x0s.size == 0:
        raise NoValidWindows(
            f"no {windows.window_nt}x{windows.window_nx} window fits in {lat.shape}"
        )

    # integral images over pair-anchor grids make each window rectangle
    # O(1); at window origin (t0, x0) the anchors whose pairs lie inside
    # span [t0, t0 + window_nt - h_t) x [x0, x0 + window_nx - h_x).  They
    # sum the lag's (a + b, a^2 + b^2, a b) about mu_hat, as raw sums would
    # lose about log10(mu^2 / sigma2) digits, so _lag_sums runs at mu = 0
    dev = field.values - theta_hat.mu
    S = np.zeros((4, t0s.size, x0s.size))
    w = 0
    d = weights.cutoff_d
    for h_t, h_x, d_t, d_x, _ in _axis_lags(lat, d, d):
        n_in_t, n_in_x = windows.window_nt - h_t, windows.window_nx - h_x
        if n_in_t <= 0 or n_in_x <= 0:
            continue
        yi, yj = _pair_ends(dev, h_t, h_x)
        p = np.zeros((3, yi.shape[0] + 1, yi.shape[1] + 1))
        np.cumsum((yi + yj, yi * yi + yj * yj, yi * yj), axis=1, out=p[:, 1:, 1:])
        np.cumsum(p[:, 1:, 1:], axis=2, out=p[:, 1:, 1:])
        ta, tb = t0s[:, None], t0s[:, None] + n_in_t
        xa, xb = x0s, x0s + n_in_x
        sums = p[:, tb, xb] - p[:, ta, xb] - p[:, tb, xa] + p[:, ta, xa]
        rho, n = _rho(theta_hat.lam, theta_hat.c_tilde, d_t, d_x), n_in_t * n_in_x
        _, dl_drho, dl_ds2, dl_dmu = _lag_sums(rho, theta_hat.sigma2, 0.0, n, *sums)
        S += (dl_drho * (-d_t * rho), dl_drho * (-d_x * rho), dl_ds2, dl_dmu)
        w += n
    # every window has pair weight w; sum the windows in row-major origin
    # order, from +0.0 (the + 0.0 keeps a sum of -0.0 terms at +0.0)
    s = S.reshape(4, -1)
    J = np.cumsum(s[:, None, :] * s[None, :, :] / w, axis=2)[:, :, -1] + 0.0
    return J / s.shape[1]


def _with_rates(z: list[float], free: list[int], pinned: list) -> list:
    """pinned = [lam, c_tilde, sigma2 or None, mu or None], with exp(z) in
    place of the rates at the free indices."""
    theta = pinned.copy()
    for k, zk in zip(free, z):
        theta[k] = math.exp(zk)
    return theta


def _profile_objective(z: list[float], stats: list[tuple], free: list[int],
                       pinned: list) -> float:
    """The fit's objective, _neg_pl at _with_rates(z, free, pinned); inf
    wherever the rates are invalid, a pair correlation reaches 1, or the
    value (the profiled sigma2 included) is undefined."""
    try:
        value = _neg_pl(*_with_rates(z, free, pinned), stats)[0]
    except (CorrelationAtUnity, ValueError, OverflowError, ZeroDivisionError):
        return math.inf
    return value if math.isfinite(value) else math.inf


def _fisher_terms(z: list[float], stats: list[tuple], free: list[int],
                  pinned: list) -> tuple[np.ndarray, np.ndarray]:
    """(g, I) at a z where _profile_objective is finite.  g is the
    profile's gradient in (log lam, log c_tilde), by the envelope theorem
    the partial of -pl at the profiled sigma2 and mu.  I is its expected
    information: the rates' block of hessian_h in log rates, less its
    sigma2 part (the Schur complement) where sigma2 is profiled; mu is
    information-orthogonal."""
    lam, c_tilde, s2, mu = _with_rates(z, free, pinned)
    _, s2, mu = _neg_pl(lam, c_tilde, s2, mu, stats)
    _require_squarable(s2)
    g0 = g1 = a = b = c = x0 = x1 = 0.0
    for d_t, d_x, n, *sums in stats:
        rho = _rho(lam, c_tilde, d_t, d_x)
        one = 1.0 - rho * rho
        # d rho / dz, 0 for a pinned rate as for a rate with no pairs on its axis
        r0, r1 = -rho * lam * d_t * (0 in free), -rho * c_tilde * d_x * (1 in free)
        slope = -_lag_sums(rho, s2, mu, n, *sums)[1]
        w, x = n * (1.0 + rho * rho) / (one * one), n * rho / one
        g0, g1, x0, x1 = g0 + slope * r0, g1 + slope * r1, x0 + x * r0, x1 + x * r1
        a, b, c = a + w * r0 * r0, b + w * r0 * r1, c + w * r1 * r1
    if pinned[2] is None:  # less the sigma2 part (x/s2)(x/s2)^T / (n_all/s2^2); s2 cancels
        n_all = sum(n for _, _, n, *_ in stats)
        a, b, c = a - x0 * x0 / n_all, b - x0 * x1 / n_all, c - x1 * x1 / n_all
    return np.array([g0, g1]), np.array([[a, b], [b, c]])


def _newton(f, step_at, z: list[float], max_iter: int) -> tuple[list[float], bool]:
    """Minimize f from z by damped steps; returns (z, converged).

    Each iteration cuts step_at(z) to unit length (a longer step comes
    from a nearly flat f, and can leap to rates where every correlation
    is 0) and halves it until it lowers f.  The search has converged when
    no step of length 1e-6 or more lowers f, or when the accepted step is
    shorter than that or lowers f by at most 1e-13 relative; it has not
    if max_iter iterations end first.  A z where f is inf is returned as is.
    """
    fz = f(z)
    if fz == math.inf:
        return z, True
    for _ in range(max_iter):
        step = step_at(z)
        length = math.hypot(*step)
        if length > 1.0:
            step, length = [sk / length for sk in step], 1.0
        while True:
            trial = [zk + sk for zk, sk in zip(z, step)]
            f_trial = f(trial)
            if f_trial < fz:
                break
            length *= 0.5
            if not length >= 1e-6:  # a NaN step ends here too
                return z, True
            step = [0.5 * sk for sk in step]
        gain, z, fz = fz - f_trial, trial, f_trial
        if gain <= 1e-13 * abs(fz) or length < 1e-6:
            return z, True
    return z, False


def maximize_cl(
    field: FieldSample,
    weights: PairWeightSpec,
    scenario: EstimationScenario,
    start: StouParams,
    max_iter: int = 2000,
) -> StouParams:
    """Maximize the pairwise log-likelihood over the free coordinates.

    Free sigma2 and mu are profiled out by the closed forms in the module
    docstring.  Only the free rates among (log lambda, log c_tilde) are
    searched, by Fisher scoring: each step solves I s = -g for the
    profile's analytic gradient g and expected information I
    (_fisher_terms), and _newton damps it and stops the search.  No
    search runs when no rate is free, or when the profile is inf at the
    start's rates.  Fixed coordinates are pinned to the scenario values.
    The returned pl never falls below the pl at start; if max_iter
    iterations end first, an OptimizerDidNotConverge warning is issued
    and the incumbent is returned anyway.
    """
    pinned = scenario.pin(start).as_array().tolist()
    stats = _lag_stats(field, weights)
    lam, c_tilde, s2, mu = pinned
    profiled = [lam, c_tilde, None if "sigma2" in scenario.free else s2,
                None if "mu" in scenario.free else mu]
    free = [k for k in (0, 1) if PARAM_NAMES[k] in scenario.free]
    objective = functools.partial(
        _profile_objective, stats=stats, free=free, pinned=profiled
    )

    def fisher_step(z):
        # the minimum-norm solution of I s = -g, an eigenvalue of I below 1e-15
        # of the larger taken as 0: a pinned rate, or one with no pairs on its
        # axis, has a zero row and column in I, and is not moved
        g, info = _fisher_terms(z, stats, free, profiled)
        return np.linalg.lstsq(info, -g, rcond=1e-15)[0][free].tolist()

    z = [math.log(profiled[k]) for k in free]
    # where a pinned rate puts an axis lag at correlation 1, the objective
    # is inf at every free rate, and _newton returns z without a search
    if free:
        z, converged = _newton(objective, fisher_step, z, max_iter)
        if not converged:
            warnings.warn(
                "Fisher-scoring search exhausted its iteration budget",
                OptimizerDidNotConverge,
                stacklevel=2,
            )
    # the profile at the start's rates cannot do worse than the start
    # itself, nor the descent from there, but guard anyway
    value = objective(z)
    if value == math.inf or value > _profile_objective([], stats, [], pinned):
        return StouParams(*pinned)
    lam, c_tilde, s2, mu = _with_rates(z, free, profiled)
    _, s2, mu = _neg_pl(lam, c_tilde, s2, mu, stats)
    return StouParams(lam=lam, c_tilde=c_tilde, sigma2=s2, mu=mu)


# Delta-method gradients of the derived parameters in theta order.
def _derived_params(theta: StouParams) -> list[tuple[str, float, np.ndarray]]:
    lam, ct, s2, mu = theta.lam, theta.c_tilde, theta.sigma2, theta.mu
    tau = math.sqrt(theta.tau2)
    return [
        ("c", theta.c, np.array([1.0 / ct, -lam / ct**2, 0.0, 0.0])),
        ("tau", tau, np.array([ct * s2 / tau, lam * s2 / tau, lam * ct / tau, 0.0])),
        ("mu_seed", theta.mu_seed,
         np.array([ct * mu / 2.0, lam * mu / 2.0, 0.0, lam * ct / 2.0])),
    ]


def check_sandwich_ci_args(level: float, free: tuple[str, ...]) -> None:
    """Raise the ValueError sandwich_ci raises for this level and these
    free parameters, if any."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level: must be in (0, 1), got {level!r}")
    if not free:
        raise ValueError("scenario: must leave at least one parameter free")


def sandwich_ci(
    field: FieldSample,
    weights: PairWeightSpec,
    windows: WindowSpec,
    scenario: EstimationScenario,
    level: float = 0.95,
    start: StouParams | None = None,
    max_lag: int = 5,
) -> SandwichResult:
    """Asymptotic-normal CIs from the sandwich covariance at the CL
    maximizer.

    Point estimate from maximize_cl (started at the moment fit unless
    start is given); G_inv = W H^-1 J* H^-1 restricted to the free
    coordinates; each CI is estimate +/- z_(1+level)/2 * se.  Derived
    parameters (c, tau, mu_seed) get Delta-method intervals with their
    gradients restricted to the free coordinates.
    """
    check_sandwich_ci_args(level, scenario.free)
    if start is None:
        start = fit_mm(field, max_lag=max_lag)
    theta_hat = maximize_cl(field, weights, scenario, start)

    lat = field.lattice
    H = hessian_h(theta_hat, lat, weights)

    # identifiability check first: a free rate with no pairs on its axis
    # should fail as SingularH, not as a window-geometry complaint
    free_idx = scenario.free_indices()
    sub = np.ix_(free_idx, free_idx)
    H_f = H[sub]
    if np.linalg.cond(H_f) > 1e12:
        raise SingularH("expected Hessian is numerically singular on the free set")

    J_star = wsev_j(theta_hat, field, weights, windows)
    W = total_pair_weight(lat, weights)
    H_inv = np.linalg.inv(H_f)
    G_inv = W * (H_inv @ J_star[sub] @ H_inv)

    z = statistics.NormalDist().inv_cdf(0.5 * (1.0 + level))
    ses: dict[str, float] = {}
    intervals: dict[str, IntervalEstimate] = {}
    theta_arr = theta_hat.as_array()
    # a free coordinate's gradient is its unit row
    free_params = [(PARAM_NAMES[idx], float(theta_arr[idx]), np.eye(4)[idx])
                   for idx in free_idx]
    for name, value, grad in free_params + _derived_params(theta_hat):
        g = grad[free_idx]
        se = math.sqrt(max(g @ G_inv @ g, 0.0))
        ses[name] = se
        intervals[name] = IntervalEstimate(
            parameter=name,
            point=value,
            lower=value - z * se,
            upper=value + z * se,
            median=value,
            level=level,
        )
    return SandwichResult(
        theta_hat=theta_hat,
        H=H,
        J_star=J_star,
        G_inv=G_inv,
        W=W,
        free=scenario.free,
        standard_errors=ses,
        intervals=intervals,
        level=level,
    )
