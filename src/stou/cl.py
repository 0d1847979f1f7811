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
    sigma2_hat = sum_k SB_k(mu_hat) / o_k  /  2 sum_k n_k.

maximize_cl profiles the free ones out this way, so its simplex runs
over (log lam, log c_tilde) only.

Score components, with F = rho (a^2 + b^2) - (1 + rho^2) a b and
one = 1 - rho^2 (all validated against central finite differences in
the test suite):

    dl/drho    = rho / one - F / (sigma2 one^2)
    dl/dsigma2 = -1 / sigma2 + B / (2 sigma2^2 one)
    dl/dmu     = (a + b) / (sigma2 (1 + rho))

and dl/d(lam, c_tilde) follows by the chain rule with
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
import operator
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bootstrap import IntervalEstimate
from .errors import (
    CorrelationAtUnity,
    NoValidWindows,
    OptimizerDidNotConverge,
    SingularH,
)
from .mm import fit_mm
from .model import FieldSample, Lattice, StouParams

__all__ = [
    "PARAM_NAMES",
    "ThetaCL",
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
]

# canonical coordinate order of theta
PARAM_NAMES = ("lambda", "c_tilde", "sigma2", "mu")

_RHO_TOL = 1e-12


@dataclass(frozen=True)
class ThetaCL:
    """CL parameter vector theta = (lambda, c_tilde, sigma2, mu)."""

    lam: float
    c_tilde: float
    sigma2: float
    mu: float

    def __post_init__(self):
        for name in ("lam", "c_tilde", "sigma2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.lam, self.c_tilde, self.sigma2, self.mu])

    @classmethod
    def from_array(cls, arr) -> "ThetaCL":
        lam, c_tilde, sigma2, mu = (float(v) for v in arr)
        return cls(lam=lam, c_tilde=c_tilde, sigma2=sigma2, mu=mu)

    @classmethod
    def from_params(cls, params: StouParams) -> "ThetaCL":
        return cls(
            lam=params.lam, c_tilde=params.c_tilde, sigma2=params.sigma2, mu=params.mu
        )

    def to_params(self) -> StouParams:
        return StouParams(
            lam=self.lam, c_tilde=self.c_tilde, sigma2=self.sigma2, mu=self.mu
        )


@dataclass(frozen=True)
class PairWeightSpec:
    """Admissible-pair rule: unit weight on axis-aligned pairs separated
    by at most cutoff_d grid steps, zero otherwise."""

    cutoff_d: int = 3

    def __post_init__(self):
        if not (isinstance(self.cutoff_d, (int, np.integer)) and self.cutoff_d >= 1):
            raise ValueError(f"cutoff_d must be an integer >= 1, got {self.cutoff_d!r}")


@dataclass(frozen=True)
class WindowSpec:
    """Sliding subsampling window: extents and strides in grid points."""

    window_nx: int
    window_nt: int
    step_x: int = 1
    step_t: int = 1

    def __post_init__(self):
        for name in ("window_nx", "window_nt"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 2):
                raise ValueError(f"{name} must be an integer >= 2, got {v!r}")
        for name in ("step_x", "step_t"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")

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
            raise ValueError(f"unknown parameter names {sorted(unknown)}")
        fixed = set(PARAM_NAMES) - set(free)
        if set(self.fixed_values) != fixed:
            raise ValueError(
                f"fixed_values must have keys {sorted(fixed)}, got {sorted(self.fixed_values)}"
            )
        for name, v in self.fixed_values.items():
            if not math.isfinite(v):
                raise ValueError(f"fixed value for {name} must be finite, got {v!r}")
            if name != "mu" and v <= 0.0:
                raise ValueError(f"fixed value for {name} must be > 0, got {v!r}")
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "fixed_values", dict(self.fixed_values))

    def free_indices(self) -> np.ndarray:
        return np.array([PARAM_NAMES.index(n) for n in self.free], dtype=int)

    def pin(self, theta: ThetaCL) -> ThetaCL:
        """theta with the fixed coordinates replaced by fixed_values."""
        vals = dict(zip(PARAM_NAMES, theta.as_array()))
        vals.update(self.fixed_values)
        return ThetaCL(
            lam=vals["lambda"],
            c_tilde=vals["c_tilde"],
            sigma2=vals["sigma2"],
            mu=vals["mu"],
        )


@dataclass(frozen=True)
class SandwichResult:
    """Sandwich-variance CI bundle at the CL maximizer.

    H and J_star are the full 4x4 expected Hessian and subsampled score
    variance; G_inv is W * H^-1 J* H^-1 restricted to the free
    coordinates (order given by free).  intervals holds one
    IntervalEstimate per free parameter plus the derived (c, tau,
    mu_seed) via the Delta method.
    """

    theta_hat: ThetaCL
    H: np.ndarray
    J_star: np.ndarray
    G_inv: np.ndarray
    W: float
    free: tuple[str, ...]
    standard_errors: dict[str, float]
    intervals: dict[str, IntervalEstimate]
    level: float


def _check_rho(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if np.any(np.abs(rho) >= 1.0 - _RHO_TOL):
        raise CorrelationAtUnity("pair correlation too close to +/-1")
    return rho


def l_pair(theta: ThetaCL, y_i, y_j, rho_ij):
    """Pair log-likelihood term, elementwise over broadcast inputs.

    Equals the bivariate normal log-density at (y_i, y_j) plus log(2 pi).
    """
    rho = _check_rho(rho_ij)
    a = np.asarray(y_i, dtype=float) - theta.mu
    b = np.asarray(y_j, dtype=float) - theta.mu
    one = 1.0 - rho * rho
    B = a * a + b * b - 2.0 * rho * a * b
    return -0.5 * (
        2.0 * math.log(theta.sigma2) + np.log(one) + B / (theta.sigma2 * one)
    )


def score_u(theta: ThetaCL, y_i, y_j, rho_ij, grad_rho) -> np.ndarray:
    """Analytic gradient of l_pair in theta, shape (..., 4).

    grad_rho holds (d rho / d lambda, d rho / d c_tilde) in the trailing
    axis; under the separable correlation at lag (d_t, d_x) it is
    (-|d_t|, -|d_x|) * rho.
    """
    rho = _check_rho(rho_ij)
    s2 = theta.sigma2
    a = np.asarray(y_i, dtype=float) - theta.mu
    b = np.asarray(y_j, dtype=float) - theta.mu
    one = 1.0 - rho * rho
    B = a * a + b * b - 2.0 * rho * a * b
    F = rho * (a * a + b * b) - (1.0 + rho * rho) * a * b

    dl_drho = rho / one - F / (s2 * one * one)
    dl_ds2 = -1.0 / s2 + B / (2.0 * s2 * s2 * one)
    dl_dmu = (a + b) / (s2 * (1.0 + rho))

    grad_rho = np.asarray(grad_rho, dtype=float)
    out = np.empty(np.broadcast(a, b, rho).shape + (4,))
    out[..., 0] = dl_drho * grad_rho[..., 0]
    out[..., 1] = dl_drho * grad_rho[..., 1]
    out[..., 2] = dl_ds2
    out[..., 3] = dl_dmu
    return out


def _axis_lags(lattice: Lattice, weights: PairWeightSpec) -> list[tuple[int, int]]:
    """Axis lags (h_t, h_x) in grid steps, in fixed order: temporal lags
    1..d then spatial lags 1..d.  Lags with no pairs are omitted."""
    d = weights.cutoff_d
    return [(h, 0) for h in range(1, d + 1) if h < lattice.n_t] + [
        (0, h) for h in range(1, d + 1) if h < lattice.n_x
    ]


def _pair_ends(v: np.ndarray, h_t: int, h_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of the pairs at one lag, keyed by anchor position:
    the pair anchored at (t, x) joins (t, x) with (t + h_t, x + h_x)."""
    n_t, n_x = v.shape
    return v[: n_t - h_t, : n_x - h_x], v[h_t:, h_x:]


def _lag_stats(field: FieldSample, weights: PairWeightSpec) -> list[tuple]:
    """Per-lag pair statistics (d_t, d_x, n, s_1, s_2, s_ab) in _axis_lags
    order: with a the first and b the second endpoint of each pair, s_1
    sums a + b, s_2 sums a^2 + b^2 and s_ab sums a b."""
    lat = field.lattice
    out = []
    for h_t, h_x in _axis_lags(lat, weights):
        yi, yj = _pair_ends(field.values, h_t, h_x)
        out.append((
            h_t * lat.dt, h_x * lat.dx, yi.size, float(yi.sum()) + float(yj.sum()),
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
    lags = []
    for d_t, d_x, n, s_1, s_2, s_ab in stats:
        rho = math.exp(-lam * d_t - c_tilde * d_x)
        if rho >= 1.0 - _RHO_TOL:
            raise CorrelationAtUnity("pair correlation too close to 1")
        lags.append((rho, 1.0 - rho * rho))
    if mu is None:
        num = den = 0.0
        for (rho, _), (_, _, n, s_1, _, _) in zip(lags, stats):
            num += s_1 / (1.0 + rho)
            den += 2 * n / (1.0 + rho)
        mu = num / den
    n_all = 0
    q = log_o = 0.0
    for (rho, one), (_, _, n, s_1, s_2, s_ab) in zip(lags, stats):
        # B summed over the lag's pairs, a = y_i - mu and b = y_j - mu
        sum_B = (s_2 - 2.0 * mu * s_1 + 2 * n * mu * mu
                 - 2.0 * rho * (s_ab - mu * s_1 + n * mu * mu))
        q += sum_B / one
        log_o += n * math.log(one)
        n_all += n
    if s2 is None:
        s2 = q / (2 * n_all)
    # q / (2 s2) is N at the profiled sigma2 up to rounding; computing it
    # keeps the value bitwise equal to -pl at the returned theta
    return n_all * math.log(s2) + 0.5 * log_o + q / (2.0 * s2), s2, mu


def pairwise_loglik(theta: ThetaCL, field: FieldSample, weights: PairWeightSpec) -> float:
    """Weighted pairwise log-likelihood over admissible pairs.

    Pairs are accumulated per axis lag from sufficient statistics, in a
    fixed order, so repeated evaluation is bitwise stable.
    """
    return -_neg_pl(theta.lam, theta.c_tilde, theta.sigma2, theta.mu,
                    _lag_stats(field, weights))[0]


def _pair_information(theta: ThetaCL, d_t: float, d_x: float) -> np.ndarray:
    """Expected information block of one pair at the given lag."""
    rho = math.exp(-theta.lam * d_t - theta.c_tilde * d_x)
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


def _lag_counts(lattice: Lattice, weights: PairWeightSpec) -> list[tuple[float, float, int]]:
    return [
        (h_t * lattice.dt, h_x * lattice.dx, (lattice.n_t - h_t) * (lattice.n_x - h_x))
        for h_t, h_x in _axis_lags(lattice, weights)
    ]


def total_pair_weight(lattice: Lattice, weights: PairWeightSpec) -> float:
    """Total weight W of admissible pairs on the lattice."""
    return float(sum(n for _, _, n in _lag_counts(lattice, weights)))


def hessian_h(theta: ThetaCL, lattice: Lattice, weights: PairWeightSpec) -> np.ndarray:
    """Expected Hessian H(theta): the sum over admissible weighted pairs
    of the per-pair expected information block.  Needs no data."""
    H = np.zeros((4, 4))
    for d_t, d_x, n in _lag_counts(lattice, weights):
        H += n * _pair_information(theta, d_t, d_x)
    return H


def _score_fields(
    theta: ThetaCL, field: FieldSample, weights: PairWeightSpec
) -> list[tuple[int, int, np.ndarray]]:
    """Per-lag arrays of pair scores, keyed by pair anchor position.

    Returns (h_t, h_x, U) with U shaped (4, n_t - h_t, n_x - h_x); the
    pair anchored at (t, x) joins (t, x) with (t + h_t, x + h_x).
    """
    lat = field.lattice
    return [
        (h_t, h_x, _pair_scores(theta, h_t * lat.dt, h_x * lat.dx,
                                *_pair_ends(field.values, h_t, h_x)))
        for h_t, h_x in _axis_lags(lat, weights)
    ]


def _pair_scores(
    theta: ThetaCL, d_t: float, d_x: float, yi: np.ndarray, yj: np.ndarray
) -> np.ndarray:
    rho = math.exp(-theta.lam * d_t - theta.c_tilde * d_x)
    grad = np.broadcast_to(
        np.array([-d_t * rho, -d_x * rho]), yi.shape + (2,)
    )
    u = score_u(theta, yi, yj, np.full(yi.shape, rho), grad)
    return np.moveaxis(u, -1, 0)


def wsev_j(
    theta_hat: ThetaCL,
    field: FieldSample,
    weights: PairWeightSpec,
    windows: WindowSpec,
) -> np.ndarray:
    """Window-subsampled empirical variance of the pair score.

    J* = (1/m) sum_k (1/W_k) S_k S_k^T, where S_k sums w * U over the
    pairs whose endpoints both lie inside window k and W_k is the
    window's pair weight; zero-weight windows are skipped.
    """
    lat = field.lattice
    t0s, x0s = windows.origins(lat)
    if t0s.size == 0 or x0s.size == 0:
        raise NoValidWindows(
            f"no {windows.window_nt}x{windows.window_nx} window fits in {lat.shape}"
        )

    # integral images over pair-anchor grids make each window rectangle
    # O(1); at window origin (t0, x0) the anchors whose pairs lie inside
    # span [t0, t0 + window_nt - h_t) x [x0, x0 + window_nx - h_x)
    S = np.zeros((4, t0s.size, x0s.size))
    w = 0
    for h_t, h_x, u in _score_fields(theta_hat, field, weights):
        n_in_t, n_in_x = windows.window_nt - h_t, windows.window_nx - h_x
        if n_in_t <= 0 or n_in_x <= 0:
            continue
        p = np.zeros((4, u.shape[1] + 1, u.shape[2] + 1))
        np.cumsum(u, axis=1, out=p[:, 1:, 1:])
        np.cumsum(p[:, 1:, 1:], axis=2, out=p[:, 1:, 1:])
        ta, tb = t0s[:, None], t0s[:, None] + n_in_t
        xa, xb = x0s, x0s + n_in_x
        S += p[:, tb, xb] - p[:, ta, xb] - p[:, tb, xa] + p[:, ta, xa]
        w += n_in_t * n_in_x
    if w == 0:
        raise NoValidWindows("every window has zero pair weight")
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


def _by_value(sim: list[list[float]], fsim: list[float]) -> tuple[list, list]:
    """Vertices and values in the order np.argsort gives the values.

    That sort is not stable on ties, and the order of tied vertices steers
    later steps, so Python's sort stands in for it only when the values
    come out strictly increasing: distinct and not NaN, so the order is
    unique.
    """
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    ranked = [fsim[i] for i in order]
    if not all(map(operator.lt, ranked, ranked[1:])):
        order = np.argsort(fsim).tolist()
        ranked = [fsim[i] for i in order]
    return [sim[i] for i in order], ranked


def _nelder_mead(f, x0: list[float], max_iter: int, xatol: float,
                 fatol: float) -> tuple[list[float], float, bool]:
    """Minimize f from x0 by simplex search; returns (x, f_min, converged).

    Follows the rules of scipy.optimize.minimize(method="Nelder-Mead")
    without bounds or adaptive coefficients: the same first simplex,
    steps, vertex order and stopping test, in the same float operations,
    so it visits the same points.  f_min is NaN if any vertex value is.
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(v) for v in sim]
    sim, fsim = _by_value(*_by_value(sim, fsim))  # sorted twice, as scipy does
    iterations = 1
    while iterations < max_iter:
        best = sim[0]
        if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best))
                and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
            break
        # centroid of all but the worst vertex, summed from vertex 0 on
        xbar = [functools.reduce(operator.add, col) / n for col in zip(*sim[:-1])]
        worst = sim[-1]

        def towards(a: float, b: float) -> list[float]:
            return [a * c + b * w for c, w in zip(xbar, worst)]

        xr = towards(2.0, -1.0)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = towards(3.0, -2.0)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = towards(1.5, -0.5)
                fxc = f(xc)
                keep = fxc <= fxr
            else:  # inside contraction
                xc = towards(0.5, 0.5)
                fxc = f(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = _by_value(sim, fsim)
    return sim[0], float(np.min(fsim)), iterations < max_iter


def maximize_cl(
    field: FieldSample,
    weights: PairWeightSpec,
    scenario: EstimationScenario,
    start: ThetaCL,
    max_iter: int = 2000,
) -> ThetaCL:
    """Maximize the pairwise log-likelihood over the free coordinates.

    Free sigma2 and mu are profiled out in closed form.  At fixed rates
    (lambda, c_tilde), with r_k = 1 + rho_k and o_k = 1 - rho_k^2 at axis
    lag k, n_k pairs, s_1k the sum of y_i + y_j and SB_k(mu) the sum of B
    over its pairs, pl is maximized by

        mu_hat     = sum_k s_1k / r_k  /  sum_k 2 n_k / r_k
        sigma2_hat = sum_k SB_k(mu_hat) / o_k  /  2 sum_k n_k,

    where -pl = sum_k n_k (log sigma2_hat + log(o_k) / 2) + N, N = sum_k n_k.
    Only the free rates among (log lambda, log c_tilde) are searched, by
    Nelder-Mead simplex search (_nelder_mead, which takes the same steps
    as scipy's Nelder-Mead, ties included; relative function tolerance
    1e-8, one automatic restart from the incumbent); with no free rate
    no search runs.  Fixed coordinates are pinned to the scenario
    values.  The returned pl never falls below the pl at start; if the
    iteration budget runs out first, an OptimizerDidNotConverge warning
    is issued and the incumbent is returned anyway.
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

    z = [math.log(profiled[k]) for k in free]
    if free:
        f0 = objective(z)
        scale = max(1.0, abs(f0)) if math.isfinite(f0) else 1.0
        for _ in range(2):  # one automatic restart from the incumbent
            z, fun, converged = _nelder_mead(
                objective, z, max_iter, xatol=1e-6, fatol=1e-8 * scale
            )
            scale = max(1.0, abs(fun)) if math.isfinite(fun) else scale
        if not converged:
            warnings.warn(
                "simplex search exhausted its iteration budget",
                OptimizerDidNotConverge,
                stacklevel=2,
            )
    # the profile at the start's rates cannot do worse than the start
    # itself, nor the descent from there, but guard anyway
    value = objective(z)
    if value == math.inf or value > _profile_objective([], stats, [], pinned):
        return ThetaCL(*pinned)
    lam, c_tilde, s2, mu = _with_rates(z, free, profiled)
    _, s2, mu = _neg_pl(lam, c_tilde, s2, mu, stats)
    return ThetaCL(lam=lam, c_tilde=c_tilde, sigma2=s2, mu=mu)


# Delta-method gradients of the derived parameters in theta order.
def _derived_params(theta: ThetaCL) -> list[tuple[str, float, np.ndarray]]:
    lam, ct, s2, mu = theta.lam, theta.c_tilde, theta.sigma2, theta.mu
    tau = math.sqrt(2.0 * lam * ct * s2)
    return [
        ("c", lam / ct, np.array([1.0 / ct, -lam / ct**2, 0.0, 0.0])),
        ("tau", tau, np.array([ct * s2 / tau, lam * s2 / tau, lam * ct / tau, 0.0])),
        ("mu_seed", lam * ct * mu / 2.0,
         np.array([ct * mu / 2.0, lam * mu / 2.0, 0.0, lam * ct / 2.0])),
    ]


def sandwich_ci(
    field: FieldSample,
    weights: PairWeightSpec,
    windows: WindowSpec,
    scenario: EstimationScenario,
    level: float = 0.95,
    start: ThetaCL | None = None,
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
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    if not scenario.free:
        raise ValueError("scenario must leave at least one parameter free")
    if start is None:
        start = ThetaCL.from_params(fit_mm(field, max_lag=max_lag))
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

    import scipy.special  # loaded on first use: only CL intervals need ndtri

    z = float(scipy.special.ndtri(0.5 * (1.0 + level)))
    ses: dict[str, float] = {}
    intervals: dict[str, IntervalEstimate] = {}
    theta_arr = theta_hat.as_array()
    for k, idx in enumerate(free_idx):
        name = PARAM_NAMES[idx]
        se = math.sqrt(max(G_inv[k, k], 0.0))
        ses[name] = se
        point = float(theta_arr[idx])
        intervals[name] = IntervalEstimate(
            parameter=name,
            point=point,
            lower=point - z * se,
            upper=point + z * se,
            median=point,
            level=level,
        )
    for name, value, grad in _derived_params(theta_hat):
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
