"""Parameters, lattice geometry, and correlation structure of the
spatio-temporal Ornstein-Uhlenbeck (STOU) field.

The field is the moving-average of a homogeneous Gaussian noise basis
over a backward light cone with decay rate lam and cone slope c,

    Y_t(x) = int_{A_t(x)} exp(-lam (t - s)) L(d xi, d s),
    A_t(x) = {(xi, s) : s <= t, |xi - x| <= c (t - s)},

where L has seed mean mu_seed and seed variance tau2 per unit area.
Stationary moments and the correlation:

    mu     = 2 c mu_seed / lam**2
    sigma2 = c tau2 / (2 lam**2)

    rho_canonical(d_t, d_x) = exp(-lam * max(|d_t|, |d_x| / c))

The canonical quadruple (lam, c_tilde = lam / c, sigma2, mu) is the
internal representation; (c, mu_seed, tau2) are derived views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "StouParams",
    "Lattice",
    "FieldSample",
    "corr_canonical",
    "derived_moments",
]


def _require_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError unless value is an integer, not a bool, from low (to high)."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"from {low} to {high}"
        raise ValueError(f"{name}: must be an integer {bound}, got {value!r}")


def _finite(value) -> bool:
    """math.isfinite, False for a non-number or an int beyond the float range."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _require_positive(name: str, value) -> None:
    """Raise ValueError unless value is finite and > 0."""
    if not (_finite(value) and value > 0.0):
        raise ValueError(f"{name}: must be finite and > 0, got {value!r}")


def derived_moments(lam: float, c: float, mu_seed: float, tau2: float) -> tuple[float, float]:
    """Stationary mean and variance implied by the natural parameters."""
    mu = 2.0 * c * mu_seed / lam**2
    sigma2 = c * tau2 / (2.0 * lam**2)
    return mu, sigma2


@dataclass(frozen=True)
class StouParams:
    """STOU parameter set, stored in canonical coordinates.

    Attributes
    ----------
    lam : float
        Temporal decay rate, > 0.
    c_tilde : float
        Spatial decay rate lam / c, > 0.
    sigma2 : float
        Stationary variance, > 0.
    mu : float
        Stationary mean.
    """

    lam: float
    c_tilde: float
    sigma2: float
    mu: float

    def __post_init__(self):
        for name in ("lam", "c_tilde", "sigma2"):
            _require_positive(name, getattr(self, name))
        if not _finite(self.mu):
            raise ValueError(f"mu: must be finite, got {self.mu!r}")

    @classmethod
    def natural(cls, lam: float, c: float, mu_seed: float, tau2: float) -> "StouParams":
        """Construct from the natural parameterization (lam, c, mu_seed, tau2);
        ValueError names lam, c or tau2 unless finite and > 0, mu_seed unless
        finite, and lam when an implied mean, variance or c_tilde is not representable."""
        for name, value in (("lam", lam), ("c", c), ("tau2", tau2)):
            _require_positive(name, value)
        if not _finite(mu_seed):
            raise ValueError(f"mu_seed: must be finite, got {mu_seed!r}")
        try:  # lam**2 underflows below about 1e-154 and overflows above about 1e154
            mu, sigma2 = derived_moments(lam, c, mu_seed, tau2)
            return cls(lam=lam, c_tilde=lam / c, sigma2=sigma2, mu=mu)
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"lam: {lam!r} implies a stationary mean, variance or c_tilde "
                             f"that cannot be represented ({exc})") from exc

    def as_array(self) -> np.ndarray:
        """(lam, c_tilde, sigma2, mu), the order of cl.PARAM_NAMES."""
        return np.array([self.lam, self.c_tilde, self.sigma2, self.mu])

    @classmethod
    def from_array(cls, arr) -> "StouParams":
        lam, c_tilde, sigma2, mu = (float(v) for v in arr)
        return cls(lam=lam, c_tilde=c_tilde, sigma2=sigma2, mu=mu)

    @property
    def c(self) -> float:
        return self.lam / self.c_tilde

    @property
    def tau2(self) -> float:
        return 2.0 * self.lam * self.c_tilde * self.sigma2

    @property
    def mu_seed(self) -> float:
        return self.lam * self.c_tilde * self.mu / 2.0


def corr_canonical(params: StouParams, d_t, d_x):
    """exp(-lam * max(|d_t|, |d_x| / c)), elementwise over broadcast lags."""
    d_t = np.abs(np.asarray(d_t, dtype=float))
    d_x = np.abs(np.asarray(d_x, dtype=float))
    return np.exp(-params.lam * np.maximum(d_t, d_x / params.c))


@dataclass(frozen=True)
class Lattice:
    """Regular space-time observation grid.

    Sites are ordered time-major: site k observes time index
    k // n_x and space index k % n_x, at coordinates (t dt, x dx).
    """

    n_x: int
    n_t: int
    dx: float
    dt: float

    def __post_init__(self):
        _require_int("n_x", self.n_x, 1)
        _require_int("n_t", self.n_t, 1)
        _require_positive("dx", self.dx)
        _require_positive("dt", self.dt)

    @property
    def n(self) -> int:
        return self.n_x * self.n_t

    @property
    def shape(self) -> tuple[int, int]:
        """(n_t, n_x), the array shape of one field sample."""
        return (self.n_t, self.n_x)


def _pair_ends(v: np.ndarray, h_t: int, h_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of the pairs of an (..., n_t, n_x) array at axis lag
    (h_t, h_x) in grid steps, keyed by anchor position: the pair anchored
    at (t, x) joins (t, x) with (t + h_t, x + h_x)."""
    n_t, n_x = v.shape[-2:]
    return v[..., : n_t - h_t, : n_x - h_x], v[..., h_t:, h_x:]


def _axis_lags(lattice: Lattice, max_t: int, max_x: int) -> list[tuple]:
    """(h_t, h_x, d_t, d_x, n) for each axis lag that has pairs, in fixed
    order: temporal lags 1..max_t, then spatial lags 1..max_x.  h is in
    grid steps, d in lattice units, and n counts the lag's pairs."""
    n_t, n_x = lattice.n_t, lattice.n_x
    steps = [(h, 0) for h in range(1, min(max_t, n_t - 1) + 1)]
    steps += [(0, h) for h in range(1, min(max_x, n_x - 1) + 1)]
    return [(h_t, h_x, h_t * lattice.dt, h_x * lattice.dx, (n_t - h_t) * (n_x - h_x))
            for h_t, h_x in steps]


@dataclass(frozen=True)
class FieldSample:
    """One realization of the field on a lattice, shaped (n_t, n_x)."""

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.lattice.shape:
            raise DimensionMismatch(
                f"values shape {values.shape} does not match lattice {self.lattice.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", values)
