"""Moment-based point estimation from one field sample.

On the lattice axes the model correlation is log-linear in the lag,

    rho(h dt, 0) = exp(-lam h dt),      rho(0, h dx) = exp(-c_tilde h dx),

so a no-intercept least-squares fit of -log rho_hat against the lag
distance recovers the decay rates, and the sample mean and variance
recover (mu, sigma2).  The seed parameters follow by inverting the
stationary-moment relations: tau2 = 2 lam c_tilde sigma2 and
mu_seed = lam c_tilde mu / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, InsufficientUsableLags
from .model import FieldSample, StouParams, _pair_ends, _require_int

__all__ = ["AcfEstimate", "empirical_acf", "fit_mm", "mm_from_moments"]

_AXES = ("temporal", "spatial")


@dataclass(frozen=True)
class AcfEstimate:
    """Empirical autocorrelations along one lattice axis."""

    axis: str
    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError(f"axis: must be one of {_AXES}, got {self.axis!r}")
        lags = np.asarray(self.lags, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if lags.ndim != 1 or lags.shape != values.shape:
            raise ValueError("lags, values: must be 1-d arrays of equal length")
        if lags.size and (np.any(lags <= 0) or np.any(np.diff(lags) <= 0)):
            raise ValueError(f"lags: must be positive and strictly increasing, got {lags}")
        if np.any(np.abs(values) > 1.0 + 1e-12):
            raise ValueError(f"values: must lie in [-1, 1], got {values}")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)


def _axis_acf(dev: np.ndarray, s2: float, axis: str, max_lag: int) -> np.ndarray:
    """The lag-1..max_lag axis ACF of the (n_t, n_x) deviations dev, whose
    1/n variance is s2 > 0, from each lag's pairs as two slices."""
    acf = np.empty(max_lag)
    for h in range(1, max_lag + 1):
        a, b = _pair_ends(dev, h, 0) if axis == "temporal" else _pair_ends(dev, 0, h)
        acf[h - 1] = (a * b).sum() / (a.size * s2)
    return np.clip(acf, -1.0, 1.0)


def _deviations(field: FieldSample) -> tuple[float, np.ndarray, float]:
    """Sample mean, deviations from it and their 1/n variance; raises
    DegenerateSample when the variance is zero."""
    mean = field.values.mean()
    dev = field.values - mean
    s2 = float(np.mean(dev * dev))
    if s2 <= 0.0:
        raise DegenerateSample("sample variance is zero")
    return float(mean), dev, s2


def empirical_acf(field: FieldSample, axis: str, max_lag: int) -> AcfEstimate:
    """Axis ACF: lag-h value is the pair-averaged product of deviations
    from the full-sample mean, normalized by the 1/n sample variance.

    Requires max_lag < field extent along the axis; raises
    DegenerateSample when the sample variance is zero.
    """
    if axis not in _AXES:
        raise ValueError(f"axis: must be one of {_AXES}, got {axis!r}")
    extent = field.values.shape[0 if axis == "temporal" else 1]
    _require_int("max_lag", max_lag, 1, extent - 1)
    _, dev, s2 = _deviations(field)
    return AcfEstimate(axis, np.arange(1, max_lag + 1), _axis_acf(dev, s2, axis, max_lag))


def _decay_rate(axis: str, lags: np.ndarray, values: np.ndarray, spacing: float) -> float:
    usable = (values > 0.0) & (values < 1.0)
    if not np.any(usable):
        raise InsufficientUsableLags(
            f"no {axis} lag with autocorrelation strictly inside (0, 1)"
        )
    x = lags[usable] * spacing
    y = -np.log(values[usable])
    # no-intercept LS: the model forces rho(0) = 1
    return float((x @ y) / (x @ x))


def _from_moments(acf_t: tuple, acf_x: tuple, mean: float, var: float, dt: float,
                  dx: float) -> StouParams:
    """mm_from_moments on (axis, lags, values) triples."""
    if not (math.isfinite(var) and var > 0.0):
        raise DegenerateSample(f"var: must be a finite sample variance > 0, got {var!r}")
    return StouParams(lam=_decay_rate(*acf_t, dt), c_tilde=_decay_rate(*acf_x, dx),
                      sigma2=var, mu=mean)


def mm_from_moments(
    acf_t: AcfEstimate,
    acf_x: AcfEstimate,
    mean: float,
    var: float,
    dt: float,
    dx: float,
) -> StouParams:
    """Invert axis ACFs and sample moments to an STOU parameter set."""
    return _from_moments((acf_t.axis, acf_t.lags, acf_t.values),
                         (acf_x.axis, acf_x.lags, acf_x.values), mean, var, dt, dx)


def fit_mm(field: FieldSample, max_lag: int = 5) -> StouParams:
    """Moment fit of one field sample.

    Uses up to max_lag lags per axis (clamped to the axis extent); lags
    with rho_hat outside (0, 1) are dropped from the log-linear fit.
    """
    _require_int("max_lag", max_lag, 1)
    lat = field.lattice
    if lat.n_t < 2 or lat.n_x < 2:
        raise ValueError(f"field: must have at least 2 points on each axis, got {lat.shape}")
    # one pass: the mean, deviations and variance serve both axes and the fit
    mean, dev, var = _deviations(field)
    acfs = []
    for axis, extent in (("temporal", lat.n_t), ("spatial", lat.n_x)):
        lags = min(max_lag, extent - 1)
        acfs.append((axis, np.arange(1, lags + 1), _axis_acf(dev, var, axis, lags)))
    return _from_moments(*acfs, mean, var, lat.dt, lat.dx)
