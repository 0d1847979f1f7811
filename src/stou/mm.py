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
from .model import FieldSample, StouParams, _axis_lags, _pair_ends

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
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        lags = np.asarray(self.lags, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if lags.ndim != 1 or lags.shape != values.shape:
            raise ValueError("lags and values must be 1-d arrays of equal length")
        if lags.size and (np.any(lags <= 0) or np.any(np.diff(lags) <= 0)):
            raise ValueError("lags must be positive and strictly increasing")
        if np.any(np.abs(values) > 1.0 + 1e-12):
            raise ValueError("autocorrelations must lie in [-1, 1]")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)


def _axis_acf(dev: np.ndarray, s2: float, lattice, axis: str,
              max_lag: int) -> tuple[str, np.ndarray, np.ndarray]:
    """(axis, lags, values) of the lag-1..max_lag axis ACF, from the
    deviations dev and their 1/n variance s2 > 0."""
    acf = np.empty(max_lag)
    steps = (max_lag, 0) if axis == "temporal" else (0, max_lag)
    for i, (h_t, h_x, _, _, n) in enumerate(_axis_lags(lattice, *steps)):
        a, b = _pair_ends(dev, h_t, h_x)
        acf[i] = (a * b).sum() / (n * s2)
    return axis, np.arange(1, max_lag + 1), np.clip(acf, -1.0, 1.0)


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
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    extent = field.values.shape[0 if axis == "temporal" else 1]
    if not 1 <= max_lag < extent:
        raise ValueError(f"max_lag must be in [1, {extent - 1}], got {max_lag}")
    _, dev, s2 = _deviations(field)
    return AcfEstimate(*_axis_acf(dev, s2, field.lattice, axis, max_lag))


def _decay_rate(acf: AcfEstimate, spacing: float) -> float:
    usable = (acf.values > 0.0) & (acf.values < 1.0)
    if not np.any(usable):
        raise InsufficientUsableLags(
            f"no {acf.axis} lag with autocorrelation strictly inside (0, 1)"
        )
    x = acf.lags[usable] * spacing
    y = -np.log(acf.values[usable])
    # no-intercept LS: the model forces rho(0) = 1
    return float((x @ y) / (x @ x))


def mm_from_moments(
    acf_t: AcfEstimate,
    acf_x: AcfEstimate,
    mean: float,
    var: float,
    dt: float,
    dx: float,
) -> StouParams:
    """Invert axis ACFs and sample moments to an STOU parameter set."""
    if not (math.isfinite(var) and var > 0.0):
        raise DegenerateSample(f"sample variance must be > 0, got {var!r}")
    lam = _decay_rate(acf_t, dt)
    c_tilde = _decay_rate(acf_x, dx)
    return StouParams(lam=lam, c_tilde=c_tilde, sigma2=var, mu=mean)


def fit_mm(field: FieldSample, max_lag: int = 5) -> StouParams:
    """Moment fit of one field sample.

    Uses up to max_lag lags per axis (clamped to the axis extent); lags
    with rho_hat outside (0, 1) are dropped from the log-linear fit.
    """
    lat = field.lattice
    if lat.n_t < 2 or lat.n_x < 2:
        raise ValueError("field must have at least 2 points on each axis")
    # one pass: the mean, deviations and variance serve both axes and the fit
    mean, dev, var = _deviations(field)
    acf_t = AcfEstimate(*_axis_acf(dev, var, lat, "temporal", min(max_lag, lat.n_t - 1)))
    acf_x = AcfEstimate(*_axis_acf(dev, var, lat, "spatial", min(max_lag, lat.n_x - 1)))
    return mm_from_moments(acf_t, acf_x, mean, var, lat.dt, lat.dx)
