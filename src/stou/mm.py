"""Moment-based point estimation from one field sample, or from a stack
of them that share a lattice, each slice fitted as its own field.

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

from .errors import DegenerateSample, InsufficientUsableLags, StouError
from .model import FieldSample, Lattice, StouParams, _pair_ends, _require_int

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


def _axis_acf(dev: np.ndarray, s2: np.ndarray, axis: str, max_lag: int) -> np.ndarray:
    """The lag-1..max_lag axis ACFs, shaped (k, max_lag), of the (k, n_t,
    n_x) deviations dev, whose 1/n variances s2 are positive, from each
    lag's pairs as two slices."""
    k = len(dev)
    sums, pairs = np.empty((k, max_lag)), np.empty(max_lag)
    for h in range(1, max_lag + 1):
        a, b = _pair_ends(dev, h, 0) if axis == "temporal" else _pair_ends(dev, 0, h)
        sums[:, h - 1] = (a * b).reshape(k, -1).sum(axis=1)
        pairs[h - 1] = a[0].size
    return np.clip(sums / (pairs * s2[:, None]), -1.0, 1.0)


def _deviations(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each (n_t, n_x) slice's sample mean, its deviations from that mean
    and their 1/n variance, for (k, n_t, n_x) values; each slice is
    reduced in one contiguous run, as its own field would be."""
    k = len(values)
    mean = values.reshape(k, -1).mean(axis=1)
    dev = values - mean[:, None, None]
    return mean, dev, (dev * dev).reshape(k, -1).mean(axis=1)


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
    _, dev, s2 = _deviations(field.values[None])
    if s2[0] <= 0.0:
        raise DegenerateSample("sample variance is zero")
    return AcfEstimate(axis, np.arange(1, max_lag + 1), _axis_acf(dev, s2, axis, max_lag)[0])


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


def _fit_stack(values: np.ndarray, lattice: Lattice,
               max_lag: int) -> list[StouParams | StouError]:
    """fit_mm on each (n_t, n_x) slice of the (k, n_t, n_x) values, all on
    lattice: a StouParams for each slice that fits, and the StouError it
    raises for each that does not, with each slice's bits those of its
    own fit.  Raises ValueError for max_lag or lattice as fit_mm does."""
    _require_int("max_lag", max_lag, 1)
    if lattice.n_t < 2 or lattice.n_x < 2:
        raise ValueError(f"field: must have at least 2 points on each axis, got {lattice.shape}")
    # one pass: the means, deviations and variances serve both axes and the fits
    mean, dev, var = _deviations(values)
    # a zero-variance slice divides by 1, raising no warning; no fit reads its ACF
    divisor = np.where(var > 0.0, var, 1.0)
    acfs = []
    for axis, extent in (("temporal", lattice.n_t), ("spatial", lattice.n_x)):
        lags = min(max_lag, extent - 1)
        acfs.append((axis, np.arange(1, lags + 1), _axis_acf(dev, divisor, axis, lags)))
    fits = []
    for k in range(len(values)):
        try:
            if var[k] <= 0.0:
                raise DegenerateSample("sample variance is zero")
            fits.append(_from_moments(*((axis, lags, acf[k]) for axis, lags, acf in acfs),
                                      float(mean[k]), float(var[k]), lattice.dt, lattice.dx))
        except StouError as exc:
            # without its traceback, whose frame would hold dev and fits
            fits.append(exc.with_traceback(None))
    return fits


def fit_mm(field: FieldSample, max_lag: int = 5) -> StouParams:
    """Moment fit of one field sample: the one-slice case of the stacked
    fit that mc_ci runs on its B replications.

    Uses up to max_lag lags per axis (clamped to the axis extent); lags
    with rho_hat outside (0, 1) are dropped from the log-linear fit.
    """
    (fit,) = _fit_stack(field.values[None], field.lattice, max_lag)
    if isinstance(fit, StouError):
        raise fit
    return fit
