"""Approximate simulation by Riemann discretization of the ambit integral.

The moving-average integral behind the field,

    Y_t(x) = int_{|xi - x| <= c (t - s), s <= t} exp(-lam (t - s)) L(d xi, d s),

is truncated at age t - s = p * dt and discretized on a rectangular
space-time mesh of cell size (dx/r, dt/r), r = cells_per_obs_cell.
Each mesh cell C receives one Gaussian increment

    L(C) ~ Normal(mu_seed * A_C, tau2 * A_C),

where A_C is the exact area of the cell's intersection with the
backward cone, and the increment is shared by every observation point
whose cone covers the cell.  Cells cut by the cone boundary enter with
their exact intersected area, so the per-cell increment moments carry
no boundary-mass error; the remaining bias is kernel variation within
a cell (O(mesh)) plus the truncated tail (O(exp(-lam p dt))).

The inner sum over cells is a 2-d cross-correlation of one shared
noise array with a fixed kernel stencil, sampled back onto the
observation lattice.  Everything that does not depend on the draw (cone
areas, kernel weights, the mean term and the conjugate real FFT of the
flipped kernel) is built once per (params, lattice, config) and cached,
so a run of draws from one model pays for the kernel transform once.
Each draw then costs one forward and one inverse real FFT at the noise
array's own size (rounded up to a fast length), not at the full linear
correlation size.  That circular correlation is exact on the region
that is sampled: the noise array is at least as large as the kernel in
both axes, and every sampled output (T, X) reads z[T + q, X + v] only
for q, v inside the kernel, indices that never pass the end of the
noise array, so no term wraps around.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import TruncationTooShallow
from .model import FieldSample, Lattice, StouParams

__all__ = ["GridSimConfig", "cone_cell_areas", "simulate_grid"]


@dataclass(frozen=True)
class GridSimConfig:
    """Mesh controls for the grid simulator.

    truncation_p: temporal kernel steps retained; the kernel is set to
    zero beyond p * dt time units.  Depth lam * p * dt >= 5 recommended.
    cells_per_obs_cell: subdivision factor r >= 1; integration cells
    have size (dx/r, dt/r).
    """

    truncation_p: int
    cells_per_obs_cell: int = 1

    def __post_init__(self):
        if not (isinstance(self.truncation_p, (int, np.integer)) and self.truncation_p >= 1):
            raise ValueError(f"truncation_p must be an integer >= 1, got {self.truncation_p!r}")
        r = self.cells_per_obs_cell
        if not (isinstance(r, (int, np.integer)) and r >= 1):
            raise ValueError(f"cells_per_obs_cell must be an integer >= 1, got {r!r}")


def cone_cell_areas(c: float, dt_m: float, dx_m: float, n_steps: int) -> np.ndarray:
    """Exact cone-cell intersection areas on a rectangular mesh.

    Returns an (n_steps, 2 V) array whose (u, v) entry is the area of
    the intersection of the backward cone {(xi, s): |xi| <= c * age}
    with the mesh cell spanning ages [u dt_m, (u+1) dt_m] and the v-th
    spatial cell, columns ordered left to right across the cone axis
    (the axis sits between columns V-1 and V).  Row u sums to the exact
    cone slice area c * dt_m**2 * (2u + 1).
    """
    V = int(math.ceil(c * n_steps * dt_m / dx_m))
    v = np.arange(V, dtype=float)
    # ages at which the cone edge enters/exits the v-th column
    delta_a = v * dx_m / c
    delta_b = (v + 1.0) * dx_m / c

    def cum(age):
        # area of column v covered by the cone up to the given age
        tri = 0.5 * c * (np.clip(age, delta_a, delta_b) - delta_a) ** 2
        return tri + dx_m * np.maximum(0.0, age - delta_b)

    ages = np.arange(n_steps + 1, dtype=float)[:, None] * dt_m
    cumulative = cum(ages)
    right = cumulative[1:] - cumulative[:-1]
    return np.concatenate([right[:, ::-1], right], axis=1)


@dataclass(frozen=True)
class _GridPlan:
    """The draw-independent part of simulate_grid for one model."""

    mean_part: float
    noise_shape: tuple[int, int]
    fft_shape: tuple[int, int]
    # conjugate real FFT of the flipped kernel at fft_shape; read-only
    kernel_spectrum: np.ndarray


@functools.lru_cache(maxsize=1)
def _grid_plan(params: StouParams, lattice: Lattice, config: GridSimConfig) -> _GridPlan:
    lam, c = params.lam, params.c
    r = config.cells_per_obs_cell
    dt_m = lattice.dt / r
    dx_m = lattice.dx / r
    n_steps = config.truncation_p * r

    areas = cone_cell_areas(c, dt_m, dx_m, n_steps)
    v_half = areas.shape[1] // 2
    # midpoint kernel weight per age row
    weights = np.exp(-lam * (np.arange(n_steps) + 0.5) * dt_m)

    mean_part = params.mu_seed * float(weights @ areas.sum(axis=1))

    # one shared noise value per mesh cell; rows run forward in time
    noise_shape = (
        (lattice.n_t - 1) * r + n_steps,
        (lattice.n_x - 1) * r + 2 * v_half,
    )
    fft_shape = tuple(scipy.fft.next_fast_len(n, real=True) for n in noise_shape)

    kernel = np.sqrt(params.tau2 * areas) * weights[:, None]
    # out[T,X] = sum_q,v z[T+q, X+v] k[q, v]; row q of the flipped
    # kernel is age n_steps-1-q, so older rows sit earlier in z
    kernel_flipped = kernel[::-1, :]
    spectrum = np.conj(scipy.fft.rfft2(kernel_flipped, s=fft_shape))
    spectrum.flags.writeable = False
    return _GridPlan(mean_part, noise_shape, fft_shape, spectrum)


def simulate_grid(
    params: StouParams,
    lattice: Lattice,
    config: GridSimConfig,
    rng: np.random.Generator,
) -> FieldSample:
    """One approximate field draw on the lattice.

    Warns TruncationTooShallow when exp(-lam * p * dt) > 1e-2, i.e.
    when the discarded kernel tail is not negligible.
    """
    lam = params.lam
    depth = config.truncation_p * lattice.dt
    if math.exp(-lam * depth) > 1e-2:
        warnings.warn(
            f"truncation depth lam*p*dt = {lam * depth:.3g} < {math.log(100.0):.3g}; "
            "kernel tail exceeds 1e-2",
            TruncationTooShallow,
            stacklevel=2,
        )

    plan = _grid_plan(params, lattice, config)
    z = rng.standard_normal(plan.noise_shape)
    noise_part = scipy.fft.irfft2(
        scipy.fft.rfft2(z, s=plan.fft_shape) * plan.kernel_spectrum, s=plan.fft_shape
    )

    r = config.cells_per_obs_cell
    values = plan.mean_part + noise_part[
        : (lattice.n_t - 1) * r + 1 : r, : (lattice.n_x - 1) * r + 1 : r
    ]
    return FieldSample(lattice=lattice, values=values)
