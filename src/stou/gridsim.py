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
a cell (O(mesh)) plus the truncated tail, (1 + x) exp(-x) of the mean at
depth x = lam p dt, as the cone's area grows with age.

The inner sum over cells is a 2-d cross-correlation of one shared
noise array with a fixed kernel stencil, sampled back onto the
observation lattice.  Everything that does not depend on the draw (cone
areas, kernel weights, the mean term and the conjugate real FFT of the
flipped kernel) is built once per (params, lattice, config) and cached,
so a run of draws from one model pays for the kernel transform once.

A draw never fills the noise array in space.  It draws white noise on
the whole R x C torus (R x C the noise array's size rounded up to fast
FFT lengths) as its real FFT: the real FFT of i.i.d. N(0, 1) values is
itself white in the frequency domain (Dietrich & Newsam 1997), up to
the columns that are the spectra of real sequences (see
_white_spectrum).  The draw multiplies that spectrum by the kernel's,
inverts along the time axis, and finishes the inverse only on the rows
the lattice samples.  The circular correlation is exact on the region
that is sampled: the noise array is at least as large as the kernel in
both axes, and every sampled output (T, X) reads z[T + q, X + v] only
for q, v inside the kernel, cells of the noise array that never pass
its end, so no term wraps around.  Those cells are i.i.d. N(0, 1), so
the sampled field has the law of the linear correlation over the noise
array; the torus cells beyond it are never read.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cholesky import DEFAULT_MAX_POINTS
from .errors import BudgetExceeded, TruncationTooShallow
from .model import FieldSample, Lattice, StouParams, _require_int

__all__ = ["GridSimConfig", "cone_cell_areas", "simulate_grid", "with_default_depth"]

# mesh cells under the largest cone-swept noise array, 0.42 GB as doubles: twice the exact
# factor at its ceiling.  A draw fills no such array; its spectrum is about as large
MAX_NOISE_CELLS = DEFAULT_MAX_POINTS**2 // 2


@dataclass(frozen=True)
class GridSimConfig:
    """Mesh controls for the grid simulator.

    truncation_p: temporal kernel steps retained; the kernel is set to
    zero beyond p * dt time units.  None takes the default depth of the
    model simulated (see with_default_depth).
    cells_per_obs_cell: subdivision factor r >= 1; integration cells
    have size (dx/r, dt/r).
    Each is at most MAX_NOISE_CELLS: the noise array has at least p * r
    rows and r columns, so a larger one never fits the budget.
    """

    truncation_p: int | None = None
    cells_per_obs_cell: int = 1

    def __post_init__(self):
        if self.truncation_p is not None:
            _require_int("truncation_p", self.truncation_p, 1, MAX_NOISE_CELLS)
        _require_int("cells_per_obs_cell", self.cells_per_obs_cell, 1, MAX_NOISE_CELLS)


def _cut_share(depth: float) -> float:
    """Share of the mean cut off by truncation at depth x = lam p dt: (1 + x) exp(-x)."""
    return (1.0 + depth) * math.exp(-depth)


def with_default_depth(config: GridSimConfig, params: StouParams,
                       lattice: Lattice) -> GridSimConfig:
    """config, with a truncation_p of None replaced by the default depth
    p = ceil(9.24 / (lam dt)) for this model and lattice: at depth
    lam p dt >= 9.24 the truncated tail carries at most 1e-3 of the mean."""
    if config.truncation_p is not None:
        return config
    rate = params.lam * lattice.dt
    if not (rate > 0.0 and 9.24 / rate <= MAX_NOISE_CELLS):
        raise BudgetExceeded(f"grid depth 9.24 / (lam dt) exceeds the budget of "
                             f"{MAX_NOISE_CELLS} at lam dt = {rate!r}")
    return replace(config, truncation_p=math.ceil(9.24 / rate))


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
    # the torus the noise is drawn on: the noise array rounded up to fast FFT lengths
    fft_shape: tuple[int, int]
    # conjugate real FFT of the flipped kernel at fft_shape, times sqrt(R C / 2) to
    # undo _white_spectrum's scale; read-only
    kernel_spectrum: np.ndarray


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n; 30**64 is a multiple of each one below 2**64."""
    smooth, n = 30**64, int(n)  # a numpy integer n cannot hold 30**64
    while smooth % n:
        n += 1
    return n


@functools.lru_cache(maxsize=1)
def _grid_plan(params: StouParams, lattice: Lattice, config: GridSimConfig) -> _GridPlan:
    lam, c = params.lam, params.c
    r = config.cells_per_obs_cell
    dt_m = lattice.dt / r
    dx_m = lattice.dx / r
    n_steps = config.truncation_p * r

    # one shared noise value per mesh cell; rows run forward in time, and the columns span
    # the lattice plus the cone's half-width v_half (inf if dx_m is tiny or 0) on each side
    half_width = c * n_steps * dt_m / dx_m if dx_m > 0.0 else math.inf
    v_half = math.ceil(half_width) if math.isfinite(half_width) else math.inf
    noise_shape = ((lattice.n_t - 1) * r + n_steps, (lattice.n_x - 1) * r + 2 * v_half)
    if noise_shape[0] * noise_shape[1] > MAX_NOISE_CELLS:
        raise BudgetExceeded(f"grid noise array of {noise_shape[0]} x {noise_shape[1]} cells "
                             f"(depth {config.truncation_p}) exceeds the budget of "
                             f"{MAX_NOISE_CELLS}")

    areas = cone_cell_areas(c, dt_m, dx_m, n_steps)
    # midpoint kernel weight per age row
    weights = np.exp(-lam * (np.arange(n_steps) + 0.5) * dt_m)

    mean_part = params.mu_seed * float(weights @ areas.sum(axis=1))

    fft_shape = tuple(_fast_len(n) for n in noise_shape)

    kernel = np.sqrt(params.tau2 * areas) * weights[:, None]
    # out[T,X] = sum_q,v z[T+q, X+v] k[q, v]; row q of the flipped
    # kernel is age n_steps-1-q, so older rows sit earlier in z
    spectrum = np.conj(np.fft.rfft2(kernel[::-1, :], s=fft_shape))
    spectrum *= math.sqrt(fft_shape[0] * fft_shape[1] / 2)
    spectrum.flags.writeable = False
    return _GridPlan(mean_part, fft_shape, spectrum)


def _white_spectrum(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """The real FFT of R x C i.i.d. N(0, 1) values, divided by sqrt(R C / 2),
    drawn directly from R * 2 (C // 2 + 1) normals.

    Every column but the real-sequence spectra is i.i.d. complex normal
    with unit-variance parts.  Column 0, and column C / 2 when C is even,
    is the FFT of a real sequence: the FFT of its real parts, scaled to
    match, is Hermitian along axis 0, and its imaginary parts go unused.
    """
    R, C = shape
    w = rng.standard_normal((R, 2 * (C // 2 + 1))).view(np.complex128)
    for col in (0, C // 2) if C % 2 == 0 else (0,):
        w[:, col] = math.sqrt(2.0 / R) * np.fft.fft(w[:, col].real)
    return w


def simulate_grid(
    params: StouParams,
    lattice: Lattice,
    config: GridSimConfig,
    rng: np.random.Generator,
) -> FieldSample:
    """One approximate field draw on the lattice, at the default depth
    when config has no truncation_p.

    Warns TruncationTooShallow when the truncated kernel tail carries
    more than 1e-2 of the mean (depth lam * p * dt below about 6.64).
    """
    config = with_default_depth(config, params, lattice)
    depth = params.lam * config.truncation_p * lattice.dt
    if _cut_share(depth) > 1e-2:
        warnings.warn(
            f"truncation depth lam*p*dt = {depth:.3g} cuts {_cut_share(depth):.2g} "
            "of the mean, more than 1e-2",
            TruncationTooShallow,
            stacklevel=2,
        )

    plan = _grid_plan(params, lattice, config)
    spectrum = _white_spectrum(rng, plan.fft_shape)
    spectrum *= plan.kernel_spectrum

    # irfft2's two passes, the second on the sampled rows only
    r = config.cells_per_obs_cell
    rows = np.fft.ifft(spectrum, axis=0)[: (lattice.n_t - 1) * r + 1 : r]
    noise_part = np.fft.irfft(rows, n=plan.fft_shape[1], axis=1)
    values = plan.mean_part + noise_part[:, : (lattice.n_x - 1) * r + 1 : r]
    return FieldSample(lattice=lattice, values=values)
