import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate

from stou import GridSimConfig, Lattice, StouParams, cone_cell_areas, simulate_grid
import stou.gridsim
from stou.errors import BudgetExceeded, StouError, TruncationTooShallow
from stou.gridsim import (MAX_NOISE_CELLS, _cut_share, _fast_len, _grid_plan,
                          _white_spectrum, with_default_depth)


def deterministic_params(mu=0.4) -> StouParams:
    # vanishing seed variance isolates the Riemann-sum mean
    return StouParams(lam=1.0, c_tilde=1.0, sigma2=1e-30, mu=mu)


def linear_correlation_grid(params, lattice, config, rng):
    """The grid field by direct linear correlation over the full noise
    array, kept as the oracle for the cached-spectrum simulator.  The
    noise is the draw's own: the inverse real FFT of the white spectrum
    drawn from rng on the fast-length torus, cropped to the noise array."""
    r = config.cells_per_obs_cell
    dt_m, dx_m = lattice.dt / r, lattice.dx / r
    n_steps = config.truncation_p * r
    areas = cone_cell_areas(params.c, dt_m, dx_m, n_steps)
    weights = np.exp(-params.lam * (np.arange(n_steps) + 0.5) * dt_m)
    mean_part = params.mu_seed * float(weights @ areas.sum(axis=1))
    noise_shape = ((lattice.n_t - 1) * r + n_steps, (lattice.n_x - 1) * r + areas.shape[1])
    R, C = (scipy.fft.next_fast_len(n, real=True) for n in noise_shape)
    torus = np.fft.irfft2(_white_spectrum(rng, (R, C)) * math.sqrt(R * C / 2), s=(R, C))
    z = torus[: noise_shape[0], : noise_shape[1]]
    kernel = np.sqrt(params.tau2 * areas) * weights[:, None]
    return mean_part + correlate(z, kernel[::-1], mode="valid")[::r, ::r]


class TestGridSimConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GridSimConfig(truncation_p=0)
        with pytest.raises(ValueError):
            GridSimConfig(truncation_p=10, cells_per_obs_cell=0)

    def test_bounds_are_the_noise_budget(self):
        # p * r rows and r columns at least: a larger p or r never fits the
        # budget, and a 321-digit p would overflow when lam p dt is formed
        GridSimConfig(truncation_p=MAX_NOISE_CELLS, cells_per_obs_cell=MAX_NOISE_CELLS)
        for p in (MAX_NOISE_CELLS + 1, 10**320):
            with pytest.raises(ValueError, match="truncation_p"):
                GridSimConfig(truncation_p=p)
        with pytest.raises(ValueError, match="cells_per_obs_cell"):
            GridSimConfig(cells_per_obs_cell=MAX_NOISE_CELLS + 1)

    def test_defaults(self):
        cfg = GridSimConfig(truncation_p=300)
        assert cfg.cells_per_obs_cell == 1
        assert GridSimConfig().truncation_p is None


class TestDefaultDepth:
    def test_rule(self):
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=5, n_t=5, dx=0.05, dt=0.05)
        assert _cut_share(9.24) <= 1e-3 < _cut_share(9.23)
        # ceil(9.24 / (lam dt)) at the default truth and lattice
        assert with_default_depth(GridSimConfig(cells_per_obs_cell=2), p, lat) == \
            GridSimConfig(truncation_p=185, cells_per_obs_cell=2)
        explicit = GridSimConfig(truncation_p=7)
        assert with_default_depth(explicit, p, lat) is explicit

    @pytest.mark.parametrize("lam", [0.2, 1.0, 4.0])
    @pytest.mark.parametrize("dt", [0.02, 0.05, 0.1])
    def test_mean_within_1e3_of_four_times_deeper(self, lam, dt):
        # mean_part does not depend on dx; a coarse one keeps the stencil narrow
        p = StouParams.natural(lam=lam, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=2, n_t=2, dx=100.0, dt=dt)
        cfg = with_default_depth(GridSimConfig(), p, lat)
        got = _grid_plan(p, lat, cfg).mean_part
        deep = _grid_plan(p, lat, replace(cfg, truncation_p=4 * cfg.truncation_p)).mean_part
        assert abs(got - deep) <= 1e-3 * abs(deep)


class TestNoiseBudget:
    def test_raises_before_allocating(self, monkeypatch):
        # the doubles the exact factor holds at its 101 x 101 ceiling
        assert MAX_NOISE_CELLS == (101 * 101) ** 2 // 2
        # at 41 x 41, c = 1, dx = dt: depth p needs (40 + p) x (40 + 2p) cells
        p_max = max(p for p in range(1, 6000) if (40 + p) * (40 + 2 * p) <= MAX_NOISE_CELLS)

        class Allocating(Exception):
            pass

        def refuse(*args):
            raise Allocating

        monkeypatch.setattr(stou.gridsim, "cone_cell_areas", refuse)
        params = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=41, n_t=41, dx=0.05, dt=0.05)
        rng = np.random.default_rng(0)
        with pytest.raises(Allocating):
            simulate_grid(params, lat, GridSimConfig(truncation_p=p_max), rng)
        with pytest.raises(BudgetExceeded):
            simulate_grid(params, lat, GridSimConfig(truncation_p=p_max + 1), rng)
        # the default depth at a slowly decaying truth
        slow = StouParams.natural(lam=0.01, c=1.0, mu_seed=0.2, tau2=0.01)
        with pytest.raises(BudgetExceeded):
            simulate_grid(slow, lat, GridSimConfig(), rng)

    @pytest.mark.parametrize("lam, dx, dt, p", [
        (1e-150, 0.05, 1e-200, None),  # lam dt underflows to 0
        (1e-150, 0.05, 1e-170, None),  # 9.24 / (lam dt) overflows
        (1.0, 1e-308, 10.0, 1),  # the cone half-width c p dt / dx overflows
    ])
    def test_size_not_finite_is_budget_exceeded(self, lam, dx, dt, p):
        params = StouParams.natural(lam=lam, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=3, n_t=3, dx=dx, dt=dt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationTooShallow)
            with pytest.raises(BudgetExceeded):
                simulate_grid(params, lat, GridSimConfig(truncation_p=p), np.random.default_rng(0))

    def test_default_depth_beyond_the_config_bound_is_budget_exceeded(self):
        # 9.24 / (lam dt) = 1.8e8 is finite but above every GridSimConfig depth
        params = StouParams.natural(lam=1e-6, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=3, n_t=3, dx=0.05, dt=0.05)
        with pytest.raises(BudgetExceeded):
            with_default_depth(GridSimConfig(), params, lat)

    def test_mesh_cell_underflow_is_budget_exceeded(self):
        # dx / r underflows to 0: an infinitely wide cone, not a division by 0
        params = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=3, n_t=3, dx=1e-320, dt=0.05)
        config = GridSimConfig(truncation_p=1, cells_per_obs_cell=100_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationTooShallow)
            with pytest.raises(BudgetExceeded):
                simulate_grid(params, lat, config, np.random.default_rng(0))


class TestFastLen:
    def test_matches_scipy_next_fast_len(self):
        # every n a small lattice needs, and n up to the noise budget, where
        # the gap between 2^a 3^b 5^c lengths is largest
        near_budget = [51_200_001, 51_840_000, 51_840_001, MAX_NOISE_CELLS - 1, MAX_NOISE_CELLS]
        for n in [*range(1, 100_001), *near_budget]:
            assert _fast_len(n) == scipy.fft.next_fast_len(n, real=True), n

    def test_takes_a_numpy_integer(self):
        # a GridSimConfig may hold numpy integers, and the noise shape then does;
        # 30**64 % np.int64(7) raises OverflowError
        assert _fast_len(np.int64(7)) == 8
        assert type(_fast_len(np.int64(7))) is int


class TestConeCellAreas:
    def test_hand_checked_unit_case(self):
        # c = 1, unit mesh: slab u covers |xi| <= s for s in [u, u+1]
        areas = cone_cell_areas(1.0, 1.0, 1.0, 2)
        np.testing.assert_allclose(areas[0], [0.0, 0.5, 0.5, 0.0])
        np.testing.assert_allclose(areas[1], [0.5, 1.0, 1.0, 0.5])

    @pytest.mark.parametrize("c,dt_m,dx_m", [(1.0, 0.05, 0.05), (0.4, 0.1, 0.03), (2.5, 0.02, 0.11)])
    def test_row_sums_equal_slab_area(self, c, dt_m, dx_m):
        n_steps = 7
        areas = cone_cell_areas(c, dt_m, dx_m, n_steps)
        for u in range(n_steps):
            assert areas[u].sum() == pytest.approx(c * dt_m**2 * (2 * u + 1), rel=1e-12)
        # and the total is the full truncated-cone area c (n dt)^2
        assert areas.sum() == pytest.approx(c * (n_steps * dt_m) ** 2, rel=1e-12)

    def test_spatially_symmetric_and_nonnegative(self):
        areas = cone_cell_areas(0.7, 0.05, 0.08, 9)
        assert np.all(areas >= 0.0)
        np.testing.assert_allclose(areas, areas[:, ::-1], atol=1e-15)


class TestSimulateGrid:
    def test_shape_and_determinism(self):
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=9, n_t=7, dx=0.05, dt=0.05)
        cfg = GridSimConfig(truncation_p=300)
        a = simulate_grid(p, lat, cfg, np.random.default_rng(3))
        b = simulate_grid(p, lat, cfg, np.random.default_rng(3))
        c = simulate_grid(p, lat, cfg, np.random.default_rng(4))
        assert a.values.shape == (7, 9)
        assert np.all(np.isfinite(a.values))
        np.testing.assert_array_equal(a.values, b.values)
        assert np.any(a.values != c.values)

    def test_refined_mesh_changes_output_shape_not(self):
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=9, n_t=7, dx=0.05, dt=0.05)
        out = simulate_grid(
            p, lat, GridSimConfig(truncation_p=300, cells_per_obs_cell=2),
            np.random.default_rng(3),
        )
        assert out.values.shape == (7, 9)

    def test_deterministic_mean_matches_truncated_integral(self):
        # with tau2 -> 0 the field is the Riemann sum of the kernel over
        # the truncated cone: mu (1 - (1 + lam T) e^{-lam T}) at depth T
        mu = 0.4
        p_steps = 300
        lat = Lattice(n_x=15, n_t=15, dx=0.05, dt=0.05)
        field = simulate_grid(
            deterministic_params(mu), lat, GridSimConfig(truncation_p=p_steps),
            np.random.default_rng(0),
        )
        T = p_steps * lat.dt
        expected = mu * (1.0 - (1.0 + T) * math.exp(-T))
        assert np.allclose(field.values, field.values[0, 0])
        assert abs(float(field.values[0, 0]) - expected) <= 1e-3 * mu

    def test_mesh_refinement_tightens_the_mean(self):
        mu = 0.4
        lat = Lattice(n_x=15, n_t=15, dx=0.05, dt=0.05)
        T = 300 * lat.dt
        expected = mu * (1.0 - (1.0 + T) * math.exp(-T))
        errs = []
        for r in (1, 2):
            field = simulate_grid(
                deterministic_params(mu), lat,
                GridSimConfig(truncation_p=300, cells_per_obs_cell=r),
                np.random.default_rng(0),
            )
            errs.append(abs(float(field.values[0, 0]) - expected))
        assert errs[1] < errs[0]

    def test_doubling_truncation_moves_mean_within_tail_bound(self):
        # discarded tail of the mean integral: mu (1 + lam p dt) e^{-lam p dt}
        mu = 0.4
        lat = Lattice(n_x=15, n_t=15, dx=0.05, dt=0.05)
        for p_steps in (100, 150):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationTooShallow)
                a = simulate_grid(
                    deterministic_params(mu), lat, GridSimConfig(truncation_p=p_steps),
                    np.random.default_rng(0),
                )
                b = simulate_grid(
                    deterministic_params(mu), lat, GridSimConfig(truncation_p=2 * p_steps),
                    np.random.default_rng(0),
                )
            diff = abs(float(b.values[0, 0]) - float(a.values[0, 0]))
            depth = p_steps * lat.dt
            bound = 1.05 * mu * (1.0 + depth) * math.exp(-depth)
            assert diff <= bound

    def test_warns_when_truncation_shallow(self):
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=5, n_t=5, dx=0.05, dt=0.05)
        # lam p dt = 2.5, tail e^{-2.5} ~ 0.082 > 1e-2
        with pytest.warns(TruncationTooShallow):
            simulate_grid(p, lat, GridSimConfig(truncation_p=50), np.random.default_rng(0))

    @pytest.mark.parametrize("p_steps,warns", [(132, True), (133, False)])
    def test_warning_threshold_is_1e2_of_the_mean(self, p_steps, warns):
        # (1 + x) e^{-x} = 1e-2 at depth x = 6.64: 1.04e-2 at 6.6, 9.9e-3 at 6.65
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=5, n_t=5, dx=0.05, dt=0.05)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate_grid(p, lat, GridSimConfig(truncation_p=p_steps), np.random.default_rng(0))
        assert any(w.category is TruncationTooShallow for w in caught) == warns

    def test_no_warning_when_truncation_deep(self):
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=5, n_t=5, dx=0.05, dt=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationTooShallow)
            simulate_grid(p, lat, GridSimConfig(truncation_p=300), np.random.default_rng(0))

    def test_sample_mean_near_mu_over_replications(self):
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=15, n_t=15, dx=0.05, dt=0.05)
        cfg = GridSimConfig(truncation_p=300)
        rng = np.random.default_rng(21)
        means = [simulate_grid(p, lat, cfg, rng).values.mean() for _ in range(200)]
        se = np.std(means, ddof=1) / math.sqrt(len(means))
        assert abs(np.mean(means) - p.mu) <= 4.0 * se


class TestCachedSpectrum:
    @pytest.mark.filterwarnings("ignore::stou.errors.TruncationTooShallow")
    @pytest.mark.parametrize("p_steps", [10, 140, 300])
    @pytest.mark.parametrize("c", [0.3, 1.0, 2.3])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("n_t,n_x", [(7, 12), (11, 5)])
    def test_matches_linear_correlation(self, n_t, n_x, r, c, p_steps):
        p = StouParams.natural(lam=1.0, c=c, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.05)
        cfg = GridSimConfig(truncation_p=p_steps, cells_per_obs_cell=r)
        got = simulate_grid(p, lat, cfg, np.random.default_rng(8)).values
        want = linear_correlation_grid(p, lat, cfg, np.random.default_rng(8))
        assert got.shape == want.shape == (n_t, n_x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("lam", [0.6, 1.0, 2.5])
    @pytest.mark.parametrize("c", [0.3, 1.0, 2.3])
    @pytest.mark.parametrize("n_t,n_x,r", [(41, 41, 1), (11, 5, 2)])
    def test_matches_linear_correlation_at_default_depth(self, n_t, n_x, r, c, lam):
        # the default depth at 41 x 41 pads the 225 x 410 noise array to 225 x 432
        p = StouParams.natural(lam=lam, c=c, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.05)
        cfg = with_default_depth(GridSimConfig(cells_per_obs_cell=r), p, lat)
        got = simulate_grid(p, lat, cfg, np.random.default_rng(8)).values
        want = linear_correlation_grid(p, lat, cfg, np.random.default_rng(8))
        assert got.shape == want.shape == (n_t, n_x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_cache_keyed_on_every_model_input(self):
        lat = Lattice(n_x=9, n_t=7, dx=0.05, dt=0.05)
        cfg = GridSimConfig(truncation_p=140)
        base = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        first = simulate_grid(base, lat, cfg, np.random.default_rng(5)).values
        for other in (
            StouParams.natural(lam=1.0, c=1.3, mu_seed=0.2, tau2=0.01),
            StouParams.natural(lam=1.2, c=1.0, mu_seed=0.2, tau2=0.01),
        ):
            out = simulate_grid(other, lat, cfg, np.random.default_rng(5)).values
            assert np.any(out != first)
        # back to the first model after the cache held another
        again = simulate_grid(base, lat, cfg, np.random.default_rng(5)).values
        np.testing.assert_array_equal(again, first)

    def test_spectrum_is_read_only(self):
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=9, n_t=7, dx=0.05, dt=0.05)
        spectrum = _grid_plan(p, lat, GridSimConfig(truncation_p=140)).kernel_spectrum
        assert not spectrum.flags.writeable
        with pytest.raises(ValueError):
            spectrum[0, 0] = 0.0

    def test_warns_again_on_cache_hit(self):
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=5, n_t=5, dx=0.05, dt=0.05)
        cfg = GridSimConfig(truncation_p=50)
        with pytest.warns(TruncationTooShallow):
            simulate_grid(p, lat, cfg, np.random.default_rng(0))
        hits = _grid_plan.cache_info().hits
        with pytest.warns(TruncationTooShallow):
            simulate_grid(p, lat, cfg, np.random.default_rng(1))
        assert _grid_plan.cache_info().hits == hits + 1


class _UnitNormals:
    """A generator stub whose standard_normal is the i-th unit vector."""

    def __init__(self, i):
        self.i = i

    def standard_normal(self, shape):
        e = np.zeros(shape)
        e.flat[self.i] = 1.0
        return e


class TestWhiteSpectrum:
    @pytest.mark.parametrize("R,C", [(1, 2), (2, 2), (1, 3), (3, 2), (4, 5), (5, 4),
                                     (6, 6), (7, 9), (8, 10)])
    def test_inverse_is_iid_standard_normal_on_the_torus(self, R, C):
        # column i of M is the torus noise the i-th normal alone makes; the noise's
        # covariance is M M^T, exactly, for every parity of R and C
        n = R * 2 * (C // 2 + 1)
        M = np.stack([
            np.fft.irfft2(_white_spectrum(_UnitNormals(i), (R, C)) * math.sqrt(R * C / 2),
                          s=(R, C)).ravel()
            for i in range(n)
        ], axis=1)
        np.testing.assert_allclose(M @ M.T, np.eye(R * C), rtol=0.0, atol=1e-12)


class TestRegime:
    @given(
        n_x=st.integers(1, 12), n_t=st.integers(1, 12), r=st.integers(1, 3),
        p=st.integers(1, 60), c=st.floats(0.1, 5.0), lam=st.floats(0.05, 20.0),
        dx=st.floats(0.01, 1.0), dt=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_finite_draw_or_typed_error(self, n_x, n_t, r, p, c, lam, dx, dt):
        params = StouParams.natural(lam=lam, c=c, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=n_x, n_t=n_t, dx=dx, dt=dt)
        config = GridSimConfig(truncation_p=p, cells_per_obs_cell=r)
        # a wide cone (c p r dt / dx up to 90,000) would need 3.8e7 noise cells; a budget
        # of 2^20 keeps every example small and makes those BudgetExceeded
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(stou.gridsim, "MAX_NOISE_CELLS", 2**20)
            warnings.simplefilter("ignore", TruncationTooShallow)
            try:
                values = simulate_grid(params, lat, config, np.random.default_rng(0)).values
            except StouError:
                return
        assert values.shape == (n_t, n_x)
        assert np.all(np.isfinite(values))
