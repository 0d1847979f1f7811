import math
import warnings

import numpy as np
import pytest
from scipy.signal import correlate

from stou import GridSimConfig, Lattice, StouParams, cone_cell_areas, simulate_grid
from stou.errors import TruncationTooShallow
from stou.gridsim import _grid_plan


def deterministic_params(mu=0.4) -> StouParams:
    # vanishing seed variance isolates the Riemann-sum mean
    return StouParams(lam=1.0, c_tilde=1.0, sigma2=1e-30, mu=mu)


def linear_correlation_grid(params, lattice, config, rng):
    """The grid field by direct linear correlation over the full noise
    array, kept as the oracle for the cached-spectrum simulator."""
    r = config.cells_per_obs_cell
    dt_m, dx_m = lattice.dt / r, lattice.dx / r
    n_steps = config.truncation_p * r
    areas = cone_cell_areas(params.c, dt_m, dx_m, n_steps)
    weights = np.exp(-params.lam * (np.arange(n_steps) + 0.5) * dt_m)
    mean_part = params.mu_seed * float(weights @ areas.sum(axis=1))
    z = rng.standard_normal(
        ((lattice.n_t - 1) * r + n_steps, (lattice.n_x - 1) * r + areas.shape[1])
    )
    kernel = np.sqrt(params.tau2 * areas) * weights[:, None]
    return mean_part + correlate(z, kernel[::-1], mode="valid")[::r, ::r]


class TestGridSimConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GridSimConfig(truncation_p=0)
        with pytest.raises(ValueError):
            GridSimConfig(truncation_p=10, cells_per_obs_cell=0)

    def test_defaults(self):
        cfg = GridSimConfig(truncation_p=300)
        assert cfg.cells_per_obs_cell == 1


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
