import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stou import (
    DimensionMismatch,
    FieldSample,
    Lattice,
    StouParams,
    corr_canonical,
    derived_moments,
)
from stou.model import _axis_lags


def params(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01) -> StouParams:
    return StouParams.natural(lam=lam, c=c, mu_seed=mu_seed, tau2=tau2)


positive = st.floats(min_value=1e-3, max_value=1e3)
reals = st.floats(min_value=-1e3, max_value=1e3)


class TestCorrCanonical:
    def test_zero_lag(self):
        assert corr_canonical(params(), 0.0, 0.0) == 1.0

    def test_temporal_lag_dominates(self):
        # max(|1|, |0.5| / 1) = 1
        assert corr_canonical(params(), 1.0, 0.5) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_spatial_lag_dominates(self):
        # max(0.3, 0.4 / 0.5) = 0.8, times lam = 2
        assert corr_canonical(params(lam=2.0, c=0.5), 0.3, 0.4) == pytest.approx(
            math.exp(-1.6), abs=1e-12
        )

    def test_sign_symmetric(self):
        p = params(lam=1.3, c=0.7)
        base = corr_canonical(p, 0.4, 0.6)
        assert corr_canonical(p, -0.4, 0.6) == base
        assert corr_canonical(p, 0.4, -0.6) == base
        assert corr_canonical(p, -0.4, -0.6) == base

    def test_vectorized(self):
        p = params()
        d_t = np.array([0.0, 1.0, 2.0])
        out = corr_canonical(p, d_t, 0.0)
        assert out.shape == (3,)
        np.testing.assert_allclose(out, np.exp(-d_t))


class TestCorrShared:
    @pytest.mark.parametrize("corr", [corr_canonical])
    def test_in_unit_interval_and_one_only_at_origin(self, corr):
        p = params(lam=0.8, c=1.7)
        lags = [0.0, 1e-6, 0.3, 2.0, 50.0]
        for d_t in lags:
            for d_x in lags:
                v = corr(p, d_t, d_x)
                assert 0.0 < v <= 1.0
                assert (v == 1.0) == (d_t == 0.0 and d_x == 0.0)

    @pytest.mark.parametrize("corr", [corr_canonical])
    def test_monotone_in_each_lag(self, corr):
        p = params(lam=1.2, c=0.6)
        grid = np.linspace(0.0, 3.0, 13)
        along_t = corr(p, grid, 0.7)
        along_x = corr(p, 0.7, grid)
        assert np.all(np.diff(along_t) <= 0)
        assert np.all(np.diff(along_x) <= 0)


class TestDerivedMoments:
    def test_paper_setup(self):
        assert derived_moments(1.0, 1.0, 0.2, 0.01) == pytest.approx((0.4, 0.005))

    def test_doubled_decay(self):
        assert derived_moments(2.0, 1.0, 0.2, 0.01) == pytest.approx((0.1, 0.00125))

    def test_zero_seed_mean(self):
        mu, sigma2 = derived_moments(1.0, 1.0, 0.0, 0.01)
        assert mu == 0.0
        assert sigma2 == pytest.approx(0.005)


class TestStouParams:
    @given(lam=positive, c=positive, mu_seed=reals, tau2=positive)
    @settings(max_examples=200)
    def test_natural_roundtrip(self, lam, c, mu_seed, tau2):
        p = StouParams.natural(lam=lam, c=c, mu_seed=mu_seed, tau2=tau2)
        assert p.lam == lam
        assert p.c == pytest.approx(c, rel=1e-12)
        assert p.tau2 == pytest.approx(tau2, rel=1e-12)
        assert p.mu_seed == pytest.approx(mu_seed, rel=1e-12, abs=1e-15)

    def test_canonical_storage_consistent(self):
        p = params(lam=2.0, c=4.0)
        assert p.c_tilde == pytest.approx(0.5)
        mu, sigma2 = derived_moments(2.0, 4.0, 0.2, 0.01)
        assert p.mu == pytest.approx(mu)
        assert p.sigma2 == pytest.approx(sigma2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0, "c_tilde": 1.0, "sigma2": 1.0, "mu": 0.0},
            {"lam": 1.0, "c_tilde": -2.0, "sigma2": 1.0, "mu": 0.0},
            {"lam": 1.0, "c_tilde": 1.0, "sigma2": 0.0, "mu": 0.0},
            {"lam": 1.0, "c_tilde": 1.0, "sigma2": 1.0, "mu": math.nan},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            StouParams(**kwargs)

    def test_natural_rejects_nonpositive_c_and_tau2(self):
        with pytest.raises(ValueError):
            StouParams.natural(lam=1.0, c=0.0, mu_seed=0.2, tau2=0.01)
        with pytest.raises(ValueError):
            StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=-1.0)

    @pytest.mark.parametrize("lam,c,mu_seed,tau2,message", [
        (0.0, 1.0, 0.0, 1.0, "lam: must be finite and > 0, got 0.0"),
        (math.nan, 1.0, 0.2, 0.01, "lam: must be finite and > 0, got nan"),
        (1.0, 1.0, math.inf, 0.01, "mu_seed: must be finite, got inf"),
        (1.0, 1.0, 10**400, 0.01, "mu_seed: must be finite, got 1000"),
        (10**400, 1.0, 0.2, 0.01, "lam: must be finite and > 0, got 1000"),
        # lam**2 underflows to 0, overflows, or the variance underflows to 0
        (1e-200, 1.0, 0.2, 0.01, "lam: 1e-200 implies a stationary mean"),
        (1e200, 1.0, 0.2, 0.01, "lam: 1e+200 implies a stationary mean"),
        (1e100, 1.0, 0.2, 1e-300, "lam: 1e+100 implies a stationary mean"),
        # c_tilde = lam / c overflows
        (1e10, 1e-300, 0.2, 0.01, "lam: 10000000000.0 implies a stationary mean"),
    ], ids=["lam-0", "lam-nan", "mu_seed-inf", "mu_seed-int-beyond-float", "lam-int-beyond-float",
            "lam-squared-underflows", "lam-squared-overflows", "variance-underflows",
            "c_tilde-overflows"])
    def test_natural_names_the_argument_out_of_bounds(self, lam, c, mu_seed, tau2, message):
        # a ValueError, never a bare ZeroDivisionError or OverflowError
        with pytest.raises(ValueError) as info:
            StouParams.natural(lam=lam, c=c, mu_seed=mu_seed, tau2=tau2)
        assert str(info.value).startswith(message)


class TestLattice:
    def test_counts_and_shape(self):
        lat = Lattice(n_x=3, n_t=5, dx=0.1, dt=0.2)
        assert lat.n == 15
        assert lat.shape == (5, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_x": 0, "n_t": 2, "dx": 0.1, "dt": 0.1},
            {"n_x": 2, "n_t": -1, "dx": 0.1, "dt": 0.1},
            {"n_x": 2, "n_t": 2, "dx": 0.0, "dt": 0.1},
            {"n_x": 2, "n_t": 2, "dx": 0.1, "dt": math.inf},
            {"n_x": 2.5, "n_t": 2, "dx": 0.1, "dt": 0.1},
            {"n_x": 2, "n_t": 2, "dx": "0.1", "dt": 0.1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Lattice(**kwargs)

    @pytest.mark.parametrize("value", [True, np.bool_(True)])
    def test_refuses_a_bool_count(self, value):
        # bool subclasses int, but True is no lattice size
        with pytest.raises(ValueError, match=r"^n_x: must be an integer >= 1, got (np\.)?True"):
            Lattice(n_x=value, n_t=2, dx=0.1, dt=0.1)

    def test_axis_lags_temporal_first_and_only_with_pairs(self):
        # n_t = 5 has temporal lags up to 4 and n_x = 3 spatial lags up to 2;
        # the CL sums run in this order, so it fixes their last bits
        lat = Lattice(n_x=3, n_t=5, dx=0.1, dt=0.2)
        assert _axis_lags(lat, 6, 6) == [
            (1, 0, 1 * 0.2, 0.0, 12), (2, 0, 2 * 0.2, 0.0, 9), (3, 0, 3 * 0.2, 0.0, 6),
            (4, 0, 4 * 0.2, 0.0, 3), (0, 1, 0.0, 1 * 0.1, 10), (0, 2, 0.0, 2 * 0.1, 5),
        ]
        assert _axis_lags(lat, 2, 0) == [(1, 0, 0.2, 0.0, 12), (2, 0, 0.4, 0.0, 9)]
        assert _axis_lags(lat, 0, 1) == [(0, 1, 0.0, 0.1, 10)]
        # a validated cutoff_d has no upper bound: one beyond the lattice costs nothing
        assert _axis_lags(lat, 10**18, 10**18) == _axis_lags(lat, 6, 6)


class TestFieldSample:
    def test_rejects_wrong_shape(self):
        lat = Lattice(n_x=3, n_t=2, dx=1.0, dt=1.0)
        with pytest.raises(DimensionMismatch):
            FieldSample(lattice=lat, values=np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        lat = Lattice(n_x=2, n_t=2, dx=1.0, dt=1.0)
        values = np.zeros((2, 2))
        values[0, 1] = math.nan
        with pytest.raises(ValueError):
            FieldSample(lattice=lat, values=values)
