import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stou import (
    AcfEstimate,
    DegenerateSample,
    FieldSample,
    InsufficientUsableLags,
    Lattice,
    StouParams,
    empirical_acf,
    fit_mm,
    mm_from_moments,
)

from stou.mm import _fit_stack

from conftest import exact_fields_in_turn


def make_field(values) -> FieldSample:
    values = np.asarray(values, dtype=float)
    lat = Lattice(n_x=values.shape[1], n_t=values.shape[0], dx=0.05, dt=0.05)
    return FieldSample(lattice=lat, values=values)


def exact_acfs(lam, c_tilde, dt, dx, max_lag=5):
    lags = np.arange(1, max_lag + 1)
    acf_t = AcfEstimate(axis="temporal", lags=lags, values=np.exp(-lam * lags * dt))
    acf_x = AcfEstimate(axis="spatial", lags=lags, values=np.exp(-c_tilde * lags * dx))
    return acf_t, acf_x


class TestAcfEstimate:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="^axis: must be one of "):
            AcfEstimate(axis="diagonal", lags=[1], values=[0.5])
        field = make_field(np.random.default_rng(0).normal(size=(4, 4)))
        with pytest.raises(ValueError, match="^axis: must be one of "):
            empirical_acf(field, "diagonal", 2)

    def test_rejects_non_increasing_lags(self):
        message = r"^lags: must be positive and strictly increasing, got "
        with pytest.raises(ValueError, match=message + r"\[1 1\]$"):
            AcfEstimate(axis="temporal", lags=[1, 1], values=[0.5, 0.4])
        with pytest.raises(ValueError, match=message + r"\[0 1\]$"):
            AcfEstimate(axis="temporal", lags=[0, 1], values=[0.5, 0.4])

    def test_rejects_lags_and_values_of_other_shapes(self):
        with pytest.raises(ValueError,
                           match="^lags, values: must be 1-d arrays of equal length$"):
            AcfEstimate(axis="temporal", lags=[1, 2], values=[0.5])

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match=r"^values: must lie in \[-1, 1\], got \[1\.5\]$"):
            AcfEstimate(axis="spatial", lags=[1], values=[1.5])


class TestEmpiricalAcf:
    def test_perfect_temporal_persistence(self):
        # constant along time, varying in space: temporal ACF exactly 1
        row = np.arange(5.0)
        field = make_field(np.tile(row, (6, 1)))
        acf = empirical_acf(field, "temporal", 3)
        np.testing.assert_array_equal(acf.values, 1.0)

    def test_single_spike_is_nearly_uncorrelated(self):
        values = np.zeros((10, 10))
        values[4, 6] = 1.0
        field = make_field(values)
        for axis in ("temporal", "spatial"):
            acf = empirical_acf(field, axis, 3)
            assert np.all(np.abs(acf.values) < 0.05)

    def test_constant_field_degenerate(self):
        field = make_field(np.full((4, 4), 2.5))
        with pytest.raises(DegenerateSample):
            empirical_acf(field, "temporal", 2)

    def test_max_lag_bounds(self):
        field = make_field(np.random.default_rng(0).normal(size=(4, 4)))
        with pytest.raises(ValueError):
            empirical_acf(field, "temporal", 0)
        with pytest.raises(ValueError):
            empirical_acf(field, "temporal", 4)
        with pytest.raises(ValueError,
                           match=r"^max_lag: must be an integer from 1 to 3, got 2\.5$"):
            empirical_acf(field, "temporal", 2.5)

    def test_replication_average_tracks_model(self):
        # coarse spatial spacing keeps the full-sample mean accurate, so
        # the finite-sample bias of the lag-1 value stays inside 0.01
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=61, n_t=61, dx=1.0, dt=0.05)
        rng = np.random.default_rng(11)
        vals = [
            empirical_acf(field, "temporal", 1).values[0]
            for field in exact_fields_in_turn(p, lat, rng, 500)
        ]
        assert abs(np.mean(vals) - math.exp(-0.05)) < 0.01


class TestMmFromMoments:
    def test_population_exact_inputs_invert(self):
        truth = StouParams.natural(lam=1.7, c=0.8, mu_seed=-0.3, tau2=0.02)
        acf_t, acf_x = exact_acfs(truth.lam, truth.c_tilde, 0.05, 0.05)
        fitted = mm_from_moments(acf_t, acf_x, truth.mu, truth.sigma2, 0.05, 0.05)
        assert fitted.lam == pytest.approx(truth.lam, rel=1e-10)
        assert fitted.c == pytest.approx(truth.c, rel=1e-10)
        assert fitted.mu_seed == pytest.approx(truth.mu_seed, rel=1e-10)
        assert fitted.tau2 == pytest.approx(truth.tau2, rel=1e-10)

    @given(
        lam=st.floats(min_value=0.05, max_value=20.0),
        c=st.floats(min_value=0.05, max_value=20.0),
        mu_seed=st.floats(min_value=-5.0, max_value=5.0),
        tau2=st.floats(min_value=1e-4, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_inversion_roundtrip_property(self, lam, c, mu_seed, tau2):
        truth = StouParams.natural(lam=lam, c=c, mu_seed=mu_seed, tau2=tau2)
        # keep exp(-lam h dt) comfortably inside (0, 1) for all lags
        dt = min(0.05, 1.0 / lam)
        dx = min(0.05, 1.0 / truth.c_tilde)
        acf_t, acf_x = exact_acfs(truth.lam, truth.c_tilde, dt, dx)
        fitted = mm_from_moments(acf_t, acf_x, truth.mu, truth.sigma2, dt, dx)
        assert fitted.lam == pytest.approx(truth.lam, rel=1e-9)
        assert fitted.c_tilde == pytest.approx(truth.c_tilde, rel=1e-9)

    def test_degenerate_variance_rejected(self):
        acf_t, acf_x = exact_acfs(1.0, 1.0, 0.05, 0.05)
        with pytest.raises(DegenerateSample,
                           match=r"^var: must be a finite sample variance > 0, got 0\.0$"):
            mm_from_moments(acf_t, acf_x, 0.4, 0.0, 0.05, 0.05)
        with pytest.raises(DegenerateSample,
                           match=r"^var: must be a finite sample variance > 0, got inf$"):
            mm_from_moments(acf_t, acf_x, 0.4, math.inf, 0.05, 0.05)


class TestFitMm:
    @pytest.mark.parametrize("max_lag", [2.5, -1, 0, True])
    def test_max_lag_is_an_integer_from_1(self, max_lag):
        # named, where numpy would raise a bare TypeError or "negative
        # dimensions", or the fit an InsufficientUsableLags for using no lag
        field = make_field(np.random.default_rng(0).normal(size=(6, 6)))
        message = f"^max_lag: must be an integer >= 1, got {max_lag!r}$"
        with pytest.raises(ValueError, match=message):
            fit_mm(field, max_lag=max_lag)

    def test_requires_two_points_per_axis(self):
        field = make_field(np.random.default_rng(0).normal(size=(1, 8)) * 0 + np.arange(8.0))
        with pytest.raises(ValueError, match=r"^field: must have at least 2 points on each "
                                             r"axis, got \(1, 8\)$"):
            fit_mm(field)

    def test_unusable_acf_raises(self):
        # alternating in time and constant in space: temporal ACF is
        # -1, +1, ... and spatial ACF is 1 at all lags
        values = np.where(np.arange(8)[:, None] % 2 == 0, 1.0, -1.0)
        field = make_field(np.tile(values, (1, 6)))
        with pytest.raises(InsufficientUsableLags):
            fit_mm(field)

    def test_max_lag_clamped_to_extent(self, small_field):
        lat = Lattice(n_x=3, n_t=9, dx=0.05, dt=0.05)
        field = FieldSample(lattice=lat, values=small_field.values[:9, :3])
        assert fit_mm(field, max_lag=5000) == fit_mm(field, max_lag=8)

    def test_scale_equivariance_exact(self, small_field):
        base = fit_mm(small_field)
        scaled = fit_mm(
            FieldSample(lattice=small_field.lattice, values=2.0 * small_field.values)
        )
        assert scaled.lam == base.lam
        assert scaled.c == base.c
        assert scaled.mu == 2.0 * base.mu
        assert scaled.sigma2 == 4.0 * base.sigma2
        assert scaled.mu_seed == 2.0 * base.mu_seed
        assert scaled.tau2 == 4.0 * base.tau2

    def test_shift_changes_only_the_mean_fits(self, small_field):
        base = fit_mm(small_field)
        shifted = fit_mm(
            FieldSample(lattice=small_field.lattice, values=small_field.values + 1.5)
        )
        assert shifted.lam == pytest.approx(base.lam, rel=1e-9)
        assert shifted.c_tilde == pytest.approx(base.c_tilde, rel=1e-9)
        assert shifted.sigma2 == pytest.approx(base.sigma2, rel=1e-9)
        assert shifted.mu == pytest.approx(base.mu + 1.5, rel=1e-9)

    def test_equals_the_fit_from_its_parts_bitwise(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n_t, n_x = (int(v) for v in rng.integers(2, 30, size=2))
            values = rng.normal(rng.uniform(-5, 5), 10 ** rng.uniform(-3, 3), size=(n_t, n_x))
            values += np.cumsum(rng.normal(size=(n_t, n_x)), axis=0)  # some temporal persistence
            field = make_field(values)
            max_lag = int(rng.integers(1, 8))
            try:
                expected = mm_from_moments(
                    empirical_acf(field, "temporal", min(max_lag, n_t - 1)),
                    empirical_acf(field, "spatial", min(max_lag, n_x - 1)),
                    float(values.mean()), float(values.var()), 0.05, 0.05,
                )
            except InsufficientUsableLags:
                with pytest.raises(InsufficientUsableLags):
                    fit_mm(field, max_lag=max_lag)
                continue
            got = fit_mm(field, max_lag=max_lag)
            for name in ("lam", "c_tilde", "sigma2", "mu"):
                assert getattr(got, name) == getattr(expected, name)

    def test_median_estimate_at_observation_scale(self):
        # strong decay keeps the correlation length well inside the
        # lattice, so the moment fit centres on the truth
        truth = StouParams.natural(lam=4.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=101, n_t=101, dx=0.05, dt=0.05)
        rng = np.random.default_rng(2024)
        lams = [fit_mm(field).lam for field in exact_fields_in_turn(truth, lat, rng, 100)]
        assert abs(np.median(lams) - truth.lam) <= 0.10 * truth.lam


def per_field_fit(values, lattice, max_lag):
    """The moment fit of one (n_t, n_x) field as fit_mm computed it before
    the stacked fit: the field's own mean, deviations and 1/n variance,
    each axis lag's pairs as two slices, then the log-linear rate fits."""
    mean = values.mean()
    dev = values - mean
    var = float(np.mean(dev * dev))
    if var <= 0.0:
        raise DegenerateSample("sample variance is zero")
    acfs = []
    for axis, extent in (("temporal", lattice.n_t), ("spatial", lattice.n_x)):
        lags = min(max_lag, extent - 1)
        acf = np.empty(lags)
        for h in range(1, lags + 1):
            a, b = (dev[:-h], dev[h:]) if axis == "temporal" else (dev[:, :-h], dev[:, h:])
            acf[h - 1] = (a * b).sum() / (a.size * var)
        acfs.append(AcfEstimate(axis, np.arange(1, lags + 1), np.clip(acf, -1.0, 1.0)))
    return mm_from_moments(*acfs, float(mean), var, lattice.dt, lattice.dx)


class TestFitStack:
    # mc_ci refits its B fields as one stack; each slice must get the bits
    # of its own fit, or the same error, and no slice may raise a warning

    @pytest.mark.parametrize("n_t,n_x", [(2, 2), (3, 8), (9, 5), (7, 6), (41, 41)])
    @pytest.mark.parametrize("max_lag", [1, 5, 60])  # 60: above every extent
    def test_each_slice_is_its_own_fit(self, n_t, n_x, max_lag):
        rng = np.random.default_rng(n_t * 100 + n_x)
        values = rng.normal(0.4, 0.1, size=(12, n_t, n_x))
        values += np.cumsum(rng.normal(0.0, 0.05, size=values.shape), axis=1)
        values *= 10.0 ** rng.uniform(-3, 3, size=(12, 1, 1))
        values[3] = 0.5  # zero variance: a power of two sums exactly
        # one spike: every lag's pairs but one or two join two deviations of
        # -1/n, which leaves each ACF value negative, so no lag is usable
        values[5] = 0.0
        values[5, 0, 0] = 1.0
        lattice = Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.07)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = _fit_stack(values, lattice, max_lag)
        assert len(fits) == len(values)
        for field_values, fit in zip(values, fits):
            try:
                expected = per_field_fit(field_values, lattice, max_lag)
            except (DegenerateSample, InsufficientUsableLags) as exc:
                assert type(fit) is type(exc) and str(fit) == str(exc)
                continue
            assert fit == expected
            assert all(type(v) is float for v in (fit.lam, fit.c_tilde, fit.sigma2, fit.mu))
        assert isinstance(fits[3], DegenerateSample) and isinstance(fits[5], InsufficientUsableLags)

    def test_fit_mm_is_the_one_slice_stack(self, small_field):
        (fit,) = _fit_stack(small_field.values[None], small_field.lattice, 5)
        assert fit_mm(small_field) == fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSample, match="^sample variance is zero$"):
                fit_mm(make_field(np.full((4, 5), 0.5)))
