import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stou.bootstrap
from stou import (
    FailureRateExceeded,
    FieldSample,
    GridSimConfig,
    IntervalEstimate,
    InsufficientUsableLags,
    Lattice,
    REPORT_PARAMS,
    StouParams,
    build_covariance,
    cholesky_factor,
    coverage_experiment,
    coverage_proxy,
    mc_ci,
    params_to_report,
    quantile_interval,
)


class TestQuantileInterval:
    def test_interpolated_endpoints(self):
        # positions 1 + 4q on the sorted sample
        assert quantile_interval([1, 2, 3, 4, 5], 0.95) == pytest.approx((1.1, 3.0, 4.9))

    def test_degenerate_sample(self):
        lo, med, hi = quantile_interval([2.0] * 30, 0.95)
        assert lo == med == hi == 2.0

    def test_zero_level_collapses_to_median(self):
        lo, med, hi = quantile_interval([1, 2, 3, 4, 5], 0.0)
        assert lo == med == hi == 3.0

    def test_matches_numpy_linear_quantiles(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=37)
        lo, med, hi = quantile_interval(values, 0.9)
        assert lo == np.quantile(values, 0.05)
        assert med == np.quantile(values, 0.5)
        assert hi == np.quantile(values, 0.95)


class TestIntervalEstimate:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntervalEstimate(
                parameter="lambda", point=1.0, lower=2.0, upper=1.5, median=1.7, level=0.95
            )

    def test_contains_is_inclusive(self):
        iv = IntervalEstimate(
            parameter="lambda", point=1.0, lower=0.5, upper=1.5, median=1.0, level=0.95
        )
        assert iv.contains(0.5) and iv.contains(1.5) and iv.contains(1.0)
        assert not iv.contains(0.49) and not iv.contains(1.51)


class TestParamsToReport:
    def test_covers_reported_names(self):
        p = StouParams.natural(lam=2.0, c=0.5, mu_seed=0.1, tau2=0.04)
        rep = params_to_report(p)
        assert set(rep) == set(REPORT_PARAMS)
        assert rep["lambda"] == p.lam
        assert rep["c"] == pytest.approx(0.5)
        assert rep["tau"] == pytest.approx(0.2)
        assert rep["sigma2"] == pytest.approx(p.sigma2)


class TestMcCi:
    def test_validations(self, small_field):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            mc_ci(small_field, B=19, level=0.95, simulator="exact", rng=rng)
        with pytest.raises(ValueError):
            mc_ci(small_field, B=20, level=1.0, simulator="exact", rng=rng)
        with pytest.raises(ValueError):
            mc_ci(small_field, B=20, level=0.95, simulator="series", rng=rng)

    def test_reproducible_bitwise(self, small_field):
        a = mc_ci(small_field, B=24, level=0.9, simulator="exact", rng=np.random.default_rng(9))
        b = mc_ci(small_field, B=24, level=0.9, simulator="exact", rng=np.random.default_rng(9))
        for name in REPORT_PARAMS:
            assert a.intervals[name] == b.intervals[name]
            np.testing.assert_array_equal(a.estimates[name], b.estimates[name])

    def test_interval_shape(self, small_field):
        res = mc_ci(small_field, B=24, level=0.9, simulator="exact", rng=np.random.default_rng(9))
        assert res.n_boot == 24 and res.n_failed == 0
        for name in REPORT_PARAMS:
            iv = res.intervals[name]
            assert iv.lower <= iv.median <= iv.upper
            assert len(res.estimates[name]) == 24

    def test_scale_equivariance_bitwise(self, small_field):
        doubled = FieldSample(lattice=small_field.lattice, values=2.0 * small_field.values)
        a = mc_ci(small_field, B=24, level=0.9, simulator="exact", rng=np.random.default_rng(5))
        b = mc_ci(doubled, B=24, level=0.9, simulator="exact", rng=np.random.default_rng(5))
        # decay rates are scale-free; mean scales by 2, variance by 4
        np.testing.assert_array_equal(a.estimates["lambda"], b.estimates["lambda"])
        np.testing.assert_array_equal(a.estimates["c"], b.estimates["c"])
        np.testing.assert_array_equal(2.0 * a.estimates["mu"], b.estimates["mu"])
        np.testing.assert_array_equal(4.0 * a.estimates["sigma2"], b.estimates["sigma2"])

    def test_grid_simulator_smoke(self, small_field):
        res = mc_ci(
            small_field, B=20, level=0.9, simulator="grid",
            rng=np.random.default_rng(2), grid_config=GridSimConfig(truncation_p=300),
        )
        assert res.n_failed == 0
        assert res.intervals["lambda"].lower < res.intervals["lambda"].upper

    def test_failed_refits_counted_then_fatal(self, small_field, monkeypatch):
        real_fit = stou.bootstrap.fit_mm
        calls = {"n": 0}

        def flaky_fit(field, max_lag=5):
            calls["n"] += 1
            # first call fits the observed field; every later call is a
            # bootstrap refit
            if calls["n"] in (3, 4):
                raise InsufficientUsableLags("synthetic failure")
            return real_fit(field, max_lag=max_lag)

        monkeypatch.setattr(stou.bootstrap, "fit_mm", flaky_fit)
        res = mc_ci(small_field, B=24, level=0.9, simulator="exact", rng=np.random.default_rng(1))
        assert res.n_failed == 2
        assert len(res.estimates["lambda"]) == 22

        def dead_fit(field, max_lag=5):
            calls["n"] += 1
            if calls["n"] > 1:
                raise InsufficientUsableLags("synthetic failure")
            return real_fit(field, max_lag=max_lag)

        calls["n"] = 0
        monkeypatch.setattr(stou.bootstrap, "fit_mm", dead_fit)
        with pytest.raises(FailureRateExceeded):
            mc_ci(small_field, B=24, level=0.9, simulator="exact", rng=np.random.default_rng(1))


class TestCoverageProxy:
    def test_identical_estimates_always_covered(self):
        assert coverage_proxy(np.full(40, 1.7), 1.7) == 1.0

    def test_symmetric_sample_tracks_level(self):
        estimates = np.linspace(0.0, 1.0, 100)
        proxy = coverage_proxy(estimates, 0.5, level=0.95)
        assert proxy == pytest.approx(0.95, abs=0.02)

    def test_affine_invariant(self):
        rng = np.random.default_rng(3)
        estimates = rng.integers(0, 1000, size=50) / 64.0
        theta_e = float(np.median(estimates))
        base = coverage_proxy(estimates, theta_e)
        shifted = coverage_proxy(2.0 * estimates + 1.0, 2.0 * theta_e + 1.0)
        assert base == shifted

    @given(
        data=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=20, max_size=60
        ),
        q=st.floats(min_value=0.0, max_value=0.99),
        level=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=100)
    def test_always_a_proportion(self, data, q, level):
        estimates = np.asarray(data)
        theta_e = float(np.quantile(estimates, q))
        proxy = coverage_proxy(estimates, theta_e, level=level)
        assert 0.0 <= proxy <= 1.0

    def test_requires_enough_estimates(self):
        with pytest.raises(ValueError):
            coverage_proxy(np.arange(10.0), 5.0)

    def test_accepts_the_fewest_estimates_mc_ci_returns(self):
        # B = 20 with the tolerated two failed refits leaves 18
        assert stou.bootstrap.MIN_ESTIMATES == 18
        assert 0.0 <= coverage_proxy(np.arange(18.0), 9.0) <= 1.0
        with pytest.raises(ValueError):
            coverage_proxy(np.arange(17.0), 9.0)


class TestCoverageDataset:
    @pytest.mark.parametrize("failing_calls", [(3,), (3, 4)])
    def test_tolerated_refit_failures_still_give_proxies(
        self, base_params, small_lattice, monkeypatch, failing_calls
    ):
        factor = cholesky_factor(build_covariance(base_params, small_lattice))
        real_fit = stou.bootstrap.fit_mm
        calls = {"n": 0}

        def flaky_fit(field, max_lag=5):
            calls["n"] += 1
            # call 1 fits the observed field; later calls are refits
            if calls["n"] in failing_calls:
                raise InsufficientUsableLags("synthetic failure")
            return real_fit(field, max_lag=max_lag)

        monkeypatch.setattr(stou.bootstrap, "fit_mm", flaky_fit)
        data_rng, boot_rng = np.random.default_rng(3).spawn(2)
        intervals, proxies = stou.bootstrap.coverage_dataset(
            base_params, factor, small_lattice, 20, 0.9, "exact", data_rng, boot_rng,
        )
        assert calls["n"] == 21
        assert set(intervals) == set(proxies) == set(REPORT_PARAMS)
        assert all(0.0 <= v <= 1.0 for v in proxies.values())


class TestCoverageExperiment:
    def test_validations(self, base_params, small_lattice):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            coverage_experiment(
                base_params, small_lattice, n_datasets=5, B=20, level=0.95,
                simulator="exact", rng=rng,
            )
        with pytest.raises(ValueError):
            coverage_experiment(
                base_params, small_lattice, n_datasets=10, B=20, level=0.95,
                simulator="exact", data_simulator="grid", rng=rng,
            )
        with pytest.raises(ValueError):
            coverage_experiment(
                base_params, small_lattice, n_datasets=10, B=20, level=0.95,
                simulator="exact",
            )

    def test_report_shape_and_reproducibility(self, base_params):
        lat = Lattice(n_x=15, n_t=15, dx=0.05, dt=0.05)
        kwargs = dict(n_datasets=10, B=20, level=0.9, simulator="exact")
        a = coverage_experiment(base_params, lat, rng=np.random.default_rng(31), **kwargs)
        b = coverage_experiment(base_params, lat, rng=np.random.default_rng(31), **kwargs)
        assert a.level == 0.9 and a.n_datasets == 10
        assert set(a.entries) == set(REPORT_PARAMS)
        for name in REPORT_PARAMS:
            ea, eb = a.entries[name], b.entries[name]
            assert ea.n + len(a.failures) == 10
            assert ea.hits <= ea.n
            assert ea.coverage == pytest.approx(ea.hits / ea.n)
            assert ea.se == pytest.approx(
                math.sqrt(ea.coverage * (1.0 - ea.coverage) / ea.n)
            )
            assert 0.0 <= ea.mean_proxy <= 1.0
            assert (ea.coverage, ea.mean_proxy, ea.proxy_se) == (
                eb.coverage, eb.mean_proxy, eb.proxy_se,
            )
