import concurrent.futures
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stou.bootstrap
import stou.cholesky
import stou.experiment
from stou import (
    BudgetExceeded,
    CoverageEntry,
    CoverageReport,
    ExperimentConfig,
    FailureRateExceeded,
    FieldSample,
    GridSimConfig,
    IntervalEstimate,
    InsufficientUsableLags,
    Lattice,
    NotPositiveDefinite,
    REPORT_PARAMS,
    StouParams,
    build_covariance,
    cholesky_factor,
    coverage_experiment,
    coverage_proxy,
    fit_mm,
    mc_ci,
    params_to_report,
    quantile_interval,
    run,
)
from stou.errors import CovarianceJitter, StouError

from conftest import exact_field, fail_refits, per_draw_field


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
        with pytest.raises(ValueError, match=r"^level: must be in \[0, 1\), got 1.0$"):
            mc_ci(small_field, B=20, level=1.0, simulator="exact", rng=rng)
        with pytest.raises(ValueError, match="^simulator: must be 'exact' or 'grid', got 'ser"):
            mc_ci(small_field, B=20, level=0.95, simulator="series", rng=rng)
        with pytest.raises(ValueError, match="B: must be an integer"):
            mc_ci(small_field, B=20.5, level=0.95, simulator="exact", rng=rng)

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

    def test_grid_noise_beyond_budget_is_a_typed_error(self, small_field, monkeypatch):
        # a slowly decaying fit takes a deep default kernel: at lam = 0.01 the
        # noise array would be 18500 x 36980 cells; resolving the depth
        # raises, before any draw or refit
        slow = StouParams.natural(lam=0.01, c=1.0, mu_seed=0.2, tau2=0.01)
        fits = []

        def slow_fit(field, max_lag=5):
            fits.append(field)
            return slow

        monkeypatch.setattr(stou.bootstrap, "fit_mm", slow_fit)
        with pytest.raises(BudgetExceeded):
            mc_ci(small_field, B=20, level=0.9, simulator="grid", rng=np.random.default_rng(0))
        assert len(fits) == 1

    def test_grid_default_depth_is_the_fitted_models(self, small_field, monkeypatch):
        # no grid_config draws at p = ceil(9.24 / (lam dt)) for the fitted lam,
        # resolved once: every draw is given that depth, and it is returned
        depth = math.ceil(9.24 / (fit_mm(small_field).lam * small_field.lattice.dt))
        depths = []
        real_simulate_grid = stou.bootstrap.simulate_grid

        def recording(params, lattice, config, rng):
            depths.append(config.truncation_p)
            return real_simulate_grid(params, lattice, config, rng)

        monkeypatch.setattr(stou.bootstrap, "simulate_grid", recording)
        a = mc_ci(small_field, 20, 0.9, "grid", np.random.default_rng(4))
        assert all(isinstance(p, int) for p in depths)
        assert depths == [depth] * 20 and a.grid_depth == depth
        b = mc_ci(small_field, 20, 0.9, "grid", np.random.default_rng(4),
                  grid_config=GridSimConfig(truncation_p=depth))
        assert a.intervals == b.intervals and a.n_failed == b.n_failed
        for name in REPORT_PARAMS:
            np.testing.assert_array_equal(a.estimates[name], b.estimates[name])
        given = mc_ci(small_field, 20, 0.9, "grid", np.random.default_rng(4),
                      grid_config=GridSimConfig(truncation_p=40))
        assert given.grid_depth == 40 and depths[-20:] == [40] * 20
        assert mc_ci(small_field, 20, 0.9, "exact", np.random.default_rng(4)).grid_depth is None

    def test_failed_refits_counted_then_fatal(self, small_field, monkeypatch):
        # replications 1 and 2 fail; the others keep their estimates, in order
        clean = mc_ci(small_field, B=24, level=0.9, simulator="exact",
                      rng=np.random.default_rng(1))
        sizes = fail_refits(monkeypatch, (1, 2))
        res = mc_ci(small_field, B=24, level=0.9, simulator="exact", rng=np.random.default_rng(1))
        assert sizes == [24]
        assert res.n_failed == 2
        assert len(res.estimates["lambda"]) == 22
        for name in REPORT_PARAMS:
            np.testing.assert_array_equal(res.estimates[name],
                                          np.delete(clean.estimates[name], [1, 2]))

        fail_refits(monkeypatch, range(24))
        with pytest.raises(FailureRateExceeded, match="^24 of 24 bootstrap refits failed$"):
            mc_ci(small_field, B=24, level=0.9, simulator="exact", rng=np.random.default_rng(1))


def per_draw_mc_ci(field, B, level, rng, max_lag=5):
    """mc_ci's exact branch written the per-draw way: the fitted model's
    factor, its rows applied to each spawned stream's normals, then
    fit_mm on each field.  Returns the intervals, the estimates and the
    replications whose refit failed."""
    fitted = fit_mm(field, max_lag=max_lag)
    cov = build_covariance(fitted, field.lattice)
    rows = cholesky_factor(cov)
    reports, failed = [], []
    for i, stream in enumerate(rng.spawn(B)):
        sim = FieldSample(lattice=field.lattice,
                          values=per_draw_field(cov.basis, rows, fitted.mu, stream))
        try:
            reports.append(params_to_report(fit_mm(sim, max_lag=max_lag)))
        except StouError:
            failed.append(i)
    estimates = {name: np.array([r[name] for r in reports]) for name in REPORT_PARAMS}
    points = params_to_report(fitted)
    intervals = {}
    for name in REPORT_PARAMS:
        lo, med, hi = quantile_interval(estimates[name], level)
        intervals[name] = IntervalEstimate(name, points[name], lo, hi, med, level)
    return intervals, estimates, failed


class TestExactDrawEqualsPerDrawLoop:
    # mc_ci draws its B exact fields in one pass over the fitted model's
    # recursion, each predictor row meeting them in one GEMM, and refits
    # them in one stack.  A GEMM column's bits depend on the number of
    # columns, so the estimates agree with the per-draw loop's to rounding;
    # the same replications must fail

    @staticmethod
    def _field(base_params, n_x, n_t, seed):
        lattice = Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.05)
        return exact_field(base_params, lattice, np.random.default_rng(seed))

    @staticmethod
    def _mc_ci(monkeypatch, *args):
        """mc_ci(*args), and the replications whose refit failed."""
        real = stou.bootstrap._fit_stack
        failed = []

        def recording(values, lattice, max_lag):
            fits = real(values, lattice, max_lag)
            failed.extend(i for i, fit in enumerate(fits) if isinstance(fit, StouError))
            return fits

        monkeypatch.setattr(stou.bootstrap, "_fit_stack", recording)
        return mc_ci(*args), failed

    @staticmethod
    def _assert_agrees(got, expected):
        (result, failed), (intervals, estimates, expected_failed) = got, expected
        assert result.n_failed == len(expected_failed) and failed == expected_failed
        assert result.intervals.keys() == intervals.keys()
        for name, interval in intervals.items():
            got_interval = result.intervals[name]
            assert got_interval.point == interval.point
            np.testing.assert_allclose(
                [got_interval.lower, got_interval.median, got_interval.upper],
                [interval.lower, interval.median, interval.upper], rtol=1e-12, atol=0)
            np.testing.assert_allclose(result.estimates[name], estimates[name], rtol=1e-12,
                                       atol=0)

    @pytest.mark.parametrize("n_x,n_t,B,seed", [
        (4, 4, 20, 0),  # a pass takes at most 7 fields: three passes, one refit fails
        (7, 6, 30, 2),  # odd n_x, whose odd part has a padding column; two refits fail
        (15, 15, 100, 0),  # two passes of at most 71
    ])
    def test_equals_the_per_draw_loop(self, base_params, monkeypatch, n_x, n_t, B, seed):
        field = self._field(base_params, n_x, n_t, seed)
        expected = per_draw_mc_ci(field, B, 0.9, np.random.default_rng(seed + 100))
        got = self._mc_ci(monkeypatch, field, B, 0.9, "exact", np.random.default_rng(seed + 100))
        self._assert_agrees(got, expected)

    @staticmethod
    def _failing_levinson(monkeypatch, failures):
        """Makes the first `failures` recursions raise LinAlgError."""
        real = stou.cholesky._levinson
        tried = []

        def failing(blocks, basis):
            tried.append(1)
            if len(tried) <= failures:
                raise np.linalg.LinAlgError("synthetic failure")
            return real(blocks, basis)

        monkeypatch.setattr(stou.cholesky, "_levinson", failing)
        return tried

    def test_jitter_retry_gives_the_per_draw_bits(self, base_params, monkeypatch):
        field = self._field(base_params, 9, 8, 3)
        self._failing_levinson(monkeypatch, 1)
        with pytest.warns(CovarianceJitter) as per_draw_warnings:
            expected = per_draw_mc_ci(field, 20, 0.9, np.random.default_rng(7))
        self._failing_levinson(monkeypatch, 1)
        with pytest.warns(CovarianceJitter) as one_pass_warnings:
            got = self._mc_ci(monkeypatch, field, 20, 0.9, "exact", np.random.default_rng(7))
        assert len(per_draw_warnings) == len(one_pass_warnings) == 1
        assert str(one_pass_warnings[0].message) == str(per_draw_warnings[0].message)
        self._assert_agrees(got, expected)

    def test_fitted_covariance_that_fails_raises_before_any_refit(self, small_field,
                                                                  monkeypatch):
        tried = self._failing_levinson(monkeypatch, 2)
        fits = []
        real_fit = stou.bootstrap.fit_mm

        def counted(field, max_lag=5):
            fits.append(1)
            return real_fit(field, max_lag=max_lag)

        monkeypatch.setattr(stou.bootstrap, "fit_mm", counted)
        stacks = fail_refits(monkeypatch, ())
        with pytest.warns(CovarianceJitter), pytest.raises(NotPositiveDefinite):
            mc_ci(small_field, 20, 0.9, "exact", np.random.default_rng(0))
        assert len(fits) == 1 and len(tried) == 2 and stacks == []


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

    def test_level_validated(self):
        with pytest.raises(ValueError, match=r"^level: must be in \[0, 1\), got -0.5$"):
            coverage_proxy(np.arange(20.0), 5.0, level=-0.5)

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
        real_fit = stou.bootstrap.fit_mm
        calls = {"n": 0}

        def counted_fit(field, max_lag=5):
            calls["n"] += 1
            return real_fit(field, max_lag=max_lag)

        monkeypatch.setattr(stou.bootstrap, "fit_mm", counted_fit)
        # the refits of replications 1 and 2, which were calls 3 and 4 when
        # each refit was a fit_mm call
        sizes = fail_refits(monkeypatch, [call - 2 for call in failing_calls])
        data_rng, boot_rng = np.random.default_rng(3).spawn(2)
        field = exact_field(base_params, small_lattice, data_rng)
        step = functools.partial(stou.experiment._bootstrap_step, 20, 0.9, "exact", None, 5)
        intervals, proxies, refit_failures, grid_depth = step(base_params, field, boot_rng)
        # one fit of the observed field, then one stacked fit of the 20 refits
        assert calls["n"] == 1 and sizes == [20]
        assert refit_failures == len(failing_calls)
        assert grid_depth is None
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
                simulator="exact",
            )
        with pytest.raises(ValueError, match="n_datasets: must be an integer"):
            coverage_experiment(
                base_params, small_lattice, n_datasets=10.5, B=20, level=0.95,
                simulator="exact", rng=rng,
            )

    @pytest.mark.parametrize("B,level,simulator", [
        (19, 0.95, "exact"), (20, 1.0, "exact"), (20, 0.95, "series"),
        (20.5, 0.95, "exact"),
    ])
    def test_bootstrap_settings_refused_before_any_dataset(
        self, base_params, small_lattice, monkeypatch, B, level, simulator
    ):
        ran = []
        monkeypatch.setattr(stou.experiment, "_dataset_task", ran.append)
        with pytest.raises(ValueError):
            coverage_experiment(base_params, small_lattice, 10, B, level, simulator,
                                rng=np.random.default_rng(0))
        assert ran == []

    @pytest.mark.parametrize("max_lag", [0, 2.5, True])
    def test_max_lag_refused_before_any_field_is_drawn(self, base_params, small_lattice,
                                                       monkeypatch, max_lag):
        # refused before the draw, not after every dataset has failed
        drawn = []
        monkeypatch.setattr(stou.experiment, "simulate_exact", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="^max_lag: must be an integer >= 1, got "):
            coverage_experiment(base_params, small_lattice, 10, 20, 0.95, "exact",
                                rng=np.random.default_rng(0), max_lag=max_lag)
        assert drawn == []

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

    @staticmethod
    def _record_recursions_and_factors(monkeypatch):
        """Lists that grow by one on each Levinson recursion and each
        stou.cholesky.cholesky_factor call."""
        recursions, built = [], []
        real_levinson, real_factor = stou.cholesky._levinson, stou.cholesky.cholesky_factor

        def counted(blocks, basis):
            recursions.append(blocks.shape)
            return real_levinson(blocks, basis)

        def recorded(cov):
            built.append(cov.blocks.shape)
            return real_factor(cov)

        monkeypatch.setattr(stou.cholesky, "_levinson", counted)
        monkeypatch.setattr(stou.cholesky, "cholesky_factor", recorded)
        return recursions, built

    @staticmethod
    def _run_entry(entry, base_params, tmp_path, method):
        if entry == "run":
            run(ExperimentConfig(nx=11, nt=11, B=20, n_datasets=10, seed=5, method=method,
                                 out_dir=str(tmp_path)))
        else:
            coverage_experiment(base_params, Lattice(n_x=11, n_t=11, dx=0.05, dt=0.05),
                                10, 20, 0.9, method.removeprefix("mc-"),
                                rng=np.random.default_rng(31))

    @pytest.mark.parametrize("entry", ["run", "coverage_experiment"])
    def test_one_truth_recursion_per_run(self, base_params, tmp_path, monkeypatch, entry):
        # the grid bootstrap factors nothing: the run's only recursion is
        # the truth's, which draws every field and builds no factor (at
        # 101 x 101 a factor's coefficients are about 0.21 GB)
        recursions, built = self._record_recursions_and_factors(monkeypatch)
        self._run_entry(entry, base_params, tmp_path, "mc-grid")
        assert recursions == [(11, 11, 11)]
        assert built == []

    @pytest.mark.parametrize("entry", ["run", "coverage_experiment"])
    def test_no_truth_factor_built(self, base_params, tmp_path, monkeypatch, entry):
        # no factor is built: the truth's fields come from one recursion
        # that keeps none before the first step runs, and each mc_ci draws
        # its fitted model's fields in one recursion too
        recursions, built = self._record_recursions_and_factors(monkeypatch)
        first_step = []

        def probing(*args, **kwargs):
            if not first_step:
                first_step.append((len(recursions), len(built)))
            return mc_ci(*args, **kwargs)

        monkeypatch.setattr(stou.experiment, "mc_ci", probing)
        self._run_entry(entry, base_params, tmp_path, "mc-exact")
        assert first_step == [(1, 0)]
        # the truth's recursion, then one fitted model's per dataset
        assert built == [] and len(recursions) == 11

    @pytest.mark.parametrize("entry", ["run", "coverage_experiment"])
    def test_truth_that_fails_to_factor(self, base_params, tmp_path, monkeypatch, entry):
        # run gives every dataset its error row, starting no pool at two
        # workers; coverage_experiment raises before any dataset runs;
        # either tries the recursion once, and once more with jitter, and
        # gives back the caller's BLAS thread count
        tried = []

        def failing(blocks, basis):
            tried.append(1)
            raise np.linalg.LinAlgError("synthetic failure")

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        ran = []
        blas = {"threads": 3}
        monkeypatch.setattr(stou.cholesky, "_levinson", failing)
        monkeypatch.setattr(stou.experiment, "mc_ci", lambda *args, **kwargs: ran.append(1))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(stou.experiment, "_blas_thread_calls",
                            lambda: (lambda n: blas.update(threads=n), lambda: blas["threads"]))
        with pytest.warns(CovarianceJitter) as jitter_warnings:
            if entry == "coverage_experiment":
                with pytest.raises(NotPositiveDefinite):
                    coverage_experiment(base_params, Lattice(n_x=11, n_t=11, dx=0.05, dt=0.05),
                                        10, 20, 0.9, "exact", rng=np.random.default_rng(31))
            else:
                paths = run(ExperimentConfig(nx=11, nt=11, B=20, n_datasets=10, seed=5,
                                             workers=2, out_dir=str(tmp_path)))
                with open(paths["estimates"], encoding="utf-8") as handle:
                    rows = handle.read().splitlines()[1:]
                assert [row.split(",")[0] for row in rows] == [str(i) for i in range(10)]
                assert all(row.endswith(
                    ",NotPositiveDefinite: factorization failed after jitter retry")
                    for row in rows)
                with open(paths["manifest"], encoding="utf-8") as handle:
                    assert "blas_threads: 1" in handle.read().splitlines()
        assert ran == []
        assert blas == {"threads": 3}
        assert len(tried) == 2
        assert [w.category for w in jitter_warnings] == [CovarianceJitter]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_field_that_is_not_finite_fails_its_dataset_only(self, tmp_path, monkeypatch,
                                                             workers):
        real_draw = stou.experiment.simulate_exact

        def one_nan(cov, mu, rngs):
            values = real_draw(cov, mu, rngs)
            values[3][2, 4] = np.nan
            return values

        config = ExperimentConfig(nx=11, nt=11, B=20, n_datasets=10, seed=5, workers=workers)
        rows = {}
        for name in ("clean", "nan"):
            if name == "nan":
                monkeypatch.setattr(stou.experiment, "simulate_exact", one_nan)
            paths = run(dataclasses.replace(config, out_dir=str(tmp_path / name)))
            with open(paths["estimates"], encoding="utf-8") as handle:
                rows[name] = handle.read().splitlines()
        seed = next(row.split(",")[1] for row in rows["clean"] if row.startswith("3,"))
        expected = [row for row in rows["clean"] if not row.startswith("3,")]
        # after the header and the 6 rows of each of datasets 0, 1 and 2
        expected.insert(1 + 3 * 6, f"3,{seed},,,,,,,ValueError: field values must be finite")
        assert rows["nan"] == expected

    @pytest.mark.parametrize("simulator,grid_config", [
        ("exact", None),
        ("grid", None),
        ("grid", GridSimConfig(truncation_p=40, cells_per_obs_cell=2)),
    ])
    def test_equals_the_library_loop(self, base_params, simulator, grid_config):
        lat = Lattice(n_x=15, n_t=15, dx=0.05, dt=0.05)
        args = (base_params, lat, 10, 20, 0.9, simulator)
        expected = oracle_coverage_experiment(
            *args, rng=np.random.default_rng(8), grid_config=grid_config)
        got = coverage_experiment(*args, rng=np.random.default_rng(8), grid_config=grid_config)
        assert got == expected
        assert got.failures == ()

    def test_failed_dataset_equals_the_library_loop(self, base_params, monkeypatch):
        lat = Lattice(n_x=15, n_t=15, dx=0.05, dt=0.05)
        real_mc_ci = mc_ci
        calls = {"n": 0}

        def mc_ci_failing_third(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise InsufficientUsableLags("synthetic failure")
            return real_mc_ci(*args, **kwargs)

        # the oracle calls mc_ci through stou.bootstrap, the engine through stou.experiment
        monkeypatch.setattr(stou.bootstrap, "mc_ci", mc_ci_failing_third)
        monkeypatch.setattr(stou.experiment, "mc_ci", mc_ci_failing_third)
        args = (base_params, lat, 10, 20, 0.9, "exact")
        expected = oracle_coverage_experiment(*args, rng=np.random.default_rng(8))
        calls["n"] = 0
        got = coverage_experiment(*args, rng=np.random.default_rng(8))
        assert got == expected
        assert got.failures == ((2, "InsufficientUsableLags: synthetic failure"),)
        assert got.entries["lambda"].n == 9

    @pytest.mark.parametrize("method", ["mc-exact", "mc-grid"])
    def test_reproduces_the_driver(self, tmp_path, method):
        # mc-grid at the driver's default depth and the library's grid_config=None
        config = ExperimentConfig(nx=15, nt=15, n_datasets=10, B=20, seed=5, method=method)
        report = coverage_experiment(
            config.truth(), config.lattice(), config.n_datasets, config.B, config.level,
            config.simulator(), rng=np.random.default_rng(config.seed),
            max_lag=config.max_lag,
        )
        expected = {
            "coverage": [f"{e.parameter},{e.coverage!r},{e.se!r},{e.n}"
                         for e in report.entries.values()],
            "proxy": [f"{e.parameter},{e.mean_proxy!r},{e.proxy_se!r},{e.n}"
                      for e in report.entries.values()],
        }
        for command, lines in expected.items():
            out_dir = tmp_path / command
            paths = run(dataclasses.replace(config, out_dir=str(out_dir)), command=command)
            with open(paths["coverage"], encoding="utf-8") as handle:
                assert handle.read().splitlines()[1:] == lines

    def test_all_failed(self, base_params, tmp_path, monkeypatch):
        def mc_ci_failing(*args, **kwargs):
            raise InsufficientUsableLags("synthetic failure")

        monkeypatch.setattr(stou.experiment, "mc_ci", mc_ci_failing)
        lat = Lattice(n_x=15, n_t=15, dx=0.05, dt=0.05)
        with pytest.raises(FailureRateExceeded):
            coverage_experiment(base_params, lat, 10, 20, 0.9, "exact",
                                rng=np.random.default_rng(8))
        config = ExperimentConfig(nx=15, nt=15, n_datasets=10, B=20, out_dir=str(tmp_path))
        paths = run(config)
        with open(paths["coverage"], encoding="utf-8") as handle:
            assert handle.read() == "parameter,coverage,se,n\n"
        with open(paths["estimates"], encoding="utf-8") as handle:
            rows = handle.read().splitlines()[1:]
        assert len(rows) == 10
        assert all(row.endswith(",,,,,,,InsufficientUsableLags: synthetic failure")
                   for row in rows)


def oracle_coverage_experiment(truth, lattice, n_datasets, B, level, simulator,
                               rng, grid_config=None, max_lag=5):
    """The library's own dataset loop before it shared the driver's engine:
    an exact draw, mc_ci and a proxy per parameter, written out here."""
    cov = build_covariance(truth, lattice)
    rows = cholesky_factor(cov)
    truth_values = params_to_report(truth)
    hits = {name: 0 for name in REPORT_PARAMS}
    proxies = {name: [] for name in REPORT_PARAMS}
    failures = []
    n_ok = 0
    for index, stream in enumerate(rng.spawn(n_datasets)):
        data_rng, boot_rng = stream.spawn(2)
        data = FieldSample(lattice=lattice, values=per_draw_field(cov.basis, rows, truth.mu,
                                                                  data_rng))
        try:
            result = stou.bootstrap.mc_ci(data, B, level, simulator, boot_rng,
                                          grid_config=grid_config, max_lag=max_lag)
        except StouError as exc:
            failures.append((index, f"{type(exc).__name__}: {exc}"))
            continue
        n_ok += 1
        for name in REPORT_PARAMS:
            interval = result.intervals[name]
            hits[name] += int(interval.contains(truth_values[name]))
            proxies[name].append(coverage_proxy(result.estimates[name], interval.point, level))
    entries = {}
    for name in REPORT_PARAMS:
        rate = hits[name] / n_ok
        prox = np.array(proxies[name])
        entries[name] = CoverageEntry(
            parameter=name, n=n_ok, hits=hits[name], coverage=rate,
            se=math.sqrt(rate * (1.0 - rate) / n_ok),
            mean_proxy=float(prox.mean()),
            proxy_se=float(prox.std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else 0.0,
        )
    return CoverageReport(level=level, n_datasets=n_datasets, entries=entries,
                          failures=tuple(failures))
