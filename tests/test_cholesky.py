import math

import numpy as np
import pytest
import scipy.linalg

from stou import (
    BudgetExceeded,
    CovarianceMatrix,
    DimensionMismatch,
    Lattice,
    NotPositiveDefinite,
    StouParams,
    build_covariance,
    cholesky_factor,
    corr_canonical,
    simulate_exact,
)
from stou.errors import CovarianceJitter


def params(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01) -> StouParams:
    return StouParams.natural(lam=lam, c=c, mu_seed=mu_seed, tau2=tau2)


def blockwise_canonical_covariance(p, lat, block_rows=256):
    """Reference: the canonical covariance built row block by row block,
    evaluating exp at every site pair."""
    t_idx, x_idx = lat.site_indices()
    tt = t_idx * lat.dt
    xx = x_idx * lat.dx
    out = np.empty((lat.n, lat.n))
    for i0 in range(0, lat.n, block_rows):
        rows = slice(i0, min(i0 + block_rows, lat.n))
        d_t = np.abs(tt[rows, None] - tt[None, :])
        d_x = np.abs(xx[rows, None] - xx[None, :])
        d_x /= p.c
        np.maximum(d_t, d_x, out=d_t)
        d_t *= -p.lam
        np.exp(d_t, out=d_t)
        d_t *= p.sigma2
        out[rows] = d_t
    return out


def log_uniform(rng, low, high, size=None):
    return np.exp(rng.uniform(math.log(low), math.log(high), size))


def oracle_cases(rng):
    """(params, lattice) pairs: random lam, c, dx, dt on non-square
    lattices; dx == dt with c at or within 8 ulps of 1, where the
    time and space lags tie; single-row and single-column lattices; and
    lattices of more than one 256-row block."""
    cases = []
    for i in range(1040):
        lam = log_uniform(rng, 0.02, 20.0)
        tau2 = log_uniform(rng, 1e-3, 10.0)
        n_t, n_x = (int(v) for v in rng.integers(1, 15, size=2))
        dx, dt = log_uniform(rng, 0.005, 1.0, size=2)
        c = log_uniform(rng, 0.1, 10.0)
        group = i % 4
        if group == 1:
            dt, c = dx, 1.0
        elif group == 2:
            dt = dx
            c = 1.0 + int(rng.integers(-4, 5)) * np.finfo(float).eps
        elif group == 3:
            if rng.random() < 0.5:
                n_t = 1
            else:
                n_x = 1
        p = StouParams.natural(lam=lam, c=c, mu_seed=0.2, tau2=tau2)
        cases.append((p, Lattice(n_x=n_x, n_t=n_t, dx=dx, dt=dt)))
    for n_t, n_x in ((17, 16), (41, 41), (9, 30), (300, 1)):
        cases.append((params(lam=1.3, c=0.8), Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.05)))
    return cases


class TestBuildCovariance:
    def test_single_point(self):
        p = params()
        lat = Lattice(n_x=1, n_t=1, dx=0.05, dt=0.05)
        cov = build_covariance(p, lat)
        assert cov.n == 1
        assert cov.entries[0, 0] == pytest.approx(p.sigma2)

    def test_two_point_temporal(self):
        p = params()
        lat = Lattice(n_x=1, n_t=2, dx=0.05, dt=0.05)
        cov = build_covariance(p, lat)
        assert cov.entries[0, 1] == pytest.approx(p.sigma2 * math.exp(-0.05))
        assert cov.entries[0, 1] == cov.entries[1, 0]

    def test_two_by_two_diagonal_lag(self):
        h = 0.07
        p = params()
        lat = Lattice(n_x=2, n_t=2, dx=h, dt=h)
        cov = build_covariance(p, lat)
        # sites 0 and 3 differ by one step in both time and space
        assert cov.entries[0, 3] == pytest.approx(p.sigma2 * math.exp(-h), rel=1e-12)

    def test_entries_match_correlation(self):
        p = params(lam=1.4, c=0.6)
        lat = Lattice(n_x=3, n_t=4, dx=0.11, dt=0.07)
        cov = build_covariance(p, lat)
        t_idx, x_idx = lat.site_indices()
        for k in range(lat.n):
            for kk in range(lat.n):
                d_t = (t_idx[k] - t_idx[kk]) * lat.dt
                d_x = (x_idx[k] - x_idx[kk]) * lat.dx
                expected = p.sigma2 * corr_canonical(p, d_t, d_x)
                assert cov.entries[k, kk] == pytest.approx(expected, rel=1e-12)

    def test_canonical_bit_identical_to_blockwise_loop(self):
        cases = oracle_cases(np.random.default_rng(20261018))
        assert len(cases) >= 1000
        for p, lat in cases:
            expected = blockwise_canonical_covariance(p, lat)
            got = build_covariance(p, lat).entries
            assert np.array_equal(got, expected), (p, lat)

    def test_symmetric_with_constant_diagonal(self):
        p = params(lam=2.0, c=0.5)
        lat = Lattice(n_x=5, n_t=4, dx=0.05, dt=0.05)
        cov = build_covariance(p, lat)
        assert np.max(np.abs(cov.entries - cov.entries.T)) <= 1e-14
        np.testing.assert_allclose(np.diagonal(cov.entries), p.sigma2)

    def test_budget_enforced_before_work(self):
        p = params()
        # default budget admits the paper-scale lattice and nothing bigger
        with pytest.raises(BudgetExceeded):
            build_covariance(p, Lattice(n_x=102, n_t=101, dx=0.05, dt=0.05))


class TestCholeskyFactor:
    def test_identity(self):
        cov = CovarianceMatrix(n=3, entries=np.eye(3))
        fac = cholesky_factor(cov)
        np.testing.assert_array_equal(fac.entries, np.eye(3))

    def test_hand_checked_two_by_two(self):
        cov = CovarianceMatrix(n=2, entries=np.array([[4.0, 2.0], [2.0, 5.0]]))
        fac = cholesky_factor(cov)
        np.testing.assert_allclose(fac.entries, [[2.0, 0.0], [1.0, 2.0]])

    def test_lower_triangular(self):
        p = params()
        lat = Lattice(n_x=4, n_t=3, dx=0.05, dt=0.05)
        fac = cholesky_factor(build_covariance(p, lat))
        assert np.all(fac.entries[np.triu_indices(fac.n, k=1)] == 0.0)

    def test_reconstruction(self):
        p = params(lam=0.7, c=1.3)
        lat = Lattice(n_x=5, n_t=5, dx=0.05, dt=0.05)
        cov = build_covariance(p, lat)
        fac = cholesky_factor(cov)
        err = np.max(np.abs(fac.entries @ fac.entries.T - cov.entries))
        assert err <= 1e-10 * p.sigma2

    def test_jitter_retry_warns(self):
        # rank-1 matrix: PSD but singular, recoverable with jitter
        cov = CovarianceMatrix(n=4, entries=np.ones((4, 4)))
        with pytest.warns(CovarianceJitter):
            fac = cholesky_factor(cov)
        assert fac.n == 4

    def test_jitter_retry_matches_identity_bump(self):
        cov = CovarianceMatrix(n=4, entries=np.ones((4, 4)))
        with pytest.warns(CovarianceJitter):
            fac = cholesky_factor(cov)
        bumped = cov.entries + 1e-12 * np.eye(4)  # jitter: 1e-12 * max diagonal
        expected = scipy.linalg.cholesky(bumped, lower=True, check_finite=False)
        assert np.array_equal(fac.entries, expected)

    def test_indefinite_fails_after_jitter(self):
        cov = CovarianceMatrix(n=2, entries=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.warns(CovarianceJitter):
            with pytest.raises(NotPositiveDefinite):
                cholesky_factor(cov)


class TestSimulateExact:
    def test_zero_factor_gives_constant_field(self):
        lat = Lattice(n_x=3, n_t=2, dx=0.05, dt=0.05)
        from stou import CholeskyFactor

        fac = CholeskyFactor(n=6, entries=np.zeros((6, 6)))
        field = simulate_exact(fac, 0.4, lat, np.random.default_rng(0))
        np.testing.assert_array_equal(field.values, 0.4)

    def test_identity_factor_returns_raw_draws(self):
        lat = Lattice(n_x=3, n_t=2, dx=0.05, dt=0.05)
        from stou import CholeskyFactor

        fac = CholeskyFactor(n=6, entries=np.eye(6))
        field = simulate_exact(fac, 0.0, lat, np.random.default_rng(7))
        expected = np.random.default_rng(7).standard_normal(6).reshape(2, 3)
        np.testing.assert_array_equal(field.values, expected)

    def test_dimension_mismatch(self):
        from stou import CholeskyFactor

        fac = CholeskyFactor(n=4, entries=np.eye(4))
        lat = Lattice(n_x=3, n_t=2, dx=0.05, dt=0.05)
        with pytest.raises(DimensionMismatch):
            simulate_exact(fac, 0.0, lat, np.random.default_rng(0))

    def test_same_stream_state_is_bit_identical(self, base_params, small_lattice):
        fac = cholesky_factor(build_covariance(base_params, small_lattice))
        a = simulate_exact(fac, base_params.mu, small_lattice, np.random.default_rng(5))
        b = simulate_exact(fac, base_params.mu, small_lattice, np.random.default_rng(5))
        c = simulate_exact(fac, base_params.mu, small_lattice, np.random.default_rng(6))
        np.testing.assert_array_equal(a.values, b.values)
        assert np.any(a.values != c.values)

    @pytest.mark.parametrize("n_t,n_x,lam,c", [
        (1, 1, 1.0, 1.0), (5, 7, 0.4, 2.0), (13, 4, 3.0, 0.5), (21, 21, 1.0, 1.0),
    ])
    def test_matches_dense_matvec(self, n_t, n_x, lam, c):
        p = params(lam=lam, c=c)
        lat = Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.07)
        fac = cholesky_factor(build_covariance(p, lat))
        rng = np.random.default_rng(n_t * 100 + n_x)
        ref_rng = np.random.default_rng(n_t * 100 + n_x)
        for _ in range(5):
            field = simulate_exact(fac, p.mu, lat, rng)
            expected = p.mu + fac.entries @ ref_rng.standard_normal(lat.n)
            np.testing.assert_allclose(field.flat(), expected, rtol=1e-12, atol=0.0)

    def test_memory_order_does_not_change_draws(self, base_params, small_lattice):
        from stou import CholeskyFactor

        fortran = cholesky_factor(build_covariance(base_params, small_lattice))
        c_order = CholeskyFactor(n=fortran.n, entries=np.ascontiguousarray(fortran.entries))
        again = CholeskyFactor(n=fortran.n, entries=fortran.entries)
        assert c_order.entries.flags.f_contiguous
        assert again.entries is fortran.entries
        a = simulate_exact(fortran, base_params.mu, small_lattice, np.random.default_rng(3))
        b = simulate_exact(c_order, base_params.mu, small_lattice, np.random.default_rng(3))
        assert np.array_equal(a.values, b.values)

    def test_mean_recovers_mu_over_replications(self):
        p = params()
        lat = Lattice(n_x=51, n_t=51, dx=0.05, dt=0.05)
        fac = cholesky_factor(build_covariance(p, lat))
        rng = np.random.default_rng(12)
        means = [
            simulate_exact(fac, p.mu, lat, rng).values.mean() for _ in range(200)
        ]
        se = np.std(means, ddof=1) / math.sqrt(len(means))
        assert abs(np.mean(means) - p.mu) <= 3.0 * se

    def test_empirical_covariance_tracks_model(self, base_params):
        # small lattice, many replications: sample covariance of two fixed
        # sites approaches sigma2 * rho
        lat = Lattice(n_x=3, n_t=3, dx=0.05, dt=0.05)
        fac = cholesky_factor(build_covariance(base_params, lat))
        rng = np.random.default_rng(123)
        draws = np.array(
            [simulate_exact(fac, base_params.mu, lat, rng).flat() for _ in range(4000)]
        )
        emp = np.cov(draws[:, 0], draws[:, 4])[0, 1]
        expected = base_params.sigma2 * corr_canonical(base_params, 0.05, 0.05)
        assert emp == pytest.approx(expected, rel=0.1)
