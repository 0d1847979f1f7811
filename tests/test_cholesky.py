import math

import numpy as np
import pytest
import scipy.linalg

import stou.cholesky

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

from conftest import exact_fields_in_turn, factor_product, per_draw_field


def params(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01) -> StouParams:
    return StouParams.natural(lam=lam, c=c, mu_seed=mu_seed, tau2=tau2)


def dense_covariance(cov):
    """The n x n site covariance assembled from the block-Toeplitz form:
    block (t, s) is blocks[|t - s|]."""
    n_t, n_x, _ = cov.blocks.shape
    lag = np.abs(np.arange(n_t)[:, None] - np.arange(n_t)[None, :])
    return cov.blocks[lag].transpose(0, 2, 1, 3).reshape(cov.n, cov.n)


def dense_factor(basis, rows):
    """The n x n lower factor L, column by column, from cholesky_factor's rows."""
    return factor_product(basis, rows, np.eye(len(rows) * basis.shape[1]))


def dense_oracle(cov):
    """LAPACK's lower Cholesky factor of the assembled matrix."""
    return scipy.linalg.cholesky(dense_covariance(cov), lower=True, check_finite=False)


def blockwise_canonical_covariance(p, lat, block_rows=256):
    """Reference: the canonical covariance built row block by row block,
    evaluating exp at every site pair, with time lag |t_a - t_b| * dt."""
    t_idx, x_idx = np.divmod(np.arange(lat.n), lat.n_x)
    xx = x_idx * lat.dx
    out = np.empty((lat.n, lat.n))
    for i0 in range(0, lat.n, block_rows):
        rows = slice(i0, min(i0 + block_rows, lat.n))
        d_t = np.abs(t_idx[rows, None] - t_idx[None, :]) * lat.dt
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
        assert dense_covariance(cov)[0, 0] == pytest.approx(p.sigma2)

    def test_two_point_temporal(self):
        p = params()
        lat = Lattice(n_x=1, n_t=2, dx=0.05, dt=0.05)
        cov = dense_covariance(build_covariance(p, lat))
        assert cov[0, 1] == pytest.approx(p.sigma2 * math.exp(-0.05))
        assert cov[0, 1] == cov[1, 0]

    def test_two_by_two_diagonal_lag(self):
        h = 0.07
        p = params()
        lat = Lattice(n_x=2, n_t=2, dx=h, dt=h)
        cov = dense_covariance(build_covariance(p, lat))
        # sites 0 and 3 differ by one step in both time and space
        assert cov[0, 3] == pytest.approx(p.sigma2 * math.exp(-h), rel=1e-12)

    def test_entries_match_correlation(self):
        p = params(lam=1.4, c=0.6)
        lat = Lattice(n_x=3, n_t=4, dx=0.11, dt=0.07)
        cov = dense_covariance(build_covariance(p, lat))
        t_idx, x_idx = np.divmod(np.arange(lat.n), lat.n_x)
        for k in range(lat.n):
            for kk in range(lat.n):
                d_t = (t_idx[k] - t_idx[kk]) * lat.dt
                d_x = (x_idx[k] - x_idx[kk]) * lat.dx
                expected = p.sigma2 * corr_canonical(p, d_t, d_x)
                assert cov[k, kk] == pytest.approx(expected, rel=1e-12)

    def test_canonical_bit_identical_to_blockwise_loop(self):
        cases = oracle_cases(np.random.default_rng(20261018))
        assert len(cases) >= 1000
        for p, lat in cases:
            expected = blockwise_canonical_covariance(p, lat)
            got = dense_covariance(build_covariance(p, lat))
            assert np.array_equal(got, expected), (p, lat)

    def test_symmetric_with_constant_diagonal(self):
        p = params(lam=2.0, c=0.5)
        lat = Lattice(n_x=5, n_t=4, dx=0.05, dt=0.05)
        cov = dense_covariance(build_covariance(p, lat))
        assert np.max(np.abs(cov - cov.T)) <= 1e-14
        np.testing.assert_allclose(np.diagonal(cov), p.sigma2)

    def test_budget_enforced_before_work(self):
        p = params()
        # default budget admits the paper-scale lattice and nothing bigger
        with pytest.raises(BudgetExceeded):
            build_covariance(p, Lattice(n_x=102, n_t=101, dx=0.05, dt=0.05))


def one_block(entries):
    """A covariance of one time row: the block is the whole matrix."""
    return CovarianceMatrix(np.asarray(entries, dtype=float)[None])


class TestCholeskyFactor:
    def test_identity(self):
        cov = one_block(np.eye(3))
        np.testing.assert_array_equal(dense_factor(cov.basis, cholesky_factor(cov)), np.eye(3))

    def test_hand_checked_two_by_two(self):
        cov = one_block([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(dense_factor(cov.basis, cholesky_factor(cov)),
                                   [[2.0, 0.0], [1.0, 2.0]])

    def test_lower_triangular(self):
        p = params()
        lat = Lattice(n_x=4, n_t=3, dx=0.05, dt=0.05)
        cov = build_covariance(p, lat)
        L = dense_factor(cov.basis, cholesky_factor(cov))
        assert np.all(L[np.triu_indices(lat.n, k=1)] == 0.0)

    def test_reconstruction(self):
        p = params(lam=0.7, c=1.3)
        lat = Lattice(n_x=5, n_t=5, dx=0.05, dt=0.05)
        cov = build_covariance(p, lat)
        L = dense_factor(cov.basis, cholesky_factor(cov))
        err = np.max(np.abs(L @ L.T - dense_covariance(cov)))
        assert err <= 1e-10 * p.sigma2

    def test_jitter_retry_warns(self):
        # rank-1 matrix: PSD but singular, recoverable with jitter
        cov = one_block(np.ones((4, 4)))
        with pytest.warns(CovarianceJitter):
            rows = cholesky_factor(cov)
        assert dense_factor(cov.basis, rows).shape == (4, 4)

    def test_jitter_retry_matches_identity_bump(self):
        cov = one_block(np.ones((4, 4)))
        with pytest.warns(CovarianceJitter):
            rows = cholesky_factor(cov)
        bumped = np.ones((4, 4)) + 1e-12 * np.eye(4)  # jitter: 1e-12 * max diagonal
        expected = scipy.linalg.cholesky(bumped, lower=True, check_finite=False)
        assert np.array_equal(dense_factor(cov.basis, rows), expected)

    def test_singular_two_blocks_match_the_jittered_dense_factor(self):
        # Gamma(1) = Gamma(0): the second time row repeats the first, so the
        # order-1 error covariance vanishes; the jitter goes on every
        # diagonal block, as on the dense matrix's diagonal
        gamma = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
        cov = CovarianceMatrix(np.stack([gamma, gamma]))
        with pytest.warns(CovarianceJitter):
            rows = cholesky_factor(cov)
        jitter = 1e-12 * 2.0
        bumped = dense_covariance(cov) + jitter * np.eye(6)
        expected = scipy.linalg.cholesky(bumped, lower=True, check_finite=False)
        # the second row's innovation is of order sqrt(jitter); the matrix's
        # condition number is about 1e12, so agree to 1e-3 of that scale
        np.testing.assert_allclose(dense_factor(cov.basis, rows), expected, rtol=0.0,
                                   atol=1e-3 * math.sqrt(jitter))

    def test_indefinite_fails_after_jitter(self):
        with pytest.warns(CovarianceJitter):
            with pytest.raises(NotPositiveDefinite):
                cholesky_factor(one_block([[1.0, 2.0], [2.0, 1.0]]))

    def test_blocks_must_be_square_and_stacked(self):
        with pytest.raises(DimensionMismatch):
            CovarianceMatrix(np.eye(3))
        with pytest.raises(DimensionMismatch):
            CovarianceMatrix(np.zeros((2, 3, 4)))


class TestMirrorSplit:
    @pytest.mark.parametrize("n_x", [1, 2, 3, 4, 40, 41])
    @pytest.mark.parametrize("n_t", [1, 6])
    def test_matches_the_dense_oracle(self, n_t, n_x):
        # odd, even and single-column widths: the two halves recombine
        # into LAPACK's lower factor, entry by entry
        p = params(lam=0.7, c=1.3)
        cov = build_covariance(p, Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.07))
        err = np.max(np.abs(dense_factor(cov.basis, cholesky_factor(cov)) - dense_oracle(cov)))
        assert err <= 1e-12 * math.sqrt(p.sigma2)

    @pytest.mark.parametrize("n_x", [1, 2, 3, 4, 40, 41])
    def test_no_block_couples_the_two_parts(self, n_x):
        p = params(lam=0.7, c=1.3)
        cov = build_covariance(p, Lattice(n_x=n_x, n_t=4, dx=0.05, dt=0.07))
        even, odd = cov.basis
        # orthonormal columns, the odd part padded by a zero column when n_x is odd
        np.testing.assert_allclose(np.concatenate([even, odd], axis=1) @
                                   np.concatenate([even, odd], axis=1).T, np.eye(n_x),
                                   atol=1e-15)
        assert np.max(np.abs(even.T @ cov.blocks @ odd)) <= 1e-15 * p.sigma2

    @pytest.mark.parametrize("n_t,n_x,lam", [
        (5, 7, 1.0), (13, 4, 1.0), (40, 41, 4.0), (41, 40, 4.0), (41, 41, 4.0),
    ])
    def test_draws_match_the_one_part_factor(self, n_t, n_x, lam):
        # the same blocks in one part, the identity basis; both carry the
        # recursion's rounding, which grows with the condition number (at
        # lam = 0.02 both sit about 6e-10 sigma from LAPACK's L z)
        p = params(lam=lam)
        cov = build_covariance(p, Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.05))
        one = CovarianceMatrix(cov.blocks)
        assert one.basis.shape == (1, n_x, n_x) and cov.basis.shape[0] == 2
        z = np.random.default_rng(n_t * 100 + n_x).standard_normal((cov.n, 5))
        err = np.max(np.abs(factor_product(cov.basis, cholesky_factor(cov), z) -
                            factor_product(one.basis, cholesky_factor(one), z)))
        assert err <= 1e-12 * math.sqrt(p.sigma2)

    def test_the_split_cannot_outlive_the_symmetry(self):
        # only build_covariance sets the split, on blocks it made read-only;
        # blocks no longer mirror-symmetric go through one part
        cov = build_covariance(params(), Lattice(n_x=6, n_t=4, dx=0.05, dt=0.05))
        with pytest.raises(TypeError):
            CovarianceMatrix(cov.blocks, cov.basis)
        with pytest.raises(ValueError):
            cov.blocks[0, 0, 0] += 1.0
        nugget = cov.blocks.copy()
        nugget[0] += np.diag(np.linspace(0.0, 0.5, 6)) * params().sigma2
        bent = CovarianceMatrix(nugget)
        assert bent.basis.shape == (1, 6, 6)
        err = np.max(np.abs(dense_factor(bent.basis, cholesky_factor(bent)) - dense_oracle(bent)))
        assert err <= 1e-12 * math.sqrt(params().sigma2)

    def test_holds_half_the_coefficients(self):
        # n_x^2 n_t (n_t - 1) / 2 predictor doubles in one part, 2 ceil(n_x / 2)^2
        # n_t (n_t - 1) / 2 in two
        for n_x in (40, 41):
            lat = Lattice(n_x=n_x, n_t=41, dx=0.05, dt=0.05)
            cov = build_covariance(params(), lat)
            split = sum(row.size for row, _ in cholesky_factor(cov))
            whole = sum(row.size for row, _ in cholesky_factor(CovarianceMatrix(cov.blocks)))
            assert whole == n_x**2 * 41 * 40 // 2
            assert split == 2 * ((n_x + 1) // 2) ** 2 * 41 * 40 // 2 <= 0.53 * whole


def identity_blocks(n_t, n_x):
    """A covariance whose factor is the identity: unit variance, no correlation."""
    blocks = np.zeros((n_t, n_x, n_x))
    blocks[0] = np.eye(n_x)
    return CovarianceMatrix(blocks)


class TestSimulateExact:
    def test_mu_shifts_every_value(self):
        cov = identity_blocks(2, 3)
        at_mu = simulate_exact(cov, 0.4, [np.random.default_rng(0)])
        at_zero = simulate_exact(cov, 0.0, [np.random.default_rng(0)])
        np.testing.assert_array_equal(at_mu, 0.4 + at_zero)

    def test_identity_factor_returns_raw_draws(self):
        (values,) = simulate_exact(identity_blocks(2, 3), 0.0, [np.random.default_rng(7)])
        expected = np.random.default_rng(7).standard_normal(6).reshape(2, 3)
        np.testing.assert_array_equal(values, expected)

    def test_same_stream_state_is_bit_identical(self, base_params, small_lattice):
        cov = build_covariance(base_params, small_lattice)
        a, b, c = (simulate_exact(cov, base_params.mu, [np.random.default_rng(seed)])
                   for seed in (5, 5, 6))
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    @pytest.mark.parametrize("n_t,n_x,lam,c", [
        (1, 1, 1.0, 1.0), (5, 7, 0.4, 2.0), (13, 4, 3.0, 0.5), (21, 21, 1.0, 1.0),
        (41, 41, 0.02, 1.0), (41, 41, 0.2, 1.0), (41, 41, 1.0, 1.0), (41, 41, 4.0, 1.0),
    ])
    def test_matches_dense_matvec(self, n_t, n_x, lam, c):
        # the same unique Cholesky factor: draws agree with LAPACK's L z
        # up to rounding, within 1e-8 standard deviations
        p = params(lam=lam, c=c)
        lat = Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.07 if n_t < 41 else 0.05)
        cov = build_covariance(p, lat)
        L = dense_oracle(cov)
        rng = np.random.default_rng(n_t * 100 + n_x)
        ref_rng = np.random.default_rng(n_t * 100 + n_x)
        for _ in range(5):
            (values,) = simulate_exact(cov, p.mu, [rng])
            expected = p.mu + L @ ref_rng.standard_normal(lat.n)
            err = np.max(np.abs(values.ravel() - expected))
            assert err <= 1e-8 * math.sqrt(p.sigma2)

    def test_several_generators_give_each_its_own_field(self, base_params):
        lat = Lattice(n_x=6, n_t=5, dx=0.05, dt=0.05)
        cov = build_covariance(base_params, lat)
        got = simulate_exact(cov, base_params.mu, [np.random.default_rng(s) for s in (2, 3, 4)])
        assert got.shape == (3, lat.n_t, lat.n_x)
        for values, seed in zip(got, (2, 3, 4)):
            np.testing.assert_array_equal(
                values, simulate_exact(cov, base_params.mu, [np.random.default_rng(seed)])[0])

    def test_mean_recovers_mu_over_replications(self):
        p = params()
        lat = Lattice(n_x=51, n_t=51, dx=0.05, dt=0.05)
        rng = np.random.default_rng(12)
        means = [field.values.mean() for field in exact_fields_in_turn(p, lat, rng, 200)]
        se = np.std(means, ddof=1) / math.sqrt(len(means))
        assert abs(np.mean(means) - p.mu) <= 3.0 * se

    def test_empirical_covariance_tracks_model(self, base_params):
        # small lattice, many replications: sample covariance of two fixed
        # sites approaches sigma2 * rho
        lat = Lattice(n_x=3, n_t=3, dx=0.05, dt=0.05)
        rng = np.random.default_rng(123)
        draws = np.array([field.values.reshape(-1)
                          for field in exact_fields_in_turn(base_params, lat, rng, 4000)])
        emp = np.cov(draws[:, 0], draws[:, 4])[0, 1]
        expected = base_params.sigma2 * corr_canonical(base_params, 0.05, 0.05)
        assert emp == pytest.approx(expected, rel=0.1)


def per_draw_oracle(cov, mu, seeds):
    """Each seed's field drawn the per-draw way: the factor, then its rows
    applied to the seed's normals."""
    rows = cholesky_factor(cov)
    return np.array([per_draw_field(cov.basis, rows, mu, np.random.default_rng(seed))
                     for seed in seeds])


def one_pass_draw(cov, mu, seeds):
    return simulate_exact(cov, mu, [np.random.default_rng(seed) for seed in seeds])


class TestOnePassDraw:
    # the one-pass draw applies each predictor row to every field at once,
    # in a product broadcast over the fields, so that each field has the
    # bits of its own draw whatever the number of fields

    @pytest.mark.parametrize("n_t,n_x", [
        (6, 7), (5, 8), (4, 1), (1, 6), (1, 1), (2, 2), (13, 4), (41, 41),
    ])
    def test_equals_the_per_draw_fields_bitwise(self, n_t, n_x):
        p = params(lam=0.7, c=1.3)
        cov = build_covariance(p, Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.07))
        seeds = range(n_t * 100 + n_x, n_t * 100 + n_x + 3)
        assert np.array_equal(one_pass_draw(cov, p.mu, seeds), per_draw_oracle(cov, p.mu, seeds))
        # one field alone, as an --only-dataset replay draws it
        assert np.array_equal(one_pass_draw(cov, p.mu, seeds[1:2]),
                              per_draw_oracle(cov, p.mu, seeds[1:2]))

    def test_one_generator_draws_in_turn_by_one_call_per_field(self):
        # each entry restarts from the generator's state at the call: listed
        # three times it gives one field three times, and three calls give
        # the three fields that follow one another on its stream
        p = params(lam=0.7, c=1.3)
        lat = Lattice(n_x=5, n_t=4, dx=0.05, dt=0.07)
        cov = build_covariance(p, lat)
        rows = cholesky_factor(cov)
        oracle_rng = np.random.default_rng(8)
        expected = np.array([per_draw_field(cov.basis, rows, p.mu, oracle_rng) for _ in range(3)])
        rng = np.random.default_rng(8)
        assert np.array_equal(simulate_exact(cov, p.mu, [rng] * 3), expected[[0, 0, 0]])
        rng = np.random.default_rng(8)
        assert np.array_equal([simulate_exact(cov, p.mu, [rng])[0] for _ in range(3)], expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        rng = np.random.default_rng(8)
        in_turn = exact_fields_in_turn(p, lat, rng, 3)
        assert np.array_equal([field.values for field in in_turn], expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_hand_built_identity_basis(self):
        p = params(lam=1.3, c=0.8)
        cov = CovarianceMatrix(build_covariance(p, Lattice(n_x=5, n_t=6, dx=0.05, dt=0.05)).blocks)
        assert cov.basis.shape == (1, 5, 5)
        seeds = range(4)
        assert np.array_equal(one_pass_draw(cov, p.mu, seeds), per_draw_oracle(cov, p.mu, seeds))

    def test_more_fields_than_one_pass_takes(self, monkeypatch):
        # at 2 x 2 a pass takes m (n_t - 1) / 2 + n_x = 2 fields, so 5
        # fields take three recursions
        recursions = []
        real = stou.cholesky._levinson

        def counted(blocks, basis):
            recursions.append(1)
            return real(blocks, basis)

        p = params()
        cov = build_covariance(p, Lattice(n_x=2, n_t=2, dx=0.05, dt=0.05))
        seeds = range(5)
        expected = per_draw_oracle(cov, p.mu, seeds)
        monkeypatch.setattr(stou.cholesky, "_levinson", counted)
        assert np.array_equal(one_pass_draw(cov, p.mu, seeds), expected)
        assert len(recursions) == 3

    @pytest.mark.parametrize("blocks", [
        # singular at the first row, before any row meets the fields
        np.ones((1, 4, 4)),
        # singular at the second row, after the first has replaced the
        # fields' normals, which the retry draws again; 6 fields take two
        # passes of 4 on the jittered blocks
        np.stack([np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])] * 2),
    ])
    def test_jitter_retry_gives_the_jittered_fields(self, blocks):
        cov = CovarianceMatrix(blocks)
        seeds = range(6)
        with pytest.warns(CovarianceJitter) as oracle_warnings:
            expected = per_draw_oracle(cov, 0.3, seeds)
        with pytest.warns(CovarianceJitter) as draw_warnings:
            got = one_pass_draw(cov, 0.3, seeds)
        assert np.array_equal(got, expected)
        assert [str(w.message) for w in draw_warnings] == [str(w.message)
                                                             for w in oracle_warnings]

    def test_not_positive_definite(self):
        with pytest.warns(CovarianceJitter):
            with pytest.raises(NotPositiveDefinite):
                one_pass_draw(one_block([[1.0, 2.0], [2.0, 1.0]]), 0.0, range(3))


def batch_draw(cov, mu, seeds):
    return simulate_exact(cov, mu, [np.random.default_rng(seed) for seed in seeds], batch=True)


def assert_agrees(got, expected):
    """Equal to 1e-12 of the largest value: a GEMM column's rounding."""
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestBatchDraw:
    # batch=True, mc_ci's layout: a pass's histories are the columns of one
    # matrix, so each predictor row meets them in one GEMM; the fields agree
    # with the per-draw ones to rounding

    @pytest.mark.parametrize("n_t,n_x,k", [
        (6, 7, 5),  # odd n_x, whose odd part has a padding column
        (5, 8, 5),
        (4, 1, 5),  # a pass takes m (n_t - 1) / 2 + n_x = 2 fields: three passes
        (1, 6, 5),
        (1, 1, 3),
        (4, 4, 20),  # three passes of at most 7
        (15, 15, 100),  # two passes of at most 71
    ])
    def test_agrees_with_the_per_draw_fields(self, n_t, n_x, k):
        p = params(lam=0.7, c=1.3)
        cov = build_covariance(p, Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.07))
        seeds = range(n_t * 100 + n_x, n_t * 100 + n_x + k)
        assert_agrees(batch_draw(cov, p.mu, seeds), per_draw_oracle(cov, p.mu, seeds))

    def test_same_generators_give_the_same_bits(self):
        p = params(lam=0.7, c=1.3)
        cov = build_covariance(p, Lattice(n_x=15, n_t=15, dx=0.05, dt=0.07))
        assert np.array_equal(batch_draw(cov, p.mu, range(100)), batch_draw(cov, p.mu, range(100)))

    def test_jitter_retry_replays_the_generators(self):
        # singular at the second row, after the first has replaced the
        # fields' normals, which the retry draws again; 6 fields take two
        # passes of 4 on the jittered blocks
        cov = CovarianceMatrix(
            np.stack([np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])] * 2))
        with pytest.warns(CovarianceJitter) as oracle_warnings:
            expected = per_draw_oracle(cov, 0.3, range(6))
        with pytest.warns(CovarianceJitter) as draw_warnings:
            got = batch_draw(cov, 0.3, range(6))
        assert_agrees(got, expected)
        assert [str(w.message) for w in draw_warnings] == [str(w.message)
                                                             for w in oracle_warnings]
