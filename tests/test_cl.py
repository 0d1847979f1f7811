import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from stou import (
    CorrelationAtUnity,
    DegenerateSample,
    EstimationScenario,
    FieldSample,
    Lattice,
    NoValidWindows,
    PairWeightSpec,
    SingularH,
    StouParams,
    WindowSpec,
    corr_canonical,
    fit_mm,
    hessian_h,
    l_pair,
    maximize_cl,
    pairwise_loglik,
    sandwich_ci,
    score_u,
    total_pair_weight,
    wsev_j,
)
from stou import cl
from stou.cl import PARAM_NAMES
from stou.errors import CovarianceJitter, OptimizerDidNotConverge, StouError

from conftest import exact_field

WEIGHTS = PairWeightSpec(cutoff_d=3)


def random_theta(rng) -> StouParams:
    return StouParams(
        lam=float(rng.uniform(0.2, 4.0)),
        c_tilde=float(rng.uniform(0.2, 4.0)),
        sigma2=float(10.0 ** rng.uniform(-3, 0)),
        mu=float(rng.uniform(-2.0, 2.0)),
    )


def random_pair_input(rng):
    theta = random_theta(rng)
    d_t = float(rng.uniform(0.02, 2.0))
    d_x = float(rng.uniform(0.02, 2.0))
    sd = math.sqrt(theta.sigma2)
    y_i = theta.mu + sd * float(rng.normal())
    y_j = theta.mu + sd * float(rng.normal())
    return theta, d_t, d_x, y_i, y_j


def rho_of(theta: StouParams, d_t: float, d_x: float) -> float:
    return math.exp(-theta.lam * d_t - theta.c_tilde * d_x)


def fd_steps(theta: StouParams) -> np.ndarray:
    arr = theta.as_array()
    h = 1e-6 * np.abs(arr)
    h[3] = 1e-6 * max(1.0, abs(arr[3]))
    return h


def brute_force_pairs(lattice: Lattice, cutoff_d: int):
    """All unordered axis-aligned site pairs within cutoff, as
    (d_t, d_x, t_i, x_i, t_j, x_j) with lags in physical units."""
    out = []
    for t in range(lattice.n_t):
        for x in range(lattice.n_x):
            for h in range(1, cutoff_d + 1):
                if t + h < lattice.n_t:
                    out.append((h * lattice.dt, 0.0, t, x, t + h, x))
                if x + h < lattice.n_x:
                    out.append((0.0, h * lattice.dx, t, x, t, x + h))
    return out


def window_loop_j(theta, field, weights, windows) -> np.ndarray:
    """J* summed one window and one lag at a time, in origin order, each
    window's summed score from its lag sums through cl._lag_sums."""
    t0s, x0s = windows.origins(field.lattice)
    d = weights.cutoff_d
    lags = []
    for h_t, h_x, d_t, d_x, _ in cl._axis_lags(field.lattice, d, d):
        # integral images of the pair sums of a + b, a^2 + b^2 and a b
        yi, yj = cl._pair_ends(field.values - theta.mu, h_t, h_x)
        p = np.zeros((3, yi.shape[0] + 1, yi.shape[1] + 1))
        np.cumsum((yi + yj, yi * yi + yj * yj, yi * yj), axis=1, out=p[:, 1:, 1:])
        np.cumsum(p[:, 1:, 1:], axis=2, out=p[:, 1:, 1:])
        lags.append((h_t, h_x, d_t, d_x, p))
    J = np.zeros((4, 4))
    m = 0
    for t0 in t0s:
        for x0 in x0s:
            s_k = np.zeros(4)
            w_k = 0
            for h_t, h_x, d_t, d_x, p in lags:
                ta, tb = t0, t0 + windows.window_nt - h_t
                xa, xb = x0, x0 + windows.window_nx - h_x
                if tb <= ta or xb <= xa:
                    continue
                sums = p[:, tb, xb] - p[:, ta, xb] - p[:, tb, xa] + p[:, ta, xa]
                rho = rho_of(theta, d_t, d_x)
                n = (tb - ta) * (xb - xa)
                _, dl_drho, dl_ds2, dl_dmu = cl._lag_sums(rho, theta.sigma2, 0.0, n, *sums)
                s_k += [dl_drho * (-d_t * rho), dl_drho * (-d_x * rho), dl_ds2, dl_dmu]
                w_k += n
            if w_k == 0:
                continue
            J += np.outer(s_k, s_k) / w_k
            m += 1
    return J / m


def score_fields(theta, field, weights):
    """Per-lag arrays of pair scores from score_u, keyed by pair anchor
    position: (h_t, h_x, U) with U shaped (4, n_t - h_t, n_x - h_x)."""
    d = weights.cutoff_d
    out = []
    for h_t, h_x, d_t, d_x, _ in cl._axis_lags(field.lattice, d, d):
        yi, yj = cl._pair_ends(field.values, h_t, h_x)
        rho = rho_of(theta, d_t, d_x)
        u = score_u(theta, yi, yj, rho, np.array([-d_t * rho, -d_x * rho]))
        out.append((h_t, h_x, np.moveaxis(u, -1, 0)))
    return out


def per_pair_j(theta, field, weights, windows) -> np.ndarray:
    """J* from integral images of the per-pair scores of score_fields."""
    t0s, x0s = windows.origins(field.lattice)
    S = np.zeros((4, t0s.size, x0s.size))
    w = 0
    for h_t, h_x, u in score_fields(theta, field, weights):
        n_in_t, n_in_x = windows.window_nt - h_t, windows.window_nx - h_x
        if n_in_t <= 0 or n_in_x <= 0:
            continue
        p = np.zeros((4, u.shape[1] + 1, u.shape[2] + 1))
        p[:, 1:, 1:] = u.cumsum(axis=1).cumsum(axis=2)
        ta, tb = t0s[:, None], t0s[:, None] + n_in_t
        xa, xb = x0s, x0s + n_in_x
        S += p[:, tb, xb] - p[:, ta, xb] - p[:, tb, xa] + p[:, ta, xa]
        w += n_in_t * n_in_x
    s = S.reshape(4, -1)
    return s @ s.T / w / s.shape[1]


class TestThetaArray:
    def test_array_roundtrip(self):
        theta = StouParams(lam=1.5, c_tilde=0.7, sigma2=0.02, mu=-0.3)
        arr = theta.as_array()
        np.testing.assert_array_equal(arr, [1.5, 0.7, 0.02, -0.3])
        assert StouParams.from_array(arr) == theta

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StouParams(lam=-1.0, c_tilde=1.0, sigma2=1.0, mu=0.0)
        with pytest.raises(ValueError):
            StouParams(lam=1.0, c_tilde=1.0, sigma2=0.0, mu=0.0)


class TestRho:
    def test_axis_equality(self):
        # the CL's pair correlation is the model's on each axis; rounding
        # differs by ~1 ulp: math.exp against numpy's, and on the spatial
        # axis (lam / c) * h against lam * (h / c)
        p = StouParams.natural(lam=2.5, c=0.3, mu_seed=0.2, tau2=0.01)
        for h in (0.1, 1.0, 7.5):
            assert cl._rho(p.lam, p.c_tilde, h, 0.0) == pytest.approx(
                corr_canonical(p, h, 0.0), rel=1e-14)
            assert cl._rho(p.lam, p.c_tilde, 0.0, h) == pytest.approx(
                corr_canonical(p, 0.0, h), rel=1e-14)


class TestPairLoglik:
    def test_matches_bivariate_normal_density(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            theta, d_t, d_x, y_i, y_j = random_pair_input(rng)
            rho = rho_of(theta, d_t, d_x)
            cov = theta.sigma2 * np.array([[1.0, rho], [rho, 1.0]])
            expected = scipy.stats.multivariate_normal.logpdf(
                [y_i, y_j], mean=[theta.mu, theta.mu], cov=cov
            ) + math.log(2.0 * math.pi)
            assert l_pair(theta, y_i, y_j, rho) == pytest.approx(expected, abs=1e-10)

    def test_independent_pairs_factorize(self):
        theta = StouParams(lam=1.0, c_tilde=1.0, sigma2=0.4, mu=0.1)
        y_i, y_j = 0.5, -0.2

        def norm_logpdf(y):
            return float(scipy.stats.norm.logpdf(y, loc=theta.mu, scale=math.sqrt(theta.sigma2)))

        expected = norm_logpdf(y_i) + norm_logpdf(y_j) + math.log(2.0 * math.pi)
        assert l_pair(theta, y_i, y_j, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_vectorized_over_observations(self):
        theta = StouParams(lam=1.0, c_tilde=1.0, sigma2=0.3, mu=0.0)
        y = np.linspace(-1, 1, 7)
        out = l_pair(theta, y, y[::-1], 0.5)
        assert out.shape == (7,)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.0 - 1e-14])
    def test_unit_correlation_rejected(self, rho):
        theta = StouParams(lam=1.0, c_tilde=1.0, sigma2=1.0, mu=0.0)
        with pytest.raises(CorrelationAtUnity):
            l_pair(theta, 0.1, 0.2, rho)


class TestScoreU:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            theta, d_t, d_x, y_i, y_j = random_pair_input(rng)
            rho = rho_of(theta, d_t, d_x)
            grad_rho = np.array([-d_t, -d_x]) * rho
            analytic = score_u(theta, y_i, y_j, rho, grad_rho)

            arr = theta.as_array()
            h = fd_steps(theta)
            fd = np.empty(4)
            for k in range(4):
                up, dn = arr.copy(), arr.copy()
                up[k] += h[k]
                dn[k] -= h[k]
                t_up, t_dn = StouParams.from_array(up), StouParams.from_array(dn)
                f_up = l_pair(t_up, y_i, y_j, rho_of(t_up, d_t, d_x))
                f_dn = l_pair(t_dn, y_i, y_j, rho_of(t_dn, d_t, d_x))
                fd[k] = (f_up - f_dn) / (2.0 * h[k])
            rel = np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic))
            worst = max(worst, rel)
        assert worst <= 1e-6

    def test_mu_component_vanishes_at_centred_data(self):
        theta = StouParams(lam=1.0, c_tilde=2.0, sigma2=0.1, mu=0.7)
        rho = rho_of(theta, 0.3, 0.1)
        grad_rho = np.array([-0.3, -0.1]) * rho
        s = score_u(theta, theta.mu, theta.mu, rho, grad_rho)
        assert s[3] == 0.0


class TestPairwiseLoglik:
    def test_single_site_has_no_pairs(self):
        lat = Lattice(n_x=1, n_t=1, dx=0.05, dt=0.05)
        field = FieldSample(lattice=lat, values=np.array([[0.3]]))
        theta = StouParams(lam=1.0, c_tilde=1.0, sigma2=0.1, mu=0.0)
        assert pairwise_loglik(theta, field, WEIGHTS) == 0.0

    def test_two_sites_equal_one_pair_term(self):
        lat = Lattice(n_x=1, n_t=2, dx=0.05, dt=0.05)
        field = FieldSample(lattice=lat, values=np.array([[0.5], [0.1]]))
        theta = StouParams(lam=1.3, c_tilde=0.9, sigma2=0.2, mu=0.15)
        rho = rho_of(theta, lat.dt, 0.0)
        expected = float(l_pair(theta, 0.5, 0.1, rho))
        assert pairwise_loglik(theta, field, WEIGHTS) == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(5)
        lat = Lattice(n_x=5, n_t=5, dx=0.07, dt=0.04)
        field = FieldSample(lattice=lat, values=rng.normal(0.2, 0.3, size=(5, 5)))
        theta = StouParams(lam=1.1, c_tilde=0.8, sigma2=0.09, mu=0.25)
        weights = PairWeightSpec(cutoff_d=2)
        expected = sum(
            float(l_pair(theta, field.values[t1, x1], field.values[t2, x2],
                         rho_of(theta, d_t, d_x)))
            for d_t, d_x, t1, x1, t2, x2 in brute_force_pairs(lat, 2)
        )
        assert pairwise_loglik(theta, field, weights) == pytest.approx(expected, rel=1e-12)


class TestTotalPairWeight:
    def test_hand_count(self):
        lat = Lattice(n_x=3, n_t=2, dx=0.05, dt=0.05)
        # temporal: 3 columns x 1 lag; spatial: 2 rows x (2 + 1) lags
        assert total_pair_weight(lat, WEIGHTS) == 9.0

    def test_matches_brute_force(self):
        lat = Lattice(n_x=6, n_t=4, dx=0.05, dt=0.05)
        for d in (1, 2, 5):
            weights = PairWeightSpec(cutoff_d=d)
            assert total_pair_weight(lat, weights) == len(brute_force_pairs(lat, d))


class TestHessianH:
    def test_mu_is_information_orthogonal(self):
        theta = StouParams(lam=1.2, c_tilde=0.6, sigma2=0.01, mu=0.4)
        lat = Lattice(n_x=6, n_t=7, dx=0.05, dt=0.05)
        H = hessian_h(theta, lat, WEIGHTS)
        assert H[3, 0] == H[3, 1] == H[3, 2] == 0.0
        np.testing.assert_allclose(H, H.T, atol=1e-12)

    def test_unit_correlation_is_a_typed_error(self):
        # at lam = 1e-17 every temporal pair correlation rounds to 1
        with pytest.raises(CorrelationAtUnity):
            hessian_h(StouParams(1e-17, 1.0, 1.0, 0.0), Lattice(15, 15, 0.05, 0.05),
                      PairWeightSpec(3))

    def test_matches_per_pair_information_sum(self):
        theta = StouParams(lam=0.9, c_tilde=1.4, sigma2=0.05, mu=-0.1)
        lat = Lattice(n_x=4, n_t=5, dx=0.06, dt=0.08)
        weights = PairWeightSpec(cutoff_d=2)
        expected = np.zeros((4, 4))
        for d_t, d_x, *_ in brute_force_pairs(lat, 2):
            rho = rho_of(theta, d_t, d_x)
            one = 1.0 - rho * rho
            grad_rho = np.array([-d_t, -d_x]) * rho
            block = np.zeros((4, 4))
            block[:2, :2] = (1.0 + rho * rho) / one**2 * np.outer(grad_rho, grad_rho)
            block[:2, 2] = block[2, :2] = -rho / (theta.sigma2 * one) * grad_rho
            block[2, 2] = 1.0 / theta.sigma2**2
            block[3, 3] = 2.0 / (theta.sigma2 * (1.0 + rho))
            expected += block
        H = hessian_h(theta, lat, weights)
        np.testing.assert_allclose(H, expected, rtol=1e-10)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = random_theta(rng)
            lat = Lattice(
                n_x=int(rng.integers(2, 8)), n_t=int(rng.integers(2, 8)),
                dx=float(rng.uniform(0.02, 0.3)), dt=float(rng.uniform(0.02, 0.3)),
            )
            H = hessian_h(theta, lat, WEIGHTS)
            eig = np.linalg.eigvalsh(H)
            assert eig.min() >= -1e-10 * np.trace(H)


class TestWsevJ:
    def test_single_window_is_scaled_score_outer_product(self):
        rng = np.random.default_rng(7)
        lat = Lattice(n_x=5, n_t=4, dx=0.05, dt=0.05)
        field = FieldSample(lattice=lat, values=rng.normal(0.3, 0.2, size=(4, 5)))
        theta = StouParams(lam=1.4, c_tilde=0.7, sigma2=0.06, mu=0.2)
        weights = PairWeightSpec(cutoff_d=2)
        windows = WindowSpec(window_nx=5, window_nt=4)

        S = np.zeros(4)
        W = 0.0
        for d_t, d_x, t1, x1, t2, x2 in brute_force_pairs(lat, 2):
            rho = rho_of(theta, d_t, d_x)
            grad_rho = np.array([-d_t, -d_x]) * rho
            S += score_u(theta, field.values[t1, x1], field.values[t2, x2], rho, grad_rho)
            W += 1.0
        expected = np.outer(S, S) / W
        np.testing.assert_allclose(wsev_j(theta, field, weights, windows), expected, rtol=1e-10)

    def test_matches_brute_force_over_sliding_windows(self):
        rng = np.random.default_rng(8)
        lat = Lattice(n_x=6, n_t=7, dx=0.09, dt=0.05)
        field = FieldSample(lattice=lat, values=rng.normal(0.0, 0.5, size=(7, 6)))
        theta = StouParams(lam=0.8, c_tilde=1.1, sigma2=0.2, mu=-0.05)
        weights = PairWeightSpec(cutoff_d=2)
        windows = WindowSpec(window_nx=4, window_nt=3, step_x=2, step_t=2)

        pairs = brute_force_pairs(lat, 2)
        t0s, x0s = windows.origins(lat)
        terms = []
        for t0 in t0s:
            for x0 in x0s:
                S = np.zeros(4)
                W = 0.0
                for d_t, d_x, t1, x1, t2, x2 in pairs:
                    inside = (
                        t0 <= t1 and t2 < t0 + windows.window_nt
                        and x0 <= min(x1, x2) and max(x1, x2) < x0 + windows.window_nx
                    )
                    if not inside:
                        continue
                    rho = rho_of(theta, d_t, d_x)
                    grad_rho = np.array([-d_t, -d_x]) * rho
                    S += score_u(theta, field.values[t1, x1], field.values[t2, x2], rho, grad_rho)
                    W += 1.0
                if W > 0:
                    terms.append(np.outer(S, S) / W)
        expected = np.mean(terms, axis=0)
        np.testing.assert_allclose(wsev_j(theta, field, weights, windows), expected, rtol=1e-10)

    def test_origin_grid_on_observation_scale(self):
        lat = Lattice(n_x=101, n_t=101, dx=0.05, dt=0.05)
        windows = WindowSpec(window_nx=11, window_nt=11, step_x=5, step_t=5)
        t0s, x0s = windows.origins(lat)
        assert len(t0s) == len(x0s) == 19
        assert len(t0s) * len(x0s) == 361

    def test_window_larger_than_lattice(self):
        lat = Lattice(n_x=4, n_t=4, dx=0.05, dt=0.05)
        field = FieldSample(lattice=lat, values=np.zeros((4, 4)) + 0.1)
        theta = StouParams(lam=1.0, c_tilde=1.0, sigma2=0.1, mu=0.0)
        with pytest.raises(NoValidWindows):
            wsev_j(theta, field, WEIGHTS, WindowSpec(window_nx=9, window_nt=9))

    @pytest.mark.parametrize(
        "n_t, n_x, cutoff_d, windows",
        [
            (9, 13, 3, WindowSpec(window_nx=4, window_nt=3)),
            (12, 7, 2, WindowSpec(window_nx=3, window_nt=6, step_x=2, step_t=3)),
            # window_nt = 2 and window_nx = 3 leave temporal lags 2, 3 and
            # spatial lag 3 without pairs inside any window
            (10, 11, 3, WindowSpec(window_nx=3, window_nt=2, step_x=1, step_t=2)),
            (21, 21, 3, WindowSpec(window_nx=11, window_nt=11, step_x=5, step_t=5)),
        ],
    )
    def test_bitwise_equal_to_window_loop(self, n_t, n_x, cutoff_d, windows):
        rng = np.random.default_rng(n_t * 100 + n_x)
        lat = Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.07)
        field = FieldSample(lattice=lat, values=rng.normal(0.4, 0.1, size=(n_t, n_x)))
        theta = StouParams(lam=1.3, c_tilde=0.8, sigma2=0.01, mu=0.38)
        weights = PairWeightSpec(cutoff_d=cutoff_d)
        expected = window_loop_j(theta, field, weights, windows)
        assert np.array_equal(wsev_j(theta, field, weights, windows), expected)

    def test_positive_semidefinite(self, small_field):
        theta = StouParams(lam=1.0, c_tilde=1.0, sigma2=0.005, mu=0.4)
        windows = WindowSpec(window_nx=7, window_nt=7, step_x=3, step_t=3)
        J = wsev_j(theta, small_field, WEIGHTS, windows)
        eig = np.linalg.eigvalsh(J)
        assert eig.min() >= -1e-10 * max(np.trace(J), 1e-300)


class TestEstimationScenario:
    def test_free_names_normalized_to_canonical_order(self):
        scen = EstimationScenario(
            free=("mu", "lambda"), fixed_values={"c_tilde": 1.0, "sigma2": 0.005}
        )
        assert scen.free == ("lambda", "mu")
        np.testing.assert_array_equal(scen.free_indices(), [0, 3])

    def test_unknown_name_rejected(self):
        message = (r"^free: must be names in \('lambda', 'c_tilde', 'sigma2', 'mu'\), "
                   r"got \['rate'\]$")
        with pytest.raises(ValueError, match=message):
            EstimationScenario(free=("rate",), fixed_values={})

    def test_fixed_values_must_be_exact_complement(self):
        message = r"^fixed_values: must have keys \['c_tilde', 'mu', 'sigma2'\], got "
        with pytest.raises(ValueError, match=message + r"\['mu'\]$"):
            EstimationScenario(free=("lambda",), fixed_values={"mu": 0.0})
        every = r"\['c_tilde', 'lambda', 'mu', 'sigma2'\]$"
        with pytest.raises(ValueError, match=message + every):
            EstimationScenario(
                free=("lambda",),
                fixed_values={"c_tilde": 1.0, "sigma2": 0.005, "mu": 0.0, "lambda": 1.0},
            )

    def test_fixed_positives_validated(self):
        message = r": must be finite and > 0, got "
        with pytest.raises(ValueError, match=r"^fixed_values\['c_tilde'\]" + message + r"-1\.0$"):
            EstimationScenario(
                free=("lambda",),
                fixed_values={"c_tilde": -1.0, "sigma2": 0.005, "mu": 0.0},
            )
        with pytest.raises(ValueError, match=r"^fixed_values\['sigma2'\]" + message + "inf$"):
            EstimationScenario(
                free=("lambda",),
                fixed_values={"c_tilde": 1.0, "sigma2": math.inf, "mu": 0.0},
            )
        with pytest.raises(ValueError, match=r"^fixed_values\['mu'\]: must be finite, got nan$"):
            EstimationScenario(
                free=("lambda",),
                fixed_values={"c_tilde": 1.0, "sigma2": 0.005, "mu": math.nan},
            )
        # a non-number is refused by name, as a non-number c_tilde is
        with pytest.raises(ValueError, match=r"^fixed_values\['mu'\]: must be finite, got '0'$"):
            EstimationScenario(free=("lambda", "c_tilde", "sigma2"), fixed_values={"mu": "0"})

    def test_all_fixed_is_allowed(self):
        scen = EstimationScenario(
            free=(),
            fixed_values={"lambda": 1.0, "c_tilde": 1.0, "sigma2": 0.005, "mu": 0.4},
        )
        pinned = scen.pin(StouParams(lam=9.0, c_tilde=9.0, sigma2=9.0, mu=9.0))
        assert pinned == StouParams(lam=1.0, c_tilde=1.0, sigma2=0.005, mu=0.4)


def objective_args(field, scenario, theta):
    """(stats, free, pinned) as maximize_cl passes them to its objective."""
    pinned = scenario.pin(theta)
    profiled = [pinned.lam, pinned.c_tilde,
                None if "sigma2" in scenario.free else pinned.sigma2,
                None if "mu" in scenario.free else pinned.mu]
    free = [k for k in (0, 1) if PARAM_NAMES[k] in scenario.free]
    return cl._lag_stats(field, WEIGHTS), free, profiled


SCENARIOS = [
    EstimationScenario(free=PARAM_NAMES),
    EstimationScenario(free=("lambda", "c_tilde"), fixed_values={"sigma2": 0.006, "mu": 0.35}),
    EstimationScenario(free=("sigma2", "mu"), fixed_values={"lambda": 1.2, "c_tilde": 0.7}),
    EstimationScenario(
        free=("c_tilde",), fixed_values={"lambda": 0.9, "sigma2": 0.004, "mu": 0.41}
    ),
]


class TestObjective:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_bitwise_equal_to_negative_pairwise_loglik(self, small_field, scenario):
        """The objective is -pl at the theta it stands for: the rates from
        z, sigma2 and mu profiled where free, pinned elsewhere."""
        rng = np.random.default_rng(len(scenario.free))
        for _ in range(25):
            stats, free, pinned = objective_args(small_field, scenario, random_theta(rng))
            z = rng.normal(size=len(free)).tolist()
            lam, c_tilde, s2, mu = cl._with_rates(z, free, pinned)
            _, s2, mu = cl._neg_pl(lam, c_tilde, s2, mu, stats)
            full = StouParams(lam, c_tilde, s2, mu)
            value = cl._profile_objective(z, stats, free, pinned)
            assert value == -pairwise_loglik(full, small_field, WEIGHTS)
            # and no other sigma2 or mu does better at these rates
            for name in ("sigma2", "mu"):
                if name in scenario.free:
                    for step in (0.99, 1.01):
                        other = full.as_array()
                        other[PARAM_NAMES.index(name)] *= step
                        other_pl = pairwise_loglik(StouParams.from_array(other), small_field,
                                                   WEIGHTS)
                        assert other_pl < -value

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the 1e200 field
    def test_infinite_where_theta_or_correlation_is_invalid(self, small_field):
        scenario = SCENARIOS[0]
        args = objective_args(small_field, scenario, StouParams(1.0, 1.0, 0.005, 0.4))
        # lambda so small that the lag-1 temporal correlation reaches 1
        tiny = StouParams(1e-14, 1.0, 0.005, 0.4)
        with pytest.raises(CorrelationAtUnity):
            pairwise_loglik(tiny, small_field, WEIGHTS)
        assert cl._profile_objective([math.log(1e-14), 0.0], *args) == math.inf
        # exp overflow in c_tilde
        with pytest.raises(OverflowError):
            math.exp(1000.0)
        assert cl._profile_objective([0.0, 1000.0], *args) == math.inf
        # non-finite rates
        for z in ([math.nan, 0.0], [0.0, math.nan], [0.0, math.inf]):
            assert cl._profile_objective(z, *args) == math.inf
        # the profiled sigma2 is 0 on a constant field, and inf where the
        # sums overflow
        for value in (0.5, 1e200):
            flat = FieldSample(small_field.lattice, np.full(small_field.lattice.shape, value))
            stats, free, pinned = objective_args(flat, scenario, StouParams(1.0, 1.0, 0.005, 0.4))
            assert cl._profile_objective([0.0, 0.0], stats, free, pinned) == math.inf
        with pytest.raises(ValueError):  # log of the profiled sigma2 = 0
            cl._neg_pl(1.0, 1.0, None, 0.5, stats=cl._lag_stats(
                FieldSample(small_field.lattice, np.full(small_field.lattice.shape, 0.5)),
                WEIGHTS))


class TestMaximizeCl:
    def test_all_fixed_returns_pinned_start(self, small_field):
        scen = EstimationScenario(
            free=(),
            fixed_values={"lambda": 1.1, "c_tilde": 0.9, "sigma2": 0.004, "mu": 0.38},
        )
        start = StouParams(lam=5.0, c_tilde=5.0, sigma2=1.0, mu=0.0)
        est = maximize_cl(small_field, WEIGHTS, scen, start)
        assert est == scen.pin(start)

    def test_never_worse_than_start_and_near_truth(self, small_field, base_params):
        t = base_params
        scen = EstimationScenario(
            free=("lambda",),
            fixed_values={"c_tilde": t.c_tilde, "sigma2": t.sigma2, "mu": t.mu},
        )
        start = StouParams(lam=1.5 * t.lam, c_tilde=t.c_tilde, sigma2=t.sigma2, mu=t.mu)
        est = maximize_cl(small_field, WEIGHTS, scen, start)
        gain = pairwise_loglik(est, small_field, WEIGHTS) - pairwise_loglik(
            scen.pin(start), small_field, WEIGHTS
        )
        assert gain >= 0.0
        # one small field: expect the right order of magnitude only
        assert 0.3 <= est.lam <= 2.0

    def test_start_at_unit_correlation_returned_as_is(self, small_field):
        # c_tilde = 1e-14 puts every spatial pair at correlation 1, so pl
        # is undefined wherever the search could go
        scen = EstimationScenario(
            free=("sigma2", "mu"), fixed_values={"lambda": 1.0, "c_tilde": 1e-14}
        )
        start = StouParams(lam=1.0, c_tilde=1e-14, sigma2=0.005, mu=0.4)
        assert maximize_cl(small_field, WEIGHTS, scen, start) == start

    @pytest.mark.parametrize("free,pinned", [
        (("c_tilde", "sigma2", "mu"), {"lam": 1e-17}),
        (("lambda", "sigma2", "mu"), {"c_tilde": 1e-14}),
    ])
    def test_pinned_rate_at_unit_correlation_runs_no_search(self, small_field, base_params,
                                                            free, pinned):
        # the pinned rate alone puts every lag on its axis at correlation 1,
        # so pl is undefined at every value of the free rate
        start = dataclasses.replace(base_params, **pinned)
        scen = EstimationScenario.pinned_at(free, start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert maximize_cl(small_field, WEIGHTS, scen, start) == start
        with pytest.raises(CorrelationAtUnity):
            sandwich_ci(small_field, WEIGHTS, WindowSpec(window_nx=7, window_nt=7), scen,
                        start=start)

    def test_iteration_budget_warns(self, small_field, base_params):
        t = base_params
        scen = EstimationScenario(
            free=("lambda",),
            fixed_values={"c_tilde": t.c_tilde, "sigma2": t.sigma2, "mu": t.mu},
        )
        start = StouParams(lam=1.5, c_tilde=t.c_tilde, sigma2=t.sigma2, mu=t.mu)
        with pytest.warns(OptimizerDidNotConverge):
            maximize_cl(small_field, WEIGHTS, scen, start, max_iter=1)

    @pytest.mark.parametrize("edge", [
        {"lam": 1e-9}, {"c_tilde": 1e-9}, {"lam": 1e-10, "c_tilde": 1e-10}, {"lam": 3e-11},
    ])
    def test_start_next_to_unit_correlation_reaches_the_moment_start_fit(
            self, base_params, edge):
        # the profile is inf where a lag's correlation reaches 1; from a start
        # beside that edge the search must not stop on it
        lattice = Lattice(n_x=41, n_t=41, dx=0.05, dt=0.05)
        rng = np.random.default_rng(12)
        scen = EstimationScenario(free=PARAM_NAMES)
        for _ in range(5):
            field = exact_field(base_params, lattice, rng)
            start = fit_mm(field)
            want = pairwise_loglik(maximize_cl(field, WEIGHTS, scen, start), field, WEIGHTS)
            with warnings.catch_warnings():
                warnings.simplefilter("error", OptimizerDidNotConverge)
                est = maximize_cl(field, WEIGHTS, scen, dataclasses.replace(start, **edge))
            assert pairwise_loglik(est, field, WEIGHTS) >= want - 1e-12 * abs(want)


def summed_score(theta, field, weights):
    """score_u summed over all admissible pairs, and the sum of its
    absolute values, each of shape (4,)."""
    lat, d = field.lattice, weights.cutoff_d
    total, scale = np.zeros(4), np.zeros(4)
    lags = [(h, 0) for h in range(1, d + 1) if h < lat.n_t]
    for h_t, h_x in lags + [(0, h) for h in range(1, d + 1) if h < lat.n_x]:
        yi, yj = cl._pair_ends(field.values, h_t, h_x)
        d_t, d_x = h_t * lat.dt, h_x * lat.dx
        rho = rho_of(theta, d_t, d_x)
        grad = np.broadcast_to([-d_t * rho, -d_x * rho], yi.shape + (2,))
        u = score_u(theta, yi, yj, np.full(yi.shape, rho), grad)
        total += u.sum(axis=(0, 1))
        scale += np.abs(u).sum(axis=(0, 1))
    return total, scale


PROFILED_FREE = [
    rates + profiled
    for rates in [(), ("lambda",), ("c_tilde",), ("lambda", "c_tilde")]
    for profiled in [("sigma2",), ("mu",), ("sigma2", "mu")]
]


class TestProfile:
    """sigma2 and mu are profiled out of the fit in closed form."""

    @given(
        lam=st.floats(min_value=0.2, max_value=5.0),
        c_tilde=st.floats(min_value=0.2, max_value=5.0),
        n_t=st.integers(min_value=2, max_value=12),
        n_x=st.integers(min_value=2, max_value=12),
        pin_scale=st.floats(min_value=0.5, max_value=2.0),
        pin_shift=st.floats(min_value=-1.0, max_value=1.0),
        free=st.sampled_from(PROFILED_FREE),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_score_vanishes_in_free_sigma2_and_mu(
        self, lam, c_tilde, n_t, n_x, pin_scale, pin_shift, free, seed
    ):
        truth = StouParams(lam=lam, c_tilde=c_tilde, sigma2=0.01, mu=0.4)
        lat = Lattice(n_x=n_x, n_t=n_t, dx=0.05, dt=0.05)
        field = exact_field(truth, lat, np.random.default_rng(seed))
        pins = {"lambda": lam * pin_scale, "c_tilde": c_tilde / pin_scale,
                "sigma2": 0.01 * pin_scale, "mu": 0.4 + pin_shift}
        scen = EstimationScenario(
            free=free, fixed_values={n: v for n, v in pins.items() if n not in free}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizerDidNotConverge)
            est = maximize_cl(field, WEIGHTS, scen, truth)
        total, scale = summed_score(est, field, WEIGHTS)
        for name in ("sigma2", "mu"):
            k = PARAM_NAMES.index(name)
            if name in free:
                assert abs(total[k]) <= 1e-9 * scale[k]
            else:
                assert est.as_array()[k] == pins[name]

    @pytest.mark.parametrize("free", [("sigma2",), ("mu",), ("sigma2", "mu")])
    def test_closed_form_without_search(self, small_field, base_params, free):
        """With no free rate there is nothing to search: the fit returns
        the closed-form maximizers at the pinned rates, even with a
        budget of one iteration."""
        truth = base_params
        pins = {"lambda": 1.3, "c_tilde": 0.8, "sigma2": 0.02, "mu": 0.1}
        scen = EstimationScenario(
            free=free, fixed_values={n: v for n, v in pins.items() if n not in free}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizerDidNotConverge)
            est = maximize_cl(small_field, WEIGHTS, scen, truth, max_iter=1)
        # the maximizers, pair by pair
        lat = small_field.lattice
        pairs = brute_force_pairs(lat, WEIGHTS.cutoff_d)
        y = small_field.values
        a = np.array([y[ti, xi] for _, _, ti, xi, _, _ in pairs])
        b = np.array([y[tj, xj] for _, _, _, _, tj, xj in pairs])
        rho = np.array([math.exp(-1.3 * d_t - 0.8 * d_x) for d_t, d_x, *_ in pairs])
        mu = (np.sum((a + b) / (1.0 + rho)) / np.sum(2.0 / (1.0 + rho))
              if "mu" in free else pins["mu"])
        a, b = a - mu, b - mu
        s2 = (np.sum((a * a + b * b - 2.0 * rho * a * b) / (1.0 - rho * rho))
              / (2.0 * len(pairs)) if "sigma2" in free else pins["sigma2"])
        assert (est.lam, est.c_tilde) == (1.3, 0.8)
        assert all(type(v) is float for v in (est.lam, est.c_tilde, est.sigma2, est.mu))
        assert est.mu == pytest.approx(mu, rel=1e-12)
        assert est.sigma2 == pytest.approx(s2, rel=1e-12)

    @pytest.mark.parametrize("value", [0.0, 0.5, 0.37, -3.1, 1e3])
    @pytest.mark.parametrize("free", [
        PARAM_NAMES, ("sigma2",), ("mu",), ("sigma2", "mu"), ("lambda", "mu"),
        ("c_tilde", "sigma2"),
    ])
    def test_constant_field_never_nan(self, small_lattice, value, free):
        field = FieldSample(small_lattice, np.full(small_lattice.shape, value))
        start = StouParams(lam=1.0, c_tilde=1.0, sigma2=0.005, mu=0.4)
        pins = start.as_array()
        scen = EstimationScenario(
            free=free,
            fixed_values={n: float(v) for n, v in zip(PARAM_NAMES, pins) if n not in free},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizerDidNotConverge)
            est = maximize_cl(field, WEIGHTS, scen, start)
        assert np.all(np.isfinite(est.as_array()))
        assert pairwise_loglik(est, field, WEIGHTS) >= pairwise_loglik(start, field, WEIGHTS)

    def test_lag_terms_added_left_to_right(self, small_field, monkeypatch):
        """Builtin sum() compensates float rounding from Python 3.12 on; the
        lag terms must add left to right on every version."""
        # three lags with zero correlation (o = 1), whose B sums at mu = 0
        # are 1e16, 1 and -1e16
        stats = [(1e3, 0.0, 1, 0.0, s_2, 0.0) for s_2 in (1e16, 1.0, -1e16)]
        monkeypatch.setattr(cl, "_lag_stats", lambda field, weights: stats)
        theta = StouParams(lam=1.0, c_tilde=1.0, sigma2=1.0, mu=0.0)
        assert pairwise_loglik(theta, small_field, WEIGHTS) == 0.0


FISHER_SCENARIOS = SCENARIOS + [
    EstimationScenario(free=("lambda", "c_tilde", "mu"), fixed_values={"sigma2": 0.006}),
]


class TestFisherTerms:
    """The Fisher-scoring step's gradient and information against the
    module's references."""

    @pytest.mark.parametrize("scenario", FISHER_SCENARIOS)
    def test_gradient_matches_central_differences(self, small_field, scenario):
        rng = np.random.default_rng(len(scenario.free))
        h = 1e-5
        for _ in range(10):
            stats, free, pinned = objective_args(small_field, scenario, random_theta(rng))
            z = rng.normal(scale=0.5, size=len(free)).tolist()
            g, _ = cl._fisher_terms(z, stats, free, pinned)
            for k, rate in enumerate(free):
                up, down = ([zi + s * h * (i == k) for i, zi in enumerate(z)] for s in (1, -1))
                want = (cl._profile_objective(up, stats, free, pinned)
                        - cl._profile_objective(down, stats, free, pinned)) / (2.0 * h)
                assert g[rate] == pytest.approx(want, rel=1e-6, abs=1e-6)
            # a pinned rate has no gradient
            assert all(g[k] == 0.0 for k in (0, 1) if k not in free)

    @pytest.mark.parametrize("scenario", FISHER_SCENARIOS)
    def test_information_is_the_schur_complement_of_hessian_h(self, small_field, scenario):
        rng = np.random.default_rng(len(scenario.free))
        for _ in range(10):
            stats, free, pinned = objective_args(small_field, scenario, random_theta(rng))
            z = rng.normal(scale=0.5, size=len(free)).tolist()
            _, info = cl._fisher_terms(z, stats, free, pinned)
            lam, c_tilde, s2, mu = cl._with_rates(z, free, pinned)
            _, s2, mu = cl._neg_pl(lam, c_tilde, s2, mu, stats)
            H = hessian_h(StouParams(lam, c_tilde, s2, mu), small_field.lattice, WEIGHTS)
            # in log rates: the rate block scaled by the rates on both sides
            want = H[:2, :2] * np.outer([lam, c_tilde], [lam, c_tilde])
            if "sigma2" in scenario.free:
                cross = H[:2, 2] * [lam, c_tilde]
                want -= np.outer(cross, cross) / H[2, 2]
            sub = np.ix_(free, free)
            np.testing.assert_allclose(info[sub], want[sub], rtol=1e-12)
            # a pinned rate has a zero row and column
            pinned_rates = [k for k in (0, 1) if k not in free]
            assert not info[pinned_rates].any() and not info[:, pinned_rates].any()

    def test_rate_without_pairs_is_not_moved(self):
        """With one column there are no spatial pairs: both rates free give
        the lambda-only fit's lambda."""
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=1, n_t=60, dx=0.05, dt=0.05)
        field = exact_field(p, lat, np.random.default_rng(1))
        start = StouParams(lam=1.0, c_tilde=1.0, sigma2=p.sigma2, mu=p.mu)
        both = EstimationScenario.pinned_at(("lambda", "c_tilde"), start)
        lam_only = EstimationScenario.pinned_at(("lambda",), start)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizerDidNotConverge)
            est = maximize_cl(field, WEIGHTS, both, start)
            want = maximize_cl(field, WEIGHTS, lam_only, start)
        assert est.c_tilde == start.c_tilde
        assert est.lam == pytest.approx(want.lam, rel=1e-12)


class TestWsevJMatchesPerPairScores:
    """wsev_j's window sums against J from score_u's per-pair scores."""

    WINDOWS = [WindowSpec(window_nx=7, window_nt=7, step_x=3, step_t=3),
               WindowSpec(window_nx=4, window_nt=9, step_x=1, step_t=2)]

    @staticmethod
    def assert_matches(theta, field, windows):
        want = per_pair_j(theta, field, WEIGHTS, windows)
        got = wsev_j(theta, field, WEIGHTS, windows)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("scenario", FISHER_SCENARIOS)
    def test_at_scenario_thetas(self, small_field, scenario):
        """At pinned random thetas and at the scenario's CL fit."""
        rng = np.random.default_rng(len(scenario.free))
        thetas = [scenario.pin(random_theta(rng)) for _ in range(5)]
        thetas.append(maximize_cl(small_field, WEIGHTS, scenario, fit_mm(small_field)))
        for theta in thetas:
            for windows in self.WINDOWS:
                self.assert_matches(theta, small_field, windows)

    def test_large_mean_over_variance(self, small_field):
        """mu^2 / sigma2 is about 1.5e7 at the fit: window sums of raw
        values would lose about seven digits to cancellation."""
        field = FieldSample(small_field.lattice, small_field.values + 100.0)
        theta = maximize_cl(field, WEIGHTS, EstimationScenario(free=PARAM_NAMES),
                            fit_mm(field))
        assert theta.mu ** 2 / theta.sigma2 >= 1e5
        for windows in self.WINDOWS:
            self.assert_matches(theta, field, windows)


BOWL_MIN = [18.0 / 11.0, -14.0 / 11.0]


def walled_bowl(z):
    """A convex quadratic, inf where z[0] < 0.  Its gradient,
    (2 (z0 - 1) + z1, 6 (z1 + 1) + z0), vanishes at BOWL_MIN, and its
    Hessian is [[2, 1], [1, 6]]."""
    if z[0] < 0.0:
        return math.inf
    return (z[0] - 1.0) ** 2 + 3.0 * (z[1] + 1.0) ** 2 + z[0] * z[1]


def bowl_step(z):
    """The exact Newton step of walled_bowl's quadratic at z."""
    g = [2.0 * (z[0] - 1.0) + z[1], 6.0 * (z[1] + 1.0) + z[0]]
    return (-np.linalg.solve([[2.0, 1.0], [1.0, 6.0]], g)).tolist()


class TestNewton:
    def test_quadratic_minimized_by_one_newton_step(self):
        calls = []

        def f(z):
            calls.append(z)
            return walled_bowl(z)

        z, converged = cl._newton(f, bowl_step, [2.0, -0.5], max_iter=50)  # within unit length
        assert converged
        assert z == pytest.approx(BOWL_MIN, abs=1e-6)
        # the first iteration lands there, the second finds nothing lower
        assert len(calls) <= 1 + 2 * 7

    def test_long_newton_steps_cut_to_unit_length(self):
        z0 = [20.0, 20.0]
        trials = []

        def f(z):
            trials.append(z)
            return walled_bowl(z)

        assert math.hypot(*bowl_step(z0)) > 1.0
        assert cl._newton(f, bowl_step, z0, max_iter=100)[0] == pytest.approx(BOWL_MIN, abs=1e-6)
        # the first trial point, after the start, is one step away
        assert math.dist(trials[1], z0) == pytest.approx(1.0)

    def test_inf_start_returned_as_is(self):
        assert cl._newton(walled_bowl, bowl_step, [-1.0, 0.0], max_iter=50) == ([-1.0, 0.0], True)

    def test_iteration_budget(self):
        z, converged = cl._newton(walled_bowl, bowl_step, [3.0, 2.0], max_iter=1)
        assert not converged and walled_bowl(z) < walled_bowl([3.0, 2.0])

    def test_flat_objective_stops_at_once(self):
        result = cl._newton(lambda z: 1.0, lambda z: [0.0, 0.0], [0.3, 0.4], max_iter=50)
        assert result == ([0.3, 0.4], True)


def scipy_nelder_mead(f, x0, max_iter, xatol, fatol):
    """(x, fun, success) of scipy's Nelder-Mead from x0, as floats."""
    import scipy.optimize

    res = scipy.optimize.minimize(
        f, np.array(x0), method="Nelder-Mead",
        options={"maxiter": max_iter, "xatol": xatol, "fatol": fatol},
    )
    return res.x.tolist(), float(res.fun), bool(res.success)


def random_quadratic(rng, n):
    """A convex quadratic in n coordinates, taking arrays or lists, and
    its exact Newton step."""
    a = rng.normal(size=(n, n))
    hess = (a @ a.T + 0.1 * np.eye(n)).tolist()
    centre = rng.normal(size=n).tolist()

    def f(x):
        d = [float(v) - c for v, c in zip(x, centre)]
        return sum(d[i] * hess[i][j] * d[j] for i in range(n) for j in range(n))

    return f, lambda x: [c - float(v) for v, c in zip(x, centre)]


def plateaus(x):
    """Integer steps of 4 |x|^2, with ties everywhere and an inf half-plane."""
    x = [float(v) for v in x]
    if x[0] > 1.5:
        return math.inf
    return float(math.floor(4.0 * sum(v * v for v in x)))


def plateaus_step(x):
    """The Newton step of plateaus' smooth quadratic 4 |x|^2."""
    return [-float(v) for v in x]


class TestNelderMead:
    """cl._newton on the problems that once pinned the fit's simplex,
    against scipy's Nelder-Mead where the two searches can be compared."""

    @pytest.mark.parametrize("max_iter", [1, 2, 2000])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_quadratics(self, n, max_iter):
        """Never worse than the simplex on the same iteration budget; with
        a full budget, at the minimum to within the simplex's fatol."""
        rng = np.random.default_rng(10 * n + max_iter)
        for _ in range(10):
            f, step = random_quadratic(rng, n)
            x0 = (rng.normal(size=n) * 3.0).tolist()
            x0[rng.integers(n)] = 0.0
            tol = float(10.0 ** rng.uniform(-10, -2))
            z, converged = cl._newton(f, step, x0, max_iter)
            _, oracle, oracle_converged = scipy_nelder_mead(f, x0, max_iter, tol, tol)
            assert f(z) <= f(x0)
            assert f(z) <= oracle + (tol if oracle_converged else 0.0)
            if max_iter == 2000:
                assert converged and oracle_converged

    @pytest.mark.parametrize("max_iter", [1, 2, 2000])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tied_plateaus_and_inf_regions(self, n, max_iter):
        """A flat plateau stops the search as converged: the bottom one at
        once, any other start once the search reaches the bottom.  It never
        steps into the inf region; an inf start is returned as is."""
        rng = np.random.default_rng(n + max_iter)
        for _ in range(40):
            x0 = rng.uniform(-1.0, 1.6, size=n).tolist()
            z, converged = cl._newton(plateaus, plateaus_step, x0, max_iter)
            if max_iter == 2000 or plateaus(x0) in (0.0, math.inf):
                assert converged
            if plateaus(x0) == math.inf:
                assert z == x0
            else:
                assert plateaus(z) <= plateaus(x0)

    @pytest.mark.parametrize("max_iter", [1, 2, 2000])
    def test_nan_objective(self, max_iter):
        """A NaN region is never entered, and a NaN start is not left."""
        def partly_nan(x):
            x = [float(v) for v in x]
            return math.nan if x[1] < -0.3 else (x[0] - 1.0) ** 2 + (x[1] + 1.0) ** 2

        def smooth_step(x):  # the Newton step of the quadratic
            return [1.0 - float(x[0]), -1.0 - float(x[1])]

        rng = np.random.default_rng(max_iter)
        for _ in range(10):
            x0 = rng.uniform(-1.0, 1.0, size=2).tolist()
            z, _ = cl._newton(partly_nan, smooth_step, x0, max_iter)
            if math.isnan(partly_nan(x0)):
                assert z == x0
            else:
                assert partly_nan(z) <= partly_nan(x0)


def old_lag_stats(field, weights):
    """Per-lag (d_t, d_x, n, s_a, s_b, s_aa, s_bb, s_ab), as the
    four-dimensional fit summarized each lag."""
    lat, d = field.lattice, weights.cutoff_d
    out = []
    lags = [(h, 0) for h in range(1, d + 1) if h < lat.n_t]
    for h_t, h_x in lags + [(0, h) for h in range(1, d + 1) if h < lat.n_x]:
        yi, yj = cl._pair_ends(field.values, h_t, h_x)
        out.append((
            h_t * lat.dt, h_x * lat.dx, yi.size,
            float(yi.sum()), float(yj.sum()),
            float((yi * yi).sum()), float((yj * yj).sum()), float((yi * yj).sum()),
        ))
    return out


def old_lag_loglik(lam, c_tilde, s2, mu, stats):
    """Sum of the pair terms at one lag, from its old_lag_stats entry."""
    d_t, d_x, n, s_a, s_b, s_aa, s_bb, s_ab = stats
    rho = math.exp(-lam * d_t - c_tilde * d_x)
    if rho >= 1.0 - cl._RHO_TOL:
        raise CorrelationAtUnity("pair correlation too close to 1")
    one = 1.0 - rho * rho
    sum_a2 = s_aa - 2.0 * mu * s_a + n * mu * mu
    sum_b2 = s_bb - 2.0 * mu * s_b + n * mu * mu
    sum_ab = s_ab - mu * (s_a + s_b) + n * mu * mu
    sum_B = sum_a2 + sum_b2 - 2.0 * rho * sum_ab
    return -0.5 * (n * (2.0 * math.log(s2) + math.log(one)) + sum_B / (s2 * one))


def old_untransform(z, free, pinned):
    full = pinned.copy()
    for (idx, logged), zk in zip(free, z):
        full[idx] = math.exp(zk) if logged else zk
    return full


def old_neg_pl(z, stats, free, pinned):
    """-pl at the transformed free coordinates z of all four; inf where
    theta is invalid or a pair correlation reaches 1."""
    try:
        lam, c_tilde, s2, mu = old_untransform(z.tolist(), free, pinned)
        if not (0.0 < lam < math.inf and 0.0 < c_tilde < math.inf
                and 0.0 < s2 < math.inf and math.isfinite(mu)):
            return math.inf
        return -sum(old_lag_loglik(lam, c_tilde, s2, mu, lag) for lag in stats)
    except (CorrelationAtUnity, ValueError, OverflowError):
        return math.inf


def scipy_maximize_cl(field, weights, scenario, start, max_iter=2000):
    """maximize_cl as it was before sigma2 and mu were profiled out: a
    simplex over all free coordinates (log-scaled but for mu), with
    scipy's Nelder-Mead doing the search."""
    import scipy.optimize

    pinned = scenario.pin(start)
    free = [(PARAM_NAMES.index(n), n != "mu") for n in scenario.free]
    pinned_vals = pinned.as_array().tolist()
    args = (old_lag_stats(field, weights), free, pinned_vals)
    z0 = np.array([math.log(pinned_vals[i]) if logged else pinned_vals[i]
                   for i, logged in free])
    f0 = old_neg_pl(z0, *args)
    scale = max(1.0, abs(f0)) if math.isfinite(f0) else 1.0
    for _ in range(2):
        res = scipy.optimize.minimize(
            old_neg_pl, z0, args=args, method="Nelder-Mead",
            options={"maxiter": max_iter, "fatol": 1e-8 * scale, "xatol": 1e-6},
        )
        z0 = res.x
        scale = max(1.0, abs(res.fun)) if math.isfinite(res.fun) else scale
    theta = StouParams(*old_untransform(z0.tolist(), free, pinned_vals))
    if math.isfinite(f0) and old_neg_pl(z0, *args) > f0:
        return pinned
    return theta


@pytest.fixture(scope="module")
def fields_200(base_params):
    lattice = Lattice(n_x=9, n_t=9, dx=0.05, dt=0.05)
    rng = np.random.default_rng(2016)
    return [exact_field(base_params, lattice, rng) for _ in range(200)]


def simplex_profile_fit(field, scenario, start, max_iter=2000):
    """maximize_cl's profile searched by scipy's Nelder-Mead, with the
    options of the simplex the fit ran before its Newton search: xatol
    1e-6, fatol 1e-8 relative to the start's value, and one restart from
    the incumbent."""
    import scipy.optimize

    stats, free, pinned = objective_args(field, scenario, start)
    z = [math.log(pinned[k]) for k in free]
    if free:
        def objective(z):
            return cl._profile_objective(z.tolist(), stats, free, pinned)

        f0 = objective(np.array(z))
        scale = max(1.0, abs(f0)) if math.isfinite(f0) else 1.0
        for _ in range(2):
            res = scipy.optimize.minimize(
                objective, np.array(z), method="Nelder-Mead",
                options={"maxiter": max_iter, "xatol": 1e-6, "fatol": 1e-8 * scale},
            )
            z = res.x.tolist()
            scale = max(1.0, abs(res.fun)) if math.isfinite(res.fun) else scale
    lam, c_tilde, s2, mu = cl._with_rates(z, free, pinned)
    _, s2, mu = cl._neg_pl(lam, c_tilde, s2, mu, stats)
    return StouParams(lam, c_tilde, s2, mu)


def truth_pinned(base_params, free):
    truth = dict(zip(PARAM_NAMES, base_params.as_array()))
    return EstimationScenario(
        free=free, fixed_values={n: truth[n] for n in PARAM_NAMES if n not in free}
    )


class TestMaximizeClMatchesScipy:
    @pytest.mark.parametrize("free", [
        PARAM_NAMES, ("lambda", "c_tilde"), ("sigma2",), ("lambda", "mu"),
        ("c_tilde",), ("c_tilde", "sigma2", "mu"),
    ])
    def test_pl_never_below_simplex_over_200_fields(self, fields_200, base_params, free):
        """The Fisher-scoring search does at least as well as a simplex on
        the same profile, up to rounding."""
        scen = truth_pinned(base_params, free)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizerDidNotConverge)
            for field in fields_200:
                start = fit_mm(field, max_lag=5)
                ours = pairwise_loglik(maximize_cl(field, WEIGHTS, scen, start), field, WEIGHTS)
                oracle = pairwise_loglik(
                    simplex_profile_fit(field, scen, start), field, WEIGHTS
                )
                assert ours >= oracle - 1e-12 * abs(oracle)

    @pytest.mark.parametrize("free", [("lambda",), ("lambda", "c_tilde", "sigma2")])
    def test_start_beside_unit_correlation(self, small_field, base_params, free):
        """A start whose lambda lies just above the value that puts the
        lag-1 temporal correlation at 1, so the objective is inf one finite
        difference step below it."""
        scen = truth_pinned(base_params, free)
        dt = small_field.lattice.dt
        for factor in np.linspace(1.0, 1.001, 41):
            start = dataclasses.replace(base_params, lam=factor * 1e-12 / dt)
            stats, rates, pinned = objective_args(small_field, scen, start)
            z = [math.log(pinned[k]) for k in rates]
            below = [z[0] - 1e-4] + z[1:]
            if (cl._profile_objective(below, stats, rates, pinned) == math.inf
                    and cl._profile_objective(z, stats, rates, pinned) < math.inf):
                break
        else:
            pytest.fail("no start beside the unit-correlation edge")
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizerDidNotConverge)
            est = maximize_cl(small_field, WEIGHTS, scen, start)
        ours = pairwise_loglik(est, small_field, WEIGHTS)
        # the same maximum as from the truth
        from_truth = maximize_cl(small_field, WEIGHTS, scen, base_params)
        assert ours == pytest.approx(pairwise_loglik(from_truth, small_field, WEIGHTS),
                                     rel=1e-12)
        oracle = pairwise_loglik(simplex_profile_fit(small_field, scen, start),
                                 small_field, WEIGHTS)
        assert ours >= oracle - 1e-12 * abs(oracle)

    @pytest.mark.parametrize("free", [
        PARAM_NAMES, ("lambda", "c_tilde"), ("sigma2",), ("lambda", "mu"),
    ])
    def test_pl_never_below_oracle_over_200_fields(self, fields_200, base_params, free):
        truth = dict(zip(PARAM_NAMES, base_params.as_array()))
        scen = EstimationScenario(
            free=free, fixed_values={n: truth[n] for n in PARAM_NAMES if n not in free}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizerDidNotConverge)
            for field in fields_200:
                start = fit_mm(field, max_lag=5)
                ours = pairwise_loglik(maximize_cl(field, WEIGHTS, scen, start), field, WEIGHTS)
                oracle = pairwise_loglik(
                    scipy_maximize_cl(field, WEIGHTS, scen, start), field, WEIGHTS
                )
                assert ours >= oracle - 1e-8 * abs(oracle)


@pytest.fixture(scope="module")
def result(small_field):
    scen = EstimationScenario(free=PARAM_NAMES)
    windows = WindowSpec(window_nx=7, window_nt=7, step_x=3, step_t=3)
    return sandwich_ci(small_field, WEIGHTS, windows, scen)


class TestSandwichCi:
    def test_reports_free_and_derived_parameters(self, result):
        assert set(result.intervals) == {
            "lambda", "c_tilde", "sigma2", "mu", "c", "tau", "mu_seed",
        }
        for name, iv in result.intervals.items():
            assert iv.lower <= iv.point <= iv.upper, name
            assert result.standard_errors[name] > 0.0

    def test_interval_half_width_is_normal_quantile(self, result):
        for name, iv in result.intervals.items():
            half = (iv.upper - iv.lower) / 2.0
            assert half == pytest.approx(
                1.959964 * result.standard_errors[name], rel=1e-5
            )

    def test_derived_interval_transforms_when_scale_is_fixed(self, small_field, base_params):
        # with c_tilde pinned, c = lambda / c_tilde is a linear map of the
        # only free coordinate, so its CI is the mapped lambda CI
        t = base_params
        scen = EstimationScenario(
            free=("lambda",),
            fixed_values={"c_tilde": t.c_tilde, "sigma2": t.sigma2, "mu": t.mu},
        )
        windows = WindowSpec(window_nx=7, window_nt=7, step_x=3, step_t=3)
        res = sandwich_ci(small_field, WEIGHTS, windows, scen)
        lam_iv = res.intervals["lambda"]
        c_iv = res.intervals["c"]
        assert c_iv.lower == pytest.approx(lam_iv.lower / t.c_tilde, rel=1e-10)
        assert c_iv.upper == pytest.approx(lam_iv.upper / t.c_tilde, rel=1e-10)

    def test_level_validated(self, small_field):
        scen = EstimationScenario(free=PARAM_NAMES)
        windows = WindowSpec(window_nx=7, window_nt=7)
        with pytest.raises(ValueError, match=r"^level: must be in \(0, 1\), got 1.0$"):
            sandwich_ci(small_field, WEIGHTS, windows, scen, level=1.0)

    def test_all_fixed_rejected(self, small_field):
        scen = EstimationScenario(
            free=(),
            fixed_values={"lambda": 1.0, "c_tilde": 1.0, "sigma2": 0.005, "mu": 0.4},
        )
        windows = WindowSpec(window_nx=7, window_nt=7)
        with pytest.raises(ValueError, match="^scenario: must leave at least one parameter free$"):
            sandwich_ci(small_field, WEIGHTS, windows, scen)

    def test_unidentified_rate_raises_singular(self):
        # purely temporal data cannot identify the spatial rate
        p = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
        lat = Lattice(n_x=1, n_t=60, dx=0.05, dt=0.05)
        field = exact_field(p, lat, np.random.default_rng(1))
        t = p
        scen = EstimationScenario(
            free=("lambda", "c_tilde"), fixed_values={"sigma2": t.sigma2, "mu": t.mu}
        )
        start = StouParams(lam=1.0, c_tilde=1.0, sigma2=t.sigma2, mu=t.mu)
        with pytest.raises(SingularH):
            sandwich_ci(
                field, WEIGHTS, WindowSpec(window_nx=2, window_nt=5), scen, start=start
            )

    def test_lambda_pinned_at_unit_correlation_is_a_typed_error(self, small_field):
        scen = EstimationScenario(
            free=("sigma2", "mu"), fixed_values={"lambda": 1e-17, "c_tilde": 1.0}
        )
        with pytest.raises(CorrelationAtUnity):
            sandwich_ci(small_field, WEIGHTS, WindowSpec(window_nx=7, window_nt=7), scen)


class TestSandwichRegime:
    @given(
        n_x=st.integers(2, 9), n_t=st.integers(2, 9), lam=st.floats(0.05, 20.0),
        c_tilde=st.floats(0.05, 20.0), dx=st.floats(0.01, 1.0), dt=st.floats(0.01, 1.0),
        cutoff_d=st.integers(1, 9), window_nx=st.integers(2, 9), window_nt=st.integers(2, 9),
        step_x=st.integers(1, 3), step_t=st.integers(1, 3),
        free=st.sampled_from([PARAM_NAMES, ("lambda", "c_tilde"), ("lambda",),
                              ("c_tilde", "mu"), ("sigma2", "mu")]),
        from_truth=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_finite_intervals_or_typed_error(self, n_x, n_t, lam, c_tilde, dx, dt, cutoff_d,
                                             window_nx, window_nt, step_x, step_t, free,
                                             from_truth, seed):
        """On a field drawn from the model: finite intervals, or a
        StouError; never NaN, nor a numpy overflow or invalid value."""
        truth = StouParams(lam=lam, c_tilde=c_tilde, sigma2=0.01, mu=0.4)
        lat = Lattice(n_x=n_x, n_t=n_t, dx=dx, dt=dt)
        windows = WindowSpec(window_nx, window_nt, step_x, step_t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CovarianceJitter)
            warnings.simplefilter("ignore", OptimizerDidNotConverge)
            warnings.simplefilter("error", RuntimeWarning)
            try:
                field = exact_field(truth, lat, np.random.default_rng(seed))
                res = sandwich_ci(field, PairWeightSpec(cutoff_d), windows,
                                  EstimationScenario.pinned_at(free, truth),
                                  start=truth if from_truth else None)
            except StouError:
                return
        for iv in res.intervals.values():
            assert all(math.isfinite(v) for v in (iv.lower, iv.point, iv.upper))

    def test_variance_whose_square_underflows_is_a_typed_error(self, small_field):
        # sigma2 about 4e-303: the sigma2 score and hessian_h divide by
        # sigma2 * sigma2, which underflows to 0
        tiny = FieldSample(lattice=small_field.lattice, values=1e-150 * small_field.values)
        start = fit_mm(tiny)
        for free in (PARAM_NAMES, ("sigma2", "mu")):
            scenario = EstimationScenario.pinned_at(free, start)
            with pytest.raises(DegenerateSample, match="^sigma2: its square underflows to 0"):
                sandwich_ci(tiny, WEIGHTS, WindowSpec(7, 7), scenario, start=start)
        with pytest.raises(DegenerateSample, match="^sigma2: "):
            maximize_cl(tiny, WEIGHTS, EstimationScenario.pinned_at(PARAM_NAMES, start), start)
        with pytest.raises(DegenerateSample, match="^sigma2: "):
            hessian_h(dataclasses.replace(start, sigma2=1e-300), small_field.lattice, WEIGHTS)
        with pytest.raises(DegenerateSample, match="^sigma2: "):
            wsev_j(dataclasses.replace(start, sigma2=1e-300), tiny, WEIGHTS, WindowSpec(7, 7))


class TestSpecValidation:
    def test_pair_weight_spec(self):
        with pytest.raises(ValueError):
            PairWeightSpec(cutoff_d=0)

    def test_window_spec(self):
        with pytest.raises(ValueError):
            WindowSpec(window_nx=1, window_nt=5)
        with pytest.raises(ValueError):
            WindowSpec(window_nx=5, window_nt=5, step_x=0)
