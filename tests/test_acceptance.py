"""Acceptance checklist for the whole package.

Each numbered test checks one end-to-end claim at its stated tolerance
and prints a single ``ACCEPTANCE criterion N PASS`` line with the
measured numbers (visible under ``pytest -rA`` or ``-s``); the pytest
verdict itself is the pass/fail record.  Total runtime is about a
minute.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from stou import (
    AcfEstimate,
    EstimationScenario,
    GridSimConfig,
    Lattice,
    PairWeightSpec,
    StouError,
    StouParams,
    WindowSpec,
    build_covariance,
    cholesky_factor,
    coverage_experiment,
    hessian_h,
    l_pair,
    mm_from_moments,
    sandwich_ci,
    score_u,
    simulate_grid,
    wsev_j,
)
from stou.experiment import ExperimentConfig, run

from conftest import exact_field, exact_fields_in_turn, factor_product


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


def test_criterion_1_pair_density_matches_bivariate_normal():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        theta, d_t, d_x, y_i, y_j = random_pair_input(rng)
        rho = rho_of(theta, d_t, d_x)
        cov = theta.sigma2 * np.array([[1.0, rho], [rho, 1.0]])
        ref = scipy.stats.multivariate_normal(
            mean=[theta.mu, theta.mu], cov=cov
        ).logpdf([y_i, y_j]) + math.log(2.0 * math.pi)
        worst = max(worst, abs(float(l_pair(theta, y_i, y_j, rho)) - float(ref)))
    assert worst <= 1e-10
    print(f"ACCEPTANCE criterion 1 PASS: max |l_pair - reference| = {worst:.2e} <= 1e-10")


def test_criterion_2_score_matches_finite_differences():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        theta, d_t, d_x, y_i, y_j = random_pair_input(rng)
        rho = rho_of(theta, d_t, d_x)
        grad_rho = rho * np.array([-d_t, -d_x])
        an = score_u(theta, y_i, y_j, rho, grad_rho)

        arr = theta.as_array()
        h = 1e-6 * np.abs(arr)
        h[3] = 1e-6 * max(1.0, abs(arr[3]))
        fd = np.empty(4)
        for i in range(4):
            lo, hi = arr.copy(), arr.copy()
            lo[i] -= h[i]
            hi[i] += h[i]
            t_lo, t_hi = StouParams.from_array(lo), StouParams.from_array(hi)
            f_lo = l_pair(t_lo, y_i, y_j, rho_of(t_lo, d_t, d_x))
            f_hi = l_pair(t_hi, y_i, y_j, rho_of(t_hi, d_t, d_x))
            fd[i] = (float(f_hi) - float(f_lo)) / (2.0 * h[i])
        rel = float(np.max(np.abs(fd - an)) / np.max(np.abs(an)))
        worst = max(worst, rel)
    assert worst <= 1e-6
    print(f"ACCEPTANCE criterion 2 PASS (score): max relative error = {worst:.2e} <= 1e-6")


def test_criterion_2_expected_information_matches_monte_carlo():
    theta = StouParams(lam=1.0, c_tilde=1.0, sigma2=0.005, mu=0.4)
    lat = Lattice(n_x=4, n_t=4, dx=0.05, dt=0.05)
    weights = PairWeightSpec(cutoff_d=3)
    H_an = hessian_h(theta, lat, weights)

    cov = build_covariance(theta, lat)
    rows = cholesky_factor(cov)
    nrep = 20000
    rng = np.random.default_rng(314)
    Z = rng.standard_normal((lat.n, nrep))
    fields = (theta.mu + factor_product(cov.basis, rows, Z).T).reshape(nrep, lat.n_t, lat.n_x)

    # per-field pairwise log-likelihood from axis-lag sufficient statistics
    stats = []
    for h in range(1, 4):
        for yi, yj, d_t, d_x in (
            (fields[:, :-h, :], fields[:, h:, :], h * lat.dt, 0.0),
            (fields[:, :, :-h], fields[:, :, h:], 0.0, h * lat.dx),
        ):
            yi = yi.reshape(nrep, -1)
            yj = yj.reshape(nrep, -1)
            stats.append(
                (d_t, d_x, yi.shape[1], yi.sum(1), yj.sum(1),
                 (yi * yi).sum(1), (yj * yj).sum(1), (yi * yj).sum(1))
            )

    def pl_vec(v):
        lam, ct, s2, mu = v
        out = np.zeros(nrep)
        for d_t, d_x, n, sa, sb, saa, sbb, sab in stats:
            rho = math.exp(-lam * d_t - ct * d_x)
            one = 1.0 - rho * rho
            qa = saa - 2 * mu * sa + n * mu * mu
            qb = sbb - 2 * mu * sb + n * mu * mu
            qab = sab - mu * (sa + sb) + n * mu * mu
            quad = qa + qb - 2 * rho * qab
            out += -0.5 * (n * (2 * math.log(s2) + math.log(one)) + quad / (s2 * one))
        return out

    v0 = theta.as_array()
    hs = 3e-2 * np.abs(v0)
    H_fd = np.zeros((4, 4, nrep))
    for i in range(4):
        for j in range(i, 4):
            ei = np.zeros(4)
            ei[i] = hs[i]
            if i == j:
                H_fd[i, i] = (pl_vec(v0 + ei) - 2 * pl_vec(v0) + pl_vec(v0 - ei)) / hs[i] ** 2
            else:
                ej = np.zeros(4)
                ej[j] = hs[j]
                H_fd[i, j] = H_fd[j, i] = (
                    pl_vec(v0 + ei + ej) - pl_vec(v0 + ei - ej)
                    - pl_vec(v0 - ei + ej) + pl_vec(v0 - ei - ej)
                ) / (4.0 * hs[i] * hs[j])

    mean_fd = H_fd.mean(axis=2)
    se_fd = H_fd.std(axis=2, ddof=1) / math.sqrt(nrep)
    dev = np.abs(H_an + mean_fd)
    # the mu-mu entry of pl is quadratic, so its FD value is deterministic
    # and its MC standard error is pure roundoff; keep a roundoff floor
    band = 3.0 * se_fd + 1e-9 * (1.0 + np.abs(H_an))
    assert np.all(dev <= band), f"max excess {np.max(dev - band):.3e}"
    worst = float(np.max(dev / band))
    print(
        "ACCEPTANCE criterion 2 PASS (hessian): "
        f"max |H + mean FD(pl'')| / band = {worst:.2f} <= 1 over {nrep} fields"
    )


def _across_rep_corr(fields: np.ndarray, axis: int) -> float:
    """Mean over site pairs of the across-replication lag-1 correlation."""
    if axis == 0:
        a = fields[:, :-1, :], fields[:, 1:, :]
    else:
        a = fields[:, :, :-1], fields[:, :, 1:]
    u = a[0].reshape(fields.shape[0], -1)
    v = a[1].reshape(fields.shape[0], -1)
    um, vm = u.mean(0), v.mean(0)
    r = ((u - um) * (v - vm)).mean(0) / (u.std(0) * v.std(0))
    return float(r.mean())


def test_criterion_3_simulator_lag_one_correlations():
    truth = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
    lat = Lattice(n_x=31, n_t=31, dx=0.05, dt=0.05)
    target = math.exp(-0.05)
    n_rep = 500

    rng = np.random.default_rng(33)
    exact = np.stack([field.values for field in exact_fields_in_turn(truth, lat, rng, n_rep)])
    dev_exact = max(
        abs(_across_rep_corr(exact, 0) - target),
        abs(_across_rep_corr(exact, 1) - target),
    )
    assert dev_exact <= 0.03

    cfg = GridSimConfig(truncation_p=200, cells_per_obs_cell=1)  # depth 200*dt = 10
    rng = np.random.default_rng(34)
    grid = np.stack(
        [simulate_grid(truth, lat, cfg, rng).values for _ in range(n_rep)]
    )
    dev_grid = max(
        abs(_across_rep_corr(grid, 0) - target),
        abs(_across_rep_corr(grid, 1) - target),
    )
    assert dev_grid <= 0.05
    print(
        "ACCEPTANCE criterion 3 PASS: lag-1 correlation deviation "
        f"exact {dev_exact:.4f} <= 0.03, grid {dev_grid:.4f} <= 0.05 "
        f"(target e^-0.05, {n_rep} replications)"
    )


def test_criterion_4_moment_fit_inverts_population_moments():
    lags = np.arange(1, 6)
    worst = 0.0
    for lam, c, mu_seed, tau2 in (
        (1.7, 0.8, -0.3, 0.02),
        (1.0, 1.0, 0.2, 0.01),
        (0.4, 2.5, 1.5, 0.5),
        (3.0, 0.3, -1.0, 0.09),
    ):
        truth = StouParams.natural(lam=lam, c=c, mu_seed=mu_seed, tau2=tau2)
        dt = min(0.05, 1.0 / truth.lam)
        dx = min(0.05, 1.0 / truth.c_tilde)
        acf_t = AcfEstimate(
            axis="temporal", lags=lags, values=np.exp(-truth.lam * lags * dt)
        )
        acf_x = AcfEstimate(
            axis="spatial", lags=lags, values=np.exp(-truth.c_tilde * lags * dx)
        )
        est = mm_from_moments(acf_t, acf_x, mean=truth.mu, var=truth.sigma2, dt=dt, dx=dx)
        for got, want in (
            (est.lam, lam), (est.c, c), (est.mu_seed, mu_seed), (est.tau2, tau2),
        ):
            worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-10
    print(f"ACCEPTANCE criterion 4 PASS: max relative error = {worst:.2e} <= 1e-10")


@pytest.fixture(scope="module")
def trend_reports():
    lat = Lattice(n_x=41, n_t=41, dx=0.05, dt=0.05)
    cov, prox = {}, {}
    for lam in (1.0, 2.0, 4.0):
        truth = StouParams.natural(lam=lam, c=1.0, mu_seed=0.2, tau2=0.01)
        rep = coverage_experiment(
            truth, lat, n_datasets=50, B=50, level=0.95,
            simulator="exact", rng=np.random.default_rng(2026),
        )
        entry = rep.entries["lambda"]
        cov[lam] = entry.coverage
        prox[lam] = entry.mean_proxy
    return cov, prox


def test_criterion_5_coverage_improves_with_faster_decay(trend_reports):
    cov, _ = trend_reports
    p1, p4 = cov[1.0], cov[4.0]
    pbar = 0.5 * (p1 + p4)
    z = (p4 - p1) / math.sqrt(pbar * (1.0 - pbar) * (2.0 / 50.0))
    assert z > 1.645
    print(
        "ACCEPTANCE criterion 5 PASS: coverage(lambda=4) = "
        f"{p4:.3f} > coverage(lambda=1) = {p1:.3f}, one-sided z = {z:.2f} > 1.645"
    )


def test_criterion_6_extra_free_variance_parameter_hurts_coverage(tmp_path):
    truth = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
    lat = Lattice(n_x=41, n_t=41, dx=0.05, dt=0.05)
    weights = PairWeightSpec(cutoff_d=3)
    windows = WindowSpec(window_nx=11, window_nt=11, step_x=5, step_t=5)
    t_cl = truth
    scen_small = EstimationScenario(
        free=("lambda", "c_tilde"),
        fixed_values={"sigma2": t_cl.sigma2, "mu": t_cl.mu},
    )
    scen_large = EstimationScenario(
        free=("lambda", "c_tilde", "sigma2"), fixed_values={"mu": t_cl.mu}
    )
    n = 100
    hits = {"small": 0, "large": 0}
    rng = np.random.default_rng(99)
    for field in exact_fields_in_turn(truth, lat, rng, n):
        for key, scen in (("small", scen_small), ("large", scen_large)):
            try:
                res = sandwich_ci(field, weights, windows, scen)
            except StouError:
                continue
            iv = res.intervals["lambda"]
            if iv.lower <= truth.lam <= iv.upper:
                hits[key] += 1
    gap = (hits["small"] - hits["large"]) / n
    assert gap >= 0.20
    print(
        "ACCEPTANCE criterion 6 PASS: lambda coverage "
        f"{hits['small'] / n:.3f} (lambda, c_tilde free) vs "
        f"{hits['large'] / n:.3f} (+ sigma2 free), gap {gap:.3f} >= 0.20"
    )


def test_criterion_7_proxy_upper_bounds_and_tracks_coverage(trend_reports):
    cov, prox = trend_reports
    assert prox[1.0] >= cov[1.0]
    assert prox[1.0] <= prox[2.0] <= prox[4.0]
    print(
        "ACCEPTANCE criterion 7 PASS: proxy(lambda=1) = "
        f"{prox[1.0]:.3f} >= coverage {cov[1.0]:.3f}; proxies "
        f"{prox[1.0]:.3f} <= {prox[2.0]:.3f} <= {prox[4.0]:.3f}"
    )


def test_criterion_8_variance_matrices_are_psd():
    rng = np.random.default_rng(271828)
    worst_h, worst_j = 0.0, 0.0
    for _ in range(100):
        lat = Lattice(
            n_x=int(rng.integers(3, 9)), n_t=int(rng.integers(3, 9)),
            dx=0.05, dt=0.05,
        )
        theta = random_theta(rng)
        weights = PairWeightSpec(cutoff_d=int(rng.integers(1, 4)))

        H = hessian_h(theta, lat, weights)
        assert np.array_equal(H, H.T)
        eig_h = np.linalg.eigvalsh(H)
        assert eig_h[0] >= -1e-10 * np.trace(H)
        worst_h = max(worst_h, -float(eig_h[0]) / np.trace(H))

        field = exact_field(theta, lat, rng)
        windows = WindowSpec(
            window_nx=int(rng.integers(2, lat.n_x + 1)),
            window_nt=int(rng.integers(2, lat.n_t + 1)),
            step_x=int(rng.integers(1, 4)),
            step_t=int(rng.integers(1, 4)),
        )
        J = wsev_j(theta, field, weights, windows)
        eig_j = np.linalg.eigvalsh(J)
        assert eig_j[0] >= -1e-10 * max(np.trace(J), 1e-300)
        if np.trace(J) > 0:
            worst_j = max(worst_j, -float(eig_j[0]) / np.trace(J))
    print(
        "ACCEPTANCE criterion 8 PASS: 100 random configurations, "
        f"min eigenvalue >= -1e-10 * trace (worst H {worst_h:.1e}, worst J {worst_j:.1e})"
    )


def test_criterion_9_outputs_do_not_depend_on_worker_count(tmp_path):
    outputs = []
    for workers in (1, 2):
        out_dir = tmp_path / f"w{workers}"
        cfg = ExperimentConfig.from_sources(
            {},
            {
                "nx": 15, "nt": 15, "n_datasets": 10, "B": 20, "seed": 5,
                "window_nx": 7, "window_nt": 7, "step_x": 4, "step_t": 4,
                "workers": workers, "out_dir": str(out_dir),
            },
        )
        paths = run(cfg, "coverage")
        outputs.append(
            tuple(Path(paths[k]).read_bytes() for k in ("estimates", "coverage"))
        )
    assert outputs[0] == outputs[1]
    print(
        "ACCEPTANCE criterion 9 PASS: estimates.csv and coverage.csv "
        "byte-identical for 1 and 2 workers at equal seed"
    )
