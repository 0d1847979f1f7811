"""Experiment orchestration: validated configs, deterministic seeding,
a worker pool over datasets, and CSV emission.

Seed derivation: SeedSequence(master_seed).spawn(n_datasets) yields one
child per dataset; child i is split by .spawn(2) into (data, bootstrap)
streams, and the bootstrap stream is split again per replication inside
mc_ci.  Every estimates.csv row records the dataset index and the
dataset child's first 64-bit state word, so a single dataset can be
replayed without rerunning the experiment.  Outputs depend only on
(config, master seed), never on the worker count.
"""

from __future__ import annotations

import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np
import scipy

from .bootstrap import (
    MIN_BOOT,
    REPORT_PARAMS,
    IntervalEstimate,
    coverage_dataset,
    params_to_report,
)
from .cholesky import (
    DEFAULT_MAX_POINTS,
    CholeskyFactor,
    build_covariance,
    cholesky_factor,
    simulate_exact,
)
from .cl import (
    PARAM_NAMES,
    EstimationScenario,
    PairWeightSpec,
    WindowSpec,
    sandwich_ci,
)
from .errors import ConfigInvalid, StouError
from .gridsim import GridSimConfig, simulate_grid
from .model import CorrKind, FieldSample, Lattice, StouParams

__all__ = [
    "ExperimentConfig",
    "parse_config_file",
    "parse_scenario",
    "run",
    "read_field",
    "write_field",
]

FIELD_FILE_HEADER = "t_index,x_index,value"
ESTIMATES_HEADER = "dataset,seed,parameter,true_value,estimate,lower,upper,hit,error"

METHODS = ("cl-sandwich", "mc-exact", "mc-grid")


def parse_scenario(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    for name in names:
        if name not in PARAM_NAMES:
            raise ConfigInvalid(
                f"scenario: unknown parameter {name!r}, expected from {PARAM_NAMES}"
            )
    return names


# config key -> parser from config-file string
_CONFIG_PARSERS = {
    "lam": float,
    "c": float,
    "tau": float,
    "mu_seed": float,
    "nx": int,
    "nt": int,
    "dx": float,
    "dt": float,
    "method": str,
    "scenario": parse_scenario,
    "B": int,
    "n_datasets": int,
    "level": float,
    "cutoff_d": int,
    "window_nx": int,
    "window_nt": int,
    "step_x": int,
    "step_t": int,
    "truncation_p": int,
    "cells_per_obs_cell": int,
    "max_lag": int,
    "seed": int,
    "workers": int,
    "out_dir": str,
    "only_dataset": int,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated coverage/proxy experiment description."""

    lam: float = 1.0
    c: float = 1.0
    tau: float = 0.1
    mu_seed: float = 0.2
    nx: int = 41
    nt: int = 41
    dx: float = 0.05
    dt: float = 0.05
    method: str = "mc-exact"
    scenario: tuple[str, ...] = PARAM_NAMES
    B: int = 100
    n_datasets: int = 100
    level: float = 0.95
    cutoff_d: int = 3
    window_nx: int = 11
    window_nt: int = 11
    step_x: int = 5
    step_t: int = 5
    truncation_p: int = 300
    cells_per_obs_cell: int = 1
    max_lag: int = 5
    seed: int = 0
    workers: int = 1
    out_dir: str = "."
    only_dataset: int = -1  # -1 runs all datasets

    def validate(self) -> None:
        def fail(field, why):
            raise ConfigInvalid(f"{field}: {why}")

        for field in ("lam", "c", "tau"):
            if not (math.isfinite(getattr(self, field)) and getattr(self, field) > 0):
                fail(field, "must be finite and > 0")
        if not math.isfinite(self.mu_seed):
            fail("mu_seed", "must be finite")
        for field in ("nx", "nt"):
            if getattr(self, field) < 2:
                fail(field, "must be >= 2")
        for field in ("dx", "dt"):
            if not (math.isfinite(getattr(self, field)) and getattr(self, field) > 0):
                fail(field, "must be finite and > 0")
        if self.method not in METHODS:
            fail("method", f"must be one of {METHODS}")
        if not 0.0 <= self.level < 1.0:
            fail("level", "must be in [0, 1)")
        if self.method == "cl-sandwich" and not 0.0 < self.level < 1.0:
            fail("level", "must be in (0, 1) for cl-sandwich")
        if self.n_datasets < 10:
            fail("n_datasets", "must be >= 10")
        if self.method != "cl-sandwich":
            if self.B < MIN_BOOT:
                fail("B", f"must be >= {MIN_BOOT}")
        else:
            if not self.scenario:
                fail("scenario", "must name at least one free parameter")
            for field in ("window_nx", "window_nt"):
                if getattr(self, field) < 2:
                    fail(field, "must be >= 2")
            for field in ("step_x", "step_t"):
                if getattr(self, field) < 1:
                    fail(field, "must be >= 1")
            if self.window_nx > self.nx or self.window_nt > self.nt:
                fail("window_nx", "window must fit inside the lattice")
            if self.cutoff_d < 1:
                fail("cutoff_d", "must be >= 1")
        if self.method == "mc-grid":
            if self.truncation_p < 1:
                fail("truncation_p", "must be >= 1")
            if self.cells_per_obs_cell < 1:
                fail("cells_per_obs_cell", "must be >= 1")
        if self.max_lag < 1:
            fail("max_lag", "must be >= 1")
        if self.seed < 0:
            fail("seed", "must be >= 0")
        if self.workers < 1:
            fail("workers", "must be >= 1")
        if self.only_dataset != -1 and not 0 <= self.only_dataset < self.n_datasets:
            fail("only_dataset", "must be -1 or a valid dataset index")
        if self.nx * self.nt > DEFAULT_MAX_POINTS:
            fail("nx", f"lattice exceeds the {DEFAULT_MAX_POINTS}-site exact budget")

    @classmethod
    def from_sources(cls, file_values: dict, overrides: dict) -> "ExperimentConfig":
        """Build from config-file values with CLI overrides winning."""
        known = {f.name for f in dataclass_fields(cls)}
        merged = {}
        for key, raw in file_values.items():
            if key not in known:
                raise ConfigInvalid(f"{key}: unknown config key")
            merged[key] = _CONFIG_PARSERS[key](raw) if isinstance(raw, str) else raw
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in known:
                raise ConfigInvalid(f"{key}: unknown config key")
            merged[key] = value
        try:
            config = cls(**merged)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(str(exc)) from exc
        config.validate()
        return config

    def truth(self) -> StouParams:
        return StouParams.natural(self.lam, self.c, self.mu_seed, self.tau**2)

    def lattice(self) -> Lattice:
        return Lattice(n_x=self.nx, n_t=self.nt, dx=self.dx, dt=self.dt)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value config format; '#' starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigInvalid(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    return values


def write_field(field: FieldSample, path: str) -> None:
    """Field file: CSV with header t_index,x_index,value, site order."""
    lines = [FIELD_FILE_HEADER]
    values = field.values
    for t in range(field.lattice.n_t):
        for x in range(field.lattice.n_x):
            lines.append(f"{t},{x},{float(values[t, x])!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_field(path: str, dx: float, dt: float) -> FieldSample:
    """Read a field file back onto a lattice with the given spacings."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != FIELD_FILE_HEADER:
            raise ValueError(
                f"{path}: expected header {FIELD_FILE_HEADER!r}, got {header!r}"
            )
        raw = np.loadtxt(handle, delimiter=",", ndmin=2)
    if raw.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, got {raw.shape[1]}")
    t_idx = raw[:, 0].astype(int)
    x_idx = raw[:, 1].astype(int)
    n_t, n_x = t_idx.max() + 1, x_idx.max() + 1
    if raw.shape[0] != n_t * n_x:
        raise ValueError(f"{path}: expected {n_t * n_x} rows, got {raw.shape[0]}")
    values = np.full((n_t, n_x), np.nan)
    values[t_idx, x_idx] = raw[:, 2]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: grid is not completely filled")
    lattice = Lattice(n_x=int(n_x), n_t=int(n_t), dx=dx, dt=dt)
    return FieldSample(lattice=lattice, values=values)


# one factor per (params, lattice) per worker process
_FACTOR_CACHE: dict[tuple, CholeskyFactor] = {}


def _truth_factor(truth: StouParams, lattice: Lattice) -> CholeskyFactor:
    key = (truth.lam, truth.c_tilde, truth.sigma2, truth.mu,
           lattice.n_x, lattice.n_t, lattice.dx, lattice.dt)
    factor = _FACTOR_CACHE.get(key)
    if factor is None:
        cov = build_covariance(truth, lattice, CorrKind.CANONICAL)
        factor = cholesky_factor(cov)
        _FACTOR_CACHE.clear()  # keep at most one; these are large
        _FACTOR_CACHE[key] = factor
    return factor


@dataclass(frozen=True)
class _DatasetResult:
    index: int
    seed: int
    rows: tuple[tuple, ...]  # (parameter, true, estimate, lower, upper, hit)
    proxies: dict | None
    error: str | None


def _dataset_task(args: tuple[int, "np.random.SeedSequence", ExperimentConfig]) -> _DatasetResult:
    index, seed_seq, config = args
    display_seed = int(seed_seq.generate_state(1, np.uint64)[0])
    data_ss, boot_ss = seed_seq.spawn(2)
    data_rng = np.random.default_rng(data_ss)
    boot_rng = np.random.default_rng(boot_ss)
    truth = config.truth()
    lattice = config.lattice()
    try:
        factor = _truth_factor(truth, lattice)
        if config.method == "cl-sandwich":
            rows = _cl_dataset_rows(config, truth, lattice, factor, data_rng)
            proxies = None
        else:
            rows, proxies = _mc_dataset_rows(config, truth, lattice, factor,
                                             data_rng, boot_rng)
    except (StouError, ValueError, np.linalg.LinAlgError) as exc:
        return _DatasetResult(
            index=index, seed=display_seed, rows=(), proxies=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    return _DatasetResult(index=index, seed=display_seed, rows=rows,
                          proxies=proxies, error=None)


def _cl_truth_values(truth: StouParams) -> dict[str, float]:
    report = params_to_report(truth)
    return {
        "lambda": truth.lam,
        "c_tilde": truth.c_tilde,
        "sigma2": truth.sigma2,
        "mu": truth.mu,
        "c": report["c"],
        "tau": report["tau"],
        "mu_seed": report["mu_seed"],
    }


def _cl_dataset_rows(config, truth, lattice, factor, data_rng):
    field = simulate_exact(factor, truth.mu, lattice, data_rng)
    fixed = {
        name: _cl_truth_values(truth)[name]
        for name in PARAM_NAMES
        if name not in config.scenario
    }
    scenario = EstimationScenario(free=config.scenario, fixed_values=fixed)
    result = sandwich_ci(
        field,
        PairWeightSpec(cutoff_d=config.cutoff_d),
        WindowSpec(window_nx=config.window_nx, window_nt=config.window_nt,
                   step_x=config.step_x, step_t=config.step_t),
        scenario,
        level=config.level,
        max_lag=config.max_lag,
    )
    truth_values = _cl_truth_values(truth)
    rows = []
    for name, interval in result.intervals.items():
        true = truth_values[name]
        rows.append((name, true, interval.point, interval.lower, interval.upper,
                     int(interval.contains(true))))
    return tuple(rows)


def _mc_dataset_rows(config, truth, lattice, factor, data_rng, boot_rng):
    grid_config = None
    if config.method == "mc-grid":
        grid_config = GridSimConfig(
            truncation_p=config.truncation_p,
            cells_per_obs_cell=config.cells_per_obs_cell,
        )
    intervals, proxies = coverage_dataset(
        truth, factor, lattice, config.B, config.level,
        "exact" if config.method == "mc-exact" else "grid",
        data_rng, boot_rng,
        grid_config=grid_config, max_lag=config.max_lag,
    )
    truth_values = params_to_report(truth)
    rows = []
    for name in REPORT_PARAMS:
        interval = intervals[name]
        true = truth_values[name]
        rows.append((name, true, interval.point, interval.lower, interval.upper,
                     int(interval.contains(true))))
    return tuple(rows), proxies


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def run(config: ExperimentConfig, command: str = "coverage") -> dict[str, str]:
    """Run a coverage or proxy experiment and write estimates.csv,
    coverage.csv, and manifest.txt into config.out_dir.

    Returns the written file paths.  Identical (config, seed) produce
    byte-identical CSVs at any worker count.
    """
    if command not in ("coverage", "proxy"):
        raise ConfigInvalid(f"command: expected coverage or proxy, got {command!r}")
    if command == "proxy" and config.method == "cl-sandwich":
        raise ConfigInvalid("method: proxy requires a bootstrap method (mc-exact, mc-grid)")
    config.validate()
    started = time.monotonic()

    indices = range(config.n_datasets)
    if config.only_dataset != -1:
        indices = [config.only_dataset]
    children = np.random.SeedSequence(config.seed).spawn(config.n_datasets)
    tasks = [(i, children[i], config) for i in indices]

    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_dataset_task, tasks))
    else:
        results = [_dataset_task(task) for task in tasks]

    estimate_lines = [ESTIMATES_HEADER]
    for res in results:
        if res.error is not None:
            estimate_lines.append(f"{res.index},{res.seed},,,,,,,{_csv_escape(res.error)}")
            continue
        for name, true, est, lower, upper, hit in res.rows:
            estimate_lines.append(
                f"{res.index},{res.seed},{name},{_fmt(float(true))},{_fmt(float(est))},"
                f"{_fmt(float(lower))},{_fmt(float(upper))},{hit},"
            )

    if command == "coverage":
        aggregate_lines = _aggregate_coverage(results)
    else:
        aggregate_lines = _aggregate_proxy(results)

    os.makedirs(config.out_dir, exist_ok=True)
    paths = {
        "estimates": os.path.join(config.out_dir, "estimates.csv"),
        "coverage": os.path.join(config.out_dir, "coverage.csv"),
        "manifest": os.path.join(config.out_dir, "manifest.txt"),
    }
    _write_lines(paths["estimates"], estimate_lines)
    _write_lines(paths["coverage"], aggregate_lines)
    _write_lines(paths["manifest"], _manifest_lines(config, command, started))
    return paths


def _csv_escape(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _row_parameters(results) -> list[str]:
    for res in results:
        if res.error is None:
            return [row[0] for row in res.rows]
    return []


def _aggregate_coverage(results) -> list[str]:
    lines = ["parameter,coverage,se,n"]
    for name in _row_parameters(results):
        hits = n = 0
        for res in results:
            if res.error is not None:
                continue
            row = next(r for r in res.rows if r[0] == name)
            hits += row[5]
            n += 1
        rate = hits / n
        se = math.sqrt(rate * (1.0 - rate) / n)
        lines.append(f"{name},{rate!r},{se!r},{n}")
    return lines


def _aggregate_proxy(results) -> list[str]:
    lines = ["parameter,proxy,se,n"]
    ok = [res for res in results if res.error is None]
    if not ok:
        return lines
    for name in ok[0].proxies:
        values = np.array([res.proxies[name] for res in ok])
        se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
        lines.append(f"{name},{float(values.mean())!r},{se!r},{values.size}")
    return lines


def _manifest_lines(config: ExperimentConfig, command: str, started: float) -> list[str]:
    lines = [
        f"command: {command}",
        f"package_version: {_package_version()}",
        f"python_version: {platform.python_version()}",
        f"numpy_version: {np.__version__}",
        f"scipy_version: {scipy.__version__}",
    ]
    for field in dataclass_fields(ExperimentConfig):
        value = getattr(config, field.name)
        if field.name == "scenario":
            value = ",".join(value)
        lines.append(f"{field.name}: {value}")
    lines += [
        "seed_derivation: SeedSequence(seed).spawn(n_datasets); dataset i uses child i,"
        " split into (data, bootstrap) streams by .spawn(2); bootstrap replication j"
        " uses the bootstrap stream's j-th spawned child",
        f"wall_clock_s: {time.monotonic() - started:.3f}",
    ]
    return lines


def _package_version() -> str:
    from . import __version__

    return __version__
