"""The coverage engine behind both coverage_experiment and the
coverage/proxy commands: validated configs, deterministic seeding, a
worker pool over datasets, one aggregation per parameter, and CSV
emission.

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
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np
import scipy

from .bootstrap import MIN_BOOT, check_mc_ci_args, coverage_dataset, params_to_report
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
from .errors import ConfigInvalid, FailureRateExceeded, StouError
from .gridsim import GridSimConfig
from .model import FieldSample, Lattice, StouParams

__all__ = [
    "CoverageEntry",
    "CoverageReport",
    "ExperimentConfig",
    "coverage_experiment",
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
        try:  # lam**2 underflows below about 1e-154
            self.truth()
        except (ZeroDivisionError, ValueError) as exc:
            fail("lam", f"{self.lam!r} implies a stationary mean or variance that is "
                        f"not finite, or a variance that is not > 0 ({exc})")
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
    index = raw[:, :2]
    if not np.all(np.isfinite(index) & (index >= 0) & (index == np.round(index))):
        raise ValueError(f"{path}: t_index and x_index must be non-negative integers")
    t_idx, x_idx = index.astype(int).T
    n_t, n_x = t_idx.max() + 1, x_idx.max() + 1
    if raw.shape[0] != n_t * n_x:
        raise ValueError(f"{path}: expected {n_t * n_x} rows, got {raw.shape[0]}")
    values = np.full((n_t, n_x), np.nan)
    values[t_idx, x_idx] = raw[:, 2]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: grid is not completely filled")
    lattice = Lattice(n_x=int(n_x), n_t=int(n_t), dx=dx, dt=dt)
    return FieldSample(lattice=lattice, values=values)


@dataclass(frozen=True)
class CoverageEntry:
    """Aggregated interval performance for one parameter.  mean_proxy and
    proxy_se are None for sandwich intervals, which have no proxy."""

    parameter: str
    n: int
    hits: int
    coverage: float
    se: float
    mean_proxy: float | None
    proxy_se: float | None


@dataclass(frozen=True)
class CoverageReport:
    """Per-parameter coverage over replicated datasets."""

    level: float
    n_datasets: int
    entries: dict[str, CoverageEntry]
    failures: tuple[tuple[int, str], ...]


# one factor per (params, lattice) per worker process
_FACTOR_CACHE: dict[tuple, CholeskyFactor] = {}


def _truth_factor(truth: StouParams, lattice: Lattice) -> CholeskyFactor:
    key = (truth.lam, truth.c_tilde, truth.sigma2, truth.mu,
           lattice.n_x, lattice.n_t, lattice.dx, lattice.dt)
    factor = _FACTOR_CACHE.get(key)
    if factor is None:
        factor = cholesky_factor(build_covariance(truth, lattice))
        _FACTOR_CACHE.clear()  # keep at most one; these are large
        _FACTOR_CACHE[key] = factor
    return factor


# An interval step maps (truth, truth factor, lattice, data stream,
# bootstrap stream) to the dataset's intervals by parameter and its
# proxies by parameter (None without a bootstrap).  Steps hold only
# settings, so they pickle into worker processes.

@dataclass(frozen=True)
class _BootstrapStep:
    B: int
    level: float
    simulator: str
    grid_config: GridSimConfig | None
    max_lag: int

    def __call__(self, truth, factor, lattice, data_rng, boot_rng):
        return coverage_dataset(
            truth, factor, lattice, self.B, self.level, self.simulator,
            data_rng, boot_rng, grid_config=self.grid_config, max_lag=self.max_lag,
        )


@dataclass(frozen=True)
class _SandwichStep:
    config: ExperimentConfig

    def __call__(self, truth, factor, lattice, data_rng, boot_rng):
        config = self.config
        field = simulate_exact(factor, truth.mu, lattice, data_rng)
        truth_values = {**params_to_report(truth), "c_tilde": truth.c_tilde}
        fixed = {name: truth_values[name] for name in PARAM_NAMES
                 if name not in config.scenario}
        result = sandwich_ci(
            field,
            PairWeightSpec(cutoff_d=config.cutoff_d),
            WindowSpec(window_nx=config.window_nx, window_nt=config.window_nt,
                       step_x=config.step_x, step_t=config.step_t),
            EstimationScenario(free=config.scenario, fixed_values=fixed),
            level=config.level,
            max_lag=config.max_lag,
        )
        return result.intervals, None


@dataclass(frozen=True)
class _DatasetResult:
    index: int
    seed: int
    rows: tuple[tuple, ...]  # (parameter, true, estimate, lower, upper, hit)
    proxies: dict | None
    error: str | None


def _dataset_task(args) -> _DatasetResult:
    """One dataset: an exact draw from the truth and the step's intervals.

    args is (index, seed, truth, lattice, interval step); seed is the
    dataset's SeedSequence child or a Generator spawned from one, split
    by .spawn(2) into the data and bootstrap streams.
    """
    index, seed, truth, lattice, interval_step = args
    stream = np.random.default_rng(seed)
    display_seed = int(stream.bit_generator.seed_seq.generate_state(1, np.uint64)[0])
    data_rng, boot_rng = stream.spawn(2)
    try:
        factor = _truth_factor(truth, lattice)
        intervals, proxies = interval_step(truth, factor, lattice, data_rng, boot_rng)
    except (StouError, ValueError, np.linalg.LinAlgError) as exc:
        return _DatasetResult(
            index=index, seed=display_seed, rows=(), proxies=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    truth_values = {**params_to_report(truth), "c_tilde": truth.c_tilde}
    rows = tuple(
        (name, truth_values[name], iv.point, iv.lower, iv.upper,
         int(iv.contains(truth_values[name])))
        for name, iv in intervals.items()
    )
    return _DatasetResult(index=index, seed=display_seed, rows=rows,
                          proxies=proxies, error=None)


def _map_datasets(tasks, workers: int = 1) -> list[_DatasetResult]:
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_dataset_task, tasks))
    results = [_dataset_task(task) for task in tasks]
    _FACTOR_CACHE.clear()  # up to 832 MB at 101 x 101; hold none past the run
    return results


def _coverage_entries(results) -> dict[str, CoverageEntry]:
    """Hit rates and mean proxies per parameter over the datasets that
    did not fail; empty when all failed."""
    ok = [res for res in results if res.error is None]
    entries = {}
    for k, (name, *_) in enumerate(ok[0].rows if ok else ()):
        n = len(ok)
        hits = sum(res.rows[k][5] for res in ok)
        rate = hits / n
        mean_proxy = proxy_se = None
        if ok[0].proxies is not None:
            values = np.array([res.proxies[name] for res in ok])
            mean_proxy = float(values.mean())
            proxy_se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        entries[name] = CoverageEntry(
            parameter=name, n=n, hits=hits, coverage=rate,
            se=math.sqrt(rate * (1.0 - rate) / n),
            mean_proxy=mean_proxy, proxy_se=proxy_se,
        )
    return entries


def coverage_experiment(
    truth: StouParams,
    lattice: Lattice,
    n_datasets: int,
    B: int,
    level: float,
    simulator: str,
    rng: np.random.Generator | None = None,
    grid_config: GridSimConfig | None = None,
    max_lag: int = 5,
) -> CoverageReport:
    """Interval coverage of mc_ci over datasets simulated from a known
    truth.  Data fields always come from the exact simulator; the
    bootstrap inside each dataset uses the chosen simulator.

    Dataset i uses rng.spawn(n_datasets)[i], so a generator from
    default_rng(seed) gives the datasets of `stou coverage` at that
    seed.  Datasets that fail are listed in failures; FailureRateExceeded
    is raised when all do.
    """
    if n_datasets < 10:
        raise ValueError(f"n_datasets must be >= 10, got {n_datasets}")
    if rng is None:
        raise ValueError("rng is required for a reproducible experiment")
    check_mc_ci_args(B, level, simulator)
    _truth_factor(truth, lattice)  # budget and factorization errors end it here

    step = _BootstrapStep(B, level, simulator, grid_config, max_lag)
    results = _map_datasets([(index, stream, truth, lattice, step)
                             for index, stream in enumerate(rng.spawn(n_datasets))])
    entries = _coverage_entries(results)
    if not entries:
        raise FailureRateExceeded("every dataset failed")
    return CoverageReport(
        level=level,
        n_datasets=n_datasets,
        entries=entries,
        failures=tuple((res.index, res.error) for res in results if res.error is not None),
    )


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
    if config.method == "cl-sandwich":
        step = _SandwichStep(config)
    else:
        grid_config = None
        if config.method == "mc-grid":
            grid_config = GridSimConfig(truncation_p=config.truncation_p,
                                        cells_per_obs_cell=config.cells_per_obs_cell)
        simulator = "exact" if config.method == "mc-exact" else "grid"
        step = _BootstrapStep(config.B, config.level, simulator, grid_config, config.max_lag)
    truth, lattice = config.truth(), config.lattice()
    children = np.random.SeedSequence(config.seed).spawn(config.n_datasets)
    tasks = [(i, children[i], truth, lattice, step) for i in indices]

    results = _map_datasets(tasks, config.workers)

    estimate_lines = [ESTIMATES_HEADER]
    for res in results:
        if res.error is not None:
            estimate_lines.append(f"{res.index},{res.seed},,,,,,,{_csv_escape(res.error)}")
            continue
        for name, true, est, lower, upper, hit in res.rows:
            estimate_lines.append(
                f"{res.index},{res.seed},{name},{float(true)!r},{float(est)!r},"
                f"{float(lower)!r},{float(upper)!r},{hit},"
            )

    entries = _coverage_entries(results).values()
    if command == "coverage":
        aggregate_lines = ["parameter,coverage,se,n"] + [
            f"{e.parameter},{e.coverage!r},{e.se!r},{e.n}" for e in entries]
    else:
        aggregate_lines = ["parameter,proxy,se,n"] + [
            f"{e.parameter},{e.mean_proxy!r},{e.proxy_se!r},{e.n}" for e in entries]

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


# BLAS and OpenMP thread-count variables; their values can change the
# last bits of the outputs
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


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
        f"cpu_count: {os.cpu_count()}",
    ]
    lines += [f"{name}: {os.environ.get(name, 'unset')}" for name in _THREAD_VARS]
    # ru_maxrss counts KiB on Linux and bytes on macOS
    unit = 1 if sys.platform == "darwin" else 1024
    for who, flag in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN)):
        lines.append(f"peak_rss_{who}_bytes: {resource.getrusage(flag).ru_maxrss * unit}")
    return lines


def _package_version() -> str:
    from . import __version__

    return __version__
