"""The coverage engine behind both coverage_experiment and the
coverage/proxy commands: validated configs, deterministic seeding, a
worker pool over datasets, one aggregation per parameter, and CSV
emission.

Seed derivation: SeedSequence(master_seed).spawn(n_datasets) yields one
child per dataset (coverage_experiment takes the SeedSequences of
rng.spawn(n_datasets)); child i is split by .spawn(2) into (data,
bootstrap) streams.  The calling process draws every dataset's field,
the one all methods see, from its data stream by one simulate_exact
call, one pass over the truth's Levinson recursion that applies each
predictor row to every field in one GEMM and keeps no factor.  mc_ci
draws its fields from the fitted model the same way, so no process
holds a factor.  _dataset_task runs the method's interval step, a
function with its settings bound by functools.partial, on a field, here
or in a pool worker; mc_ci splits the bootstrap stream per replication.
Every estimates.csv row records the dataset index and the dataset
child's first 64-bit state word, so a single dataset can be replayed
without the other datasets' interval steps (only_dataset); the replay
still draws all n_datasets fields, since a field's bits depend on how
many are drawn together.  Outputs depend only on (config, master seed),
never on the worker count: the datasets run with numpy's BLAS on one
thread, in this process and in every pool worker, so the BLAS thread
variables change no output bit either.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields

import numpy as np

from . import __version__
from .bootstrap import MAX_FIELDS, check_mc_ci_args, coverage_proxy, mc_ci, params_to_report
from .cholesky import DEFAULT_MAX_POINTS, build_covariance, simulate_exact
from .cl import (
    PARAM_NAMES,
    EstimationScenario,
    PairWeightSpec,
    WindowSpec,
    check_sandwich_ci_args,
    sandwich_ci,
)
from .errors import ConfigInvalid, FailureRateExceeded, StouError
from .gridsim import GridSimConfig
from .model import FieldSample, Lattice, StouParams, _require_int, _require_positive

__all__ = ["CoverageEntry", "CoverageReport", "ExperimentConfig", "coverage_experiment",
           "parse_config_file", "parse_scenario", "run", "read_field", "write_field"]

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


def _checked(build, *args):
    """build(*args), with its ValueError raised as ConfigInvalid: the
    library's constructors and argument checks own the bounds."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


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
    truncation_p: int | None = None  # None: the grid simulator's default depth
    cells_per_obs_cell: int = 1
    max_lag: int = 5
    seed: int = 0
    workers: int = 1
    out_dir: str = "."
    only_dataset: int = -1  # -1 runs all datasets

    def validate(self) -> None:
        """Raise ConfigInvalid naming the first setting out of bounds, by the
        library's own rules and the specs and argument checks of the method."""
        _checked(self.truth)
        for field, low, high in (("nx", 2, None), ("nt", 2, None), ("n_datasets", 10, MAX_FIELDS),
                                 ("max_lag", 1, None), ("seed", 0, None), ("workers", 1, None)):
            _checked(_require_int, field, getattr(self, field), low, high)
        _checked(_require_int, "only_dataset", self.only_dataset, -1, self.n_datasets - 1)
        _checked(self.lattice)
        if self.method not in METHODS:
            raise ConfigInvalid(f"method: must be one of {METHODS}")
        if not (isinstance(self.scenario, tuple) and all(n in PARAM_NAMES for n in self.scenario)):
            raise ConfigInvalid(f"scenario: must be a tuple of names from {PARAM_NAMES}")
        if self.method == "cl-sandwich":
            _checked(self.weights)
            _checked(self.windows)
            _checked(check_sandwich_ci_args, self.level, self.scenario)
            for field, extent in (("window_nx", self.nx), ("window_nt", self.nt)):
                _checked(_require_int, field, getattr(self, field), 2, extent)
        else:
            _checked(check_mc_ci_args, self.B, self.level, self.simulator())
        if self.method == "mc-grid":
            _checked(self.grid_config)
        if self.nx * self.nt > DEFAULT_MAX_POINTS:
            raise ConfigInvalid(f"nx: lattice exceeds the {DEFAULT_MAX_POINTS}-site exact budget")

    @classmethod
    def from_sources(cls, file_values: dict, overrides: dict) -> "ExperimentConfig":
        """Validated: config-file values with overrides winning (see merged)."""
        config = cls.merged(file_values, overrides)
        config.validate()
        return config

    @classmethod
    def merged(cls, *sources: dict) -> "ExperimentConfig":
        """Not validated: the defaults with each source applied in turn, a
        later source winning.  A value of None is skipped; text is parsed
        as its key's _CONFIG_PARSERS entry, and a failure names the key."""
        values = {}
        for source in sources:
            for key, value in source.items():
                if value is None:
                    continue
                if key not in _CONFIG_PARSERS:
                    raise ConfigInvalid(f"{key}: unknown config key")
                try:
                    values[key] = _CONFIG_PARSERS[key](value) if isinstance(value, str) else value
                except ValueError as exc:
                    raise ConfigInvalid(f"{key}: {exc}") from exc
        return cls(**values)

    def truth(self) -> StouParams:
        """The natural truth (lam, c, tau, mu_seed) in canonical form;
        ValueError names the setting at fault (see StouParams.natural)."""
        _require_positive("tau", self.tau)  # tau**2 would square a negative tau away
        try:  # tau**2 overflows above about 1.3e154 and underflows to 0 below about 1e-162
            tau2 = self.tau**2
            _require_positive("tau2", tau2)
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"tau: {self.tau!r} squared is not representable") from exc
        return StouParams.natural(self.lam, self.c, self.mu_seed, tau2)

    def lattice(self) -> Lattice:
        return Lattice(n_x=self.nx, n_t=self.nt, dx=self.dx, dt=self.dt)

    def weights(self) -> PairWeightSpec:
        return PairWeightSpec(cutoff_d=self.cutoff_d)

    def windows(self) -> WindowSpec:
        return WindowSpec(window_nx=self.window_nx, window_nt=self.window_nt,
                          step_x=self.step_x, step_t=self.step_t)

    def grid_config(self) -> GridSimConfig:
        return GridSimConfig(truncation_p=self.truncation_p,
                             cells_per_obs_cell=self.cells_per_obs_cell)

    def simulator(self) -> str:
        """The bootstrap simulator of an mc- method: exact or grid."""
        return self.method.removeprefix("mc-")


# config key -> parser of its config-file text: the type of its default,
# int for the depth that defaults to None
_CONFIG_PARSERS = {f.name: type(f.default) for f in dataclass_fields(ExperimentConfig)}
_CONFIG_PARSERS.update(scenario=parse_scenario, truncation_p=int)


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
    _write_lines(path, lines)


def read_field(path: str, dx: float, dt: float) -> FieldSample:
    """Read a field file back onto a lattice with the given spacings."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != FIELD_FILE_HEADER:
            raise ValueError(
                f"{path}: expected header {FIELD_FILE_HEADER!r}, got {header!r}"
            )
        # loadtxt skips blank and '#' lines, and warns when nothing is left
        rows = [line for line in handle if line.split("#", 1)[0].strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    raw = np.loadtxt(rows, delimiter=",", ndmin=2)
    if raw.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, got {raw.shape[1]}")
    if not np.all(np.isfinite(raw[:, 2])):
        raise ValueError(f"{path}: values must be finite")
    index = raw[:, :2]
    # no index of a complete grid reaches the row count, so astype wraps none
    ok = np.isfinite(index) & (index >= 0) & (index < len(raw)) & (index == np.round(index))
    if not np.all(ok):
        raise ValueError(f"{path}: t_index and x_index must be integers from 0 to {len(raw) - 1}")
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


# numpy's OpenBLAS thread-count setters: scipy-openblas builds (numpy >= 2) first,
# then plain OpenBLAS, each with and without the 64-bit-integer suffix
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.lru_cache(maxsize=1)
def _blas_thread_calls():
    """(set, get) of the thread count of the BLAS numpy links, or None
    when no setter is found.  dlsym on numpy's own extension module also
    searches the libraries it links."""
    package = "numpy._core" if int(np.__version__.split(".")[0]) >= 2 else "numpy.core"
    try:
        library = ctypes.CDLL(importlib.import_module(package + "._multiarray_umath").__file__)
    except (ImportError, OSError):
        return None
    for name in _BLAS_SETTERS:
        if hasattr(library, name):
            set_threads = getattr(library, name)
            get_threads = getattr(library, name.replace("_set_", "_get_"))
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


def _blas_threads() -> int | None:
    """numpy's BLAS thread count now, or None when it cannot be set."""
    calls = _blas_thread_calls()
    return None if calls is None else calls[1]()


class _OneBlasThread:
    """numpy's BLAS on one thread from construction on, with the count
    found restored on leaving a with block; nothing when no setter is
    found.  As a pool's initializer it pins each worker for its life.
    One thread keeps the outputs' bits independent of the thread
    variables.  Idle pool threads that OpenBLAS started as it loaded
    still spin a while before they sleep; stou.cli loads it with none."""

    def __init__(self):
        self._previous = _blas_threads()
        if self._previous is not None:
            _blas_thread_calls()[0](1)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._previous is not None:
            _blas_thread_calls()[0](self._previous)


# An interval step maps (truth, data field, bootstrap stream) to the
# dataset's intervals and proxies by parameter (proxies None without a
# bootstrap), its count of failed bootstrap refits (0 without one) and
# the depth of its grid draws (None without them).  Its settings come
# first, bound by functools.partial, which pickles into workers.

def _bootstrap_step(B, level, simulator, grid_config, max_lag, truth, field, boot_rng):
    result = mc_ci(field, B, level, simulator, boot_rng, grid_config=grid_config,
                   max_lag=max_lag)
    proxies = {name: coverage_proxy(result.estimates[name], iv.point, level)
               for name, iv in result.intervals.items()}
    return result.intervals, proxies, result.n_failed, result.grid_depth


def _sandwich_step(config, truth, field, boot_rng):
    result = sandwich_ci(
        field, config.weights(), config.windows(),
        EstimationScenario.pinned_at(config.scenario, truth),
        level=config.level, max_lag=config.max_lag,
    )
    return result.intervals, None, 0, None


# ru_maxrss counts KiB on Linux and bytes on macOS
_RU_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024


def _peak_rss_self_bytes(unit: int = _RU_MAXRSS_UNIT) -> int:
    """This process's own peak resident set: Linux's VmHWM, which exec and
    fork reset, where ru_maxrss starts at the peak of the process that
    started this one; ru_maxrss elsewhere."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            return next(int(line.split()[1]) * 1024  # counted in kB
                        for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit


@dataclass(frozen=True)
class _DatasetResult:
    index: int
    seed: int
    rows: tuple[tuple, ...] = ()  # (parameter, true, estimate, lower, upper, hit)
    proxies: dict | None = None
    refit_failures: int = 0  # bootstrap refits dropped; 0 on error
    grid_depth: int | None = None  # of the bootstrap's grid draws; None without them or on error
    error: str | None = None
    # of the process that ran it: numpy's BLAS thread count, pid and peak resident set
    blas_threads: int | None = dataclass_field(default_factory=_blas_threads)
    pid: int = dataclass_field(default_factory=os.getpid)
    peak_rss_bytes: int = dataclass_field(default_factory=_peak_rss_self_bytes)


_DATASET_ERRORS = (StouError, ValueError, np.linalg.LinAlgError)


def _failed(index: int, seed: int, exc: Exception) -> _DatasetResult:
    return _DatasetResult(index=index, seed=seed, error=f"{type(exc).__name__}: {exc}")


def _dataset_task(args) -> _DatasetResult:
    """One dataset: the interval step on its drawn field, here or in a pool
    worker.  Any dataset error, a drawn field that is not finite among
    them, becomes the dataset's error row.

    args is (index, display seed, truth, lattice, drawn values, bootstrap
    SeedSequence, interval step).
    """
    index, seed, truth, lattice, values, boot_seq, interval_step = args
    try:
        field = FieldSample(lattice=lattice, values=values)
        intervals, proxies, refit_failures, grid_depth = interval_step(
            truth, field, np.random.default_rng(boot_seq))
    except _DATASET_ERRORS as exc:
        return _failed(index, seed, exc)
    truth_values = {**params_to_report(truth), "c_tilde": truth.c_tilde}
    rows = tuple(
        (name, truth_values[name], iv.point, iv.lower, iv.upper,
         int(iv.contains(truth_values[name])))
        for name, iv in intervals.items()
    )
    return _DatasetResult(index=index, seed=seed, rows=rows, proxies=proxies,
                          refit_failures=refit_failures, grid_depth=grid_depth)


def _map_datasets(tasks, workers: int = 1) -> list[_DatasetResult]:
    workers = min(workers, len(tasks))  # a pool forks all its workers at once
    if workers > 1:
        # imported here, so that runs without a pool, and import stou.cli, skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_OneBlasThread) as pool:
            return list(pool.map(_dataset_task, tasks))
    return [_dataset_task(task) for task in tasks]


def _run_datasets(seeds, indices, truth: StouParams, lattice: Lattice, step, workers: int = 1,
                  truth_errors_raise: bool = False) -> list[_DatasetResult]:
    """The results of step on the datasets of indices, in their order.

    seeds holds every dataset's child SeedSequence, each split by
    .spawn(2) into the data and bootstrap streams.  Every dataset's field
    is drawn here, into one array, by one pass over the truth's Levinson
    recursion that holds no factor, before any step runs.  A field's bits
    depend on how many are drawn together, so all are drawn whatever
    indices holds, and a replay of one dataset gets the field of the full
    run.  A truth that does not factor, tried once, gives each dataset of
    indices its error, or is raised when truth_errors_raise; any other
    error is the dataset's own (see _dataset_task).
    """
    display_seeds = [int(seed.generate_state(1, np.uint64)[0]) for seed in seeds]
    streams = [seed.spawn(2) for seed in seeds]
    with _OneBlasThread():
        try:
            values = simulate_exact(build_covariance(truth, lattice), truth.mu,
                                    [np.random.default_rng(data_seq) for data_seq, _ in streams])
        except _DATASET_ERRORS as exc:
            if truth_errors_raise:
                raise
            return [_failed(i, display_seeds[i], exc) for i in indices]
        tasks = [(i, display_seeds[i], truth, lattice, values[i], streams[i][1], step)
                 for i in indices]
        return _map_datasets(tasks, workers)


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

    Dataset i uses the SeedSequence of rng.spawn(n_datasets)[i], with
    numpy's default bit generator whatever rng's, so a generator from
    default_rng(seed) gives the datasets of `stou coverage` at that
    seed.  Datasets that fail are listed in failures; FailureRateExceeded
    is raised when all do.
    """
    _require_int("n_datasets", n_datasets, 10, MAX_FIELDS)
    _require_int("max_lag", max_lag, 1)
    if rng is None:
        raise ValueError("rng is required for a reproducible experiment")
    check_mc_ci_args(B, level, simulator)
    step = functools.partial(_bootstrap_step, B, level, simulator, grid_config, max_lag)
    # budget and factorization errors end it before any interval step
    seeds = [g.bit_generator.seed_seq for g in rng.spawn(n_datasets)]
    results = _run_datasets(seeds, range(n_datasets), truth, lattice, step,
                            truth_errors_raise=True)
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

    indices = range(config.n_datasets) if config.only_dataset == -1 else [config.only_dataset]
    if config.method == "cl-sandwich":
        step = functools.partial(_sandwich_step, config)
    else:
        grid_config = config.grid_config() if config.method == "mc-grid" else None
        step = functools.partial(_bootstrap_step, config.B, config.level, config.simulator(),
                                 grid_config, config.max_lag)
    truth, lattice = config.truth(), config.lattice()
    children = np.random.SeedSequence(config.seed).spawn(config.n_datasets)
    results = _run_datasets(children, indices, truth, lattice, step, config.workers)

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
    _write_lines(paths["manifest"], _manifest_lines(config, command, started, results))
    return paths


def _csv_escape(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# BLAS and OpenMP thread-count variables; they change the outputs' last
# bits only where numpy's BLAS setter is not found (blas_threads: unknown)
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _manifest_lines(config: ExperimentConfig, command: str, started: float,
                    results: list[_DatasetResult]) -> list[str]:
    lines = [
        f"command: {command}",
        f"package_version: {__version__}",
        f"python_version: {platform.python_version()}",
        f"numpy_version: {np.__version__}",
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
    # the count the datasets ran with: 1 wherever numpy's BLAS could be set
    counts = {"unknown" if res.blas_threads is None else str(res.blas_threads)
              for res in results}
    lines.append(f"blas_threads: {','.join(sorted(counts))}")
    # bootstrap refits dropped, over the datasets that did not fail
    lines.append(f"refit_failures: {sum(res.refit_failures for res in results)}")
    if config.method == "mc-grid":
        depths = [res.grid_depth for res in results if res.error is None]
        lines.append(f"grid_depths: {min(depths)}..{max(depths)}" if depths
                     else "grid_depths: none")
    lines.append(f"peak_rss_self_bytes: {_peak_rss_self_bytes()}")
    # the largest peak of a pool worker; 0 when no pool ran
    worker_peaks = [res.peak_rss_bytes for res in results if res.pid != os.getpid()]
    lines.append(f"peak_rss_children_bytes: {max(worker_peaks, default=0)}")
    return lines
