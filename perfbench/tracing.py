"""In-memory spans around the functions through which stou's layers call
each other, and the per-layer metrics derived from them.

Each layer reaches the next through a name bound in its own module
namespace (``stou.bootstrap.simulate_exact`` is the ``simulate_exact`` that
``mc_ci`` calls), so replacing that module attribute with a wrapper
intercepts the call without touching the package's source.  ``patched``
installs the wrappers and always puts the original attributes back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import time

# Modules that hold the layers, named by their last component.
LAYER_MODULES = ("cli", "experiment", "bootstrap", "cl", "gridsim", "mm", "cholesky")

# Functions wrapped wherever one of the layer modules binds them.
# ``_dataset_task`` is stou.experiment's per-dataset unit; it is wrapped
# only while that module still has it.
TRACED_FUNCTIONS = (
    "build_covariance",
    "cholesky_factor",
    "simulate_exact",
    "simulate_grid",
    "fit_mm",
    "maximize_cl",
    "hessian_h",
    "wsev_j",
    "sandwich_ci",
    "mc_ci",
    "coverage_dataset",
    "read_field",
    "run",
    "_dataset_task",
)

WARNING_CATEGORIES = ("CovarianceJitter", "OptimizerDidNotConverge", "TruncationTooShallow")


def _factor_bytes(bound, result):
    # dense float64 lower factor: n^2 * 8 bytes
    return {"factor_bytes": bound.arguments["cov"].n ** 2 * 8}


def _noise_cells(bound, result):
    # the simulator draws one normal per mesh cell of the truncated cone
    params = bound.arguments["params"]
    lattice = bound.arguments["lattice"]
    config = bound.arguments["config"]
    r = config.cells_per_obs_cell
    n_steps = config.truncation_p * r
    half_width = math.ceil(params.c * n_steps * (lattice.dt / r) / (lattice.dx / r))
    rows = (lattice.n_t - 1) * r + n_steps
    cols = (lattice.n_x - 1) * r + 2 * half_width
    return {"noise_cells": rows * cols}


def _windows(bound, result):
    t0s, x0s = bound.arguments["windows"].origins(bound.arguments["field"].lattice)
    return {"windows": len(t0s) * len(x0s)}


def _refits(bound, result):
    return {"n_boot": result.n_boot, "n_failed": result.n_failed}


# span name -> counts read from the call's arguments and result
COUNTERS = {
    "cholesky.cholesky_factor": _factor_bytes,
    "gridsim.simulate_grid": _noise_cells,
    "cl.wsev_j": _windows,
    "bootstrap.mc_ci": _refits,
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent index,
    whether it raised, and the counts its counter derives."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else -1,
            "failed": False,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException:
            record["failed"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func):
        counter = COUNTERS.get(name)
        signature = inspect.signature(func) if counter else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
            if counter is not None:
                record.update(counter(signature.bind(*args, **kwargs), result))
            return result

        return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install tracing wrappers on every layer module; restore on exit."""
    saved = []
    try:
        for short in LAYER_MODULES:
            module = importlib.import_module(f"stou.{short}")
            for attr in TRACED_FUNCTIONS:
                func = getattr(module, attr, None)
                if not inspect.isfunction(func) or not func.__module__.startswith("stou."):
                    continue
                name = f"{func.__module__.rsplit('.', 1)[1]}.{func.__name__}"
                saved.append((module, attr, func))
                setattr(module, attr, tracer.wrap(name, func))
        yield tracer
    finally:
        for module, attr, func in reversed(saved):
            setattr(module, attr, func)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = _union_length(children.get(index, []), start, end)
        out.append(max(0.0, (end - start) - covered))
    return out


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float,
                  untraced_cpu_s: float) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    trace: the traced child's record (spans, warnings, import_s).  The
    wall times are those of the traced child process and of an untraced
    run of the same invocation, whose CPU time is untraced_cpu_s.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(index)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, []))

    def total(name, key):
        return sum(spans[i].get(key, 0) for i in by_name.get(name, []))

    dataset_s = [spans[i]["end"] - spans[i]["start"]
                 for i in by_name.get("experiment._dataset_task", [])]
    n_boot = total("bootstrap.mc_ci", "n_boot")
    n_refit_failed = total("bootstrap.mc_ci", "n_failed")
    warns = trace["warnings"]
    # share of the CLI's run that named layers account for, the catch-all
    # root span left out
    main_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main")
    layered = _union_length(
        [(s["start"], s["end"]) for s in spans if s["name"] != "cli.main"], -math.inf, math.inf)

    metrics = {}
    for name in ("cholesky.build_covariance", "cholesky.cholesky_factor",
                 "cholesky.simulate_exact", "gridsim.simulate_grid", "mm.fit_mm",
                 "cl.maximize_cl", "cl.wsev_j", "bootstrap.mc_ci"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["cholesky.factor_bytes"] = (total("cholesky.cholesky_factor", "factor_bytes"), "bytes")
    metrics["gridsim.noise_cells"] = (total("gridsim.simulate_grid", "noise_cells"), "count")
    metrics["mm.fit_mm.failed"] = (
        sum(1 for i in by_name.get("mm.fit_mm", []) if spans[i]["failed"]), "count")
    metrics["cl.maximize_cl.nonconverged"] = (warns["OptimizerDidNotConverge"], "count")
    metrics["cl.wsev_j.windows"] = (total("cl.wsev_j", "windows"), "count")
    metrics["cl.hessian_h.self_s"] = (self_s("cl.hessian_h"), "s")
    metrics["cl.sandwich_ci.self_s"] = (self_s("cl.sandwich_ci"), "s")
    metrics["bootstrap.mc_ci.n_failed"] = (n_refit_failed, "count")
    metrics["bootstrap.mc_ci.refit_fail_frac"] = (
        n_refit_failed / n_boot if n_boot else 0.0, "ratio")
    metrics["bootstrap.boot_reps_per_s"] = ((n_boot - n_refit_failed) / untraced_wall_s, "1/s")
    metrics["bootstrap.coverage_dataset.self_s"] = (self_s("bootstrap.coverage_dataset"), "s")
    metrics["experiment.dataset_s.p50"] = (_quantile(dataset_s, 0.5), "s")
    metrics["experiment.dataset_s.p90"] = (_quantile(dataset_s, 0.9), "s")
    metrics["experiment.run.self_s"] = (self_s("experiment.run"), "s")
    metrics["experiment.read_field.self_s"] = (self_s("experiment.read_field"), "s")
    # one worker: above 1 means BLAS threads burn a second core
    metrics["experiment.worker_util"] = (untraced_cpu_s / untraced_wall_s, "ratio")
    metrics["cli.import_s"] = (trace["import_s"], "s")
    metrics["cli.main.self_s"] = (self_s("cli.main"), "s")
    for category in WARNING_CATEGORIES:
        metrics[f"warnings.{category}"] = (warns[category], "count")
    metrics["trace.wall_s"] = (traced_wall_s, "s")
    metrics["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    metrics["trace.span_coverage"] = (layered / main_s, "ratio")
    return metrics
