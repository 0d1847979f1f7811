"""Command-line interface.

Subcommands: simulate, fit-mm, fit-cl, ci, coverage, proxy.
Exit codes: 0 success, 2 configuration error, 3 runtime failure.
STOU_WORKERS sets the default worker count for coverage/proxy runs.
Every subcommand runs numpy's BLAS on one thread, so the BLAS thread
variables do not change its outputs; --workers is the parallelism.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .bootstrap import REPORT_PARAMS, check_mc_ci_args, mc_ci, params_to_report
from .cholesky import _draw_exact, build_covariance
from .cl import EstimationScenario, check_sandwich_ci_args, sandwich_ci
from .errors import BudgetExceeded, ConfigInvalid, StouError
from .experiment import (
    _CONFIG_PARSERS,
    METHODS,
    ExperimentConfig,
    _checked,
    _OneBlasThread,
    _write_lines,
    parse_config_file,
    read_field,
    run,
    write_field,
)
from .gridsim import simulate_grid
from .mm import fit_mm
from .model import FieldSample

__all__ = ["main"]


# help text of the config flags that have one
_HELP = {
    "lam": "temporal decay rate",
    "c": "cone slope",
    "tau": "noise seed standard deviation",
    "mu_seed": "noise seed mean",
    "nx": "spatial grid points",
    "nt": "temporal grid points",
    "dx": "spatial grid spacing",
    "dt": "temporal grid spacing",
    "truncation_p": "temporal kernel steps retained (grid simulator)",
    "cells_per_obs_cell": "mesh subdivisions per observation cell (grid simulator)",
    "scenario": "comma-separated free parameters, e.g. lambda,c_tilde",
    "cutoff_d": "pair separation cutoff in grid steps",
    "only_dataset": "replay a single dataset index",
}

_TRUTH_LATTICE = ("lam", "c", "tau", "mu_seed", "nx", "nt", "dx", "dt")
_GRID = ("truncation_p", "cells_per_obs_cell")
_CL = ("scenario", "cutoff_d", "window_nx", "window_nt", "step_x", "step_t")


def _add_config_flags(parser: argparse.ArgumentParser, *names: str,
                      required: bool = False) -> None:
    """One flag per ExperimentConfig field, named after it (--lambda for
    lam).  Its default is None, so an omitted flag takes the field's
    default and a command can tell which flags were given.  A flag whose
    parser is a type converts its own text; the scenario's text is parsed
    by ExperimentConfig.merged, as a config file's is."""
    for name in names:
        parse = _CONFIG_PARSERS[name]
        flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=parse if isinstance(parse, type) else str,
                            required=required, help=_HELP.get(name))


def _add_field_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--field", required=True, help="field CSV (t_index,x_index,value)")
    _add_config_flags(parser, "dx", "dt", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stou",
        description="Simulate spatio-temporal OU fields and build parameter CIs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one field to a CSV file")
    _add_config_flags(p, *_TRUTH_LATTICE)
    p.add_argument("--method", choices=("exact", "grid"), default="exact")
    _add_config_flags(p, *_GRID, "seed")
    p.add_argument("--out", default="field.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-mm", help="moment fit of one field file")
    _add_field_args(p)
    _add_config_flags(p, "max_lag")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_mm)

    p = sub.add_parser("fit-cl", help="composite-likelihood fit with sandwich CIs")
    _add_field_args(p)
    _add_config_flags(p, *_CL, "level", "max_lag")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_cl)

    p = sub.add_parser("ci", help="parametric-bootstrap CIs for one field file")
    _add_field_args(p)
    p.add_argument("--method", choices=[m for m in METHODS if m.startswith("mc-")])
    _add_config_flags(p, "B", "level", *_GRID, "max_lag", "seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ci)

    for name, help_text in (
        ("coverage", "interval coverage over datasets simulated from a truth"),
        ("proxy", "bootstrap coverage proxy over datasets simulated from a truth"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        _add_config_flags(p, *_TRUTH_LATTICE)
        p.add_argument("--method", choices=METHODS)
        _add_config_flags(p, *_CL, *_GRID, "B", "n_datasets", "level", "max_lag", "seed",
                          "workers", "out_dir", "only_dataset")
        p.set_defaults(func=_cmd_experiment)

    return parser


def _settings(args, *sources: dict) -> ExperimentConfig:
    """ExperimentConfig's defaults with the sources, then the flags given,
    applied (see ExperimentConfig.merged).  Refuses a negative seed, and
    a grid flag unless the resolved method draws on the grid (a source's
    grid keys are accepted); each command checks the other settings it
    uses."""
    flags = {name: getattr(args, name, None) for name in _CONFIG_PARSERS}
    settings = ExperimentConfig.merged(*sources, flags)
    for name in _GRID:
        if flags[name] is not None and settings.simulator() != "grid":
            raise ConfigInvalid(f"--{name.replace('_', '-')} applies to the grid simulator, "
                                f"not --method {settings.method}")
    if settings.seed < 0:  # SeedSequence would refuse it at the draw, exiting 3
        raise ConfigInvalid("seed: must be >= 0")
    return settings


def _field_from_args(args, settings: ExperimentConfig) -> FieldSample:
    """The --field file on the --dx/--dt lattice; the spacings and
    --max-lag are checked before the file is read, so they fail as
    configuration errors."""
    for flag, value in (("--dx", settings.dx), ("--dt", settings.dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigInvalid(f"{flag} must be finite and > 0, got {value!r}")
    if settings.max_lag < 1:
        raise ConfigInvalid(f"--max-lag must be >= 1, got {settings.max_lag!r}")
    return read_field(args.field, settings.dx, settings.dt)


def _emit(lines: list[str], out: str | None) -> None:
    if out is None:
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _write_lines(out, lines)


def _cmd_simulate(args) -> int:
    settings = _settings(args)
    params = _checked(settings.truth)
    lattice = _checked(settings.lattice)
    rng = np.random.default_rng(np.random.SeedSequence(settings.seed))
    if args.method == "exact":
        # simulate_exact's field, drawn without holding the factor
        (values,) = _draw_exact(build_covariance(params, lattice), params.mu, [rng])
        field = FieldSample(lattice=lattice, values=values)
    else:
        field = simulate_grid(params, lattice, _checked(settings.grid_config), rng)
    write_field(field, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_fit_mm(args) -> int:
    settings = _settings(args)
    fitted = fit_mm(_field_from_args(args, settings), max_lag=settings.max_lag)
    report = params_to_report(fitted)
    lines = ["parameter,estimate"]
    lines += [f"{name},{report[name]!r}" for name in REPORT_PARAMS]
    _emit(lines, args.out)
    return 0


def _cmd_fit_cl(args) -> int:
    settings = _settings(args)
    weights, windows = _checked(settings.weights), _checked(settings.windows)
    _checked(check_sandwich_ci_args, settings.level, settings.scenario)
    field = _field_from_args(args, settings)
    start = fit_mm(field, max_lag=settings.max_lag)
    # parameters left out of the scenario are pinned at their moment fits
    scenario = EstimationScenario.pinned_at(settings.scenario, start)
    result = sandwich_ci(field, weights, windows, scenario,
                         level=settings.level, start=start, max_lag=settings.max_lag)
    lines = ["parameter,estimate,se,lower,upper"]
    for name, interval in result.intervals.items():
        se = result.standard_errors[name]
        lines.append(
            f"{name},{interval.point!r},{se!r},{interval.lower!r},{interval.upper!r}"
        )
    _emit(lines, args.out)
    return 0


def _cmd_ci(args) -> int:
    settings = _settings(args)
    grid_config = _checked(settings.grid_config)
    simulator = settings.simulator()
    _checked(check_mc_ci_args, settings.B, settings.level, simulator)
    field = _field_from_args(args, settings)
    rng = np.random.default_rng(np.random.SeedSequence(settings.seed))
    result = mc_ci(field, settings.B, settings.level, simulator, rng, grid_config,
                   settings.max_lag)
    lines = ["parameter,point,lower,median,upper"]
    for name in REPORT_PARAMS:
        iv = result.intervals[name]
        lines.append(f"{name},{iv.point!r},{iv.lower!r},{iv.median!r},{iv.upper!r}")
    _emit(lines, args.out)
    return 0


def _cmd_experiment(args) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    env = os.environ.get("STOU_WORKERS")
    if args.workers is None and "workers" not in file_values and env is not None:
        try:
            file_values["workers"] = int(env)
        except ValueError as exc:
            raise ConfigInvalid(f"STOU_WORKERS: {env!r} is not an integer") from exc
    config = _settings(args, file_values)
    paths = run(config, command=args.command)
    with open(paths["coverage"], encoding="utf-8") as handle:
        sys.stdout.write(handle.read())
    print(f"wrote {paths['estimates']}, {paths['coverage']}, {paths['manifest']}",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _OneBlasThread():
            return args.func(args)
    except (ConfigInvalid, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StouError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
