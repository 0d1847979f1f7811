"""Command-line interface.

Subcommands: simulate, fit-mm, fit-cl, ci, coverage, proxy.
Exit codes: 0 success, 2 configuration error, 3 runtime failure.
STOU_WORKERS sets the default worker count for coverage/proxy runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .bootstrap import REPORT_PARAMS, check_mc_ci_args, mc_ci, params_to_report
from .cholesky import build_covariance, cholesky_factor, simulate_exact
from .cl import EstimationScenario, check_sandwich_ci_args, sandwich_ci
from .errors import ConfigInvalid, StouError
from .experiment import (
    _CONFIG_PARSERS,
    ExperimentConfig,
    _checked,
    parse_config_file,
    read_field,
    run,
    write_field,
)
from .gridsim import simulate_grid
from .mm import fit_mm
from .model import FieldSample

__all__ = ["main"]


def _add_truth_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, help="temporal decay rate")
    parser.add_argument("--c", type=float, help="cone slope")
    parser.add_argument("--tau", type=float, help="noise seed standard deviation")
    parser.add_argument("--mu-seed", dest="mu_seed", type=float, help="noise seed mean")


def _add_lattice_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nx", type=int, help="spatial grid points")
    parser.add_argument("--nt", type=int, help="temporal grid points")
    parser.add_argument("--dx", type=float, help="spatial grid spacing")
    parser.add_argument("--dt", type=float, help="temporal grid spacing")


def _add_field_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--field", required=True, help="field CSV (t_index,x_index,value)")
    parser.add_argument("--dx", type=float, required=True, help="spatial grid spacing")
    parser.add_argument("--dt", type=float, required=True, help="temporal grid spacing")


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--truncation-p", dest="truncation_p", type=int,
                        help="temporal kernel steps retained (grid simulator)")
    parser.add_argument("--cells-per-obs-cell", dest="cells_per_obs_cell", type=int,
                        help="mesh subdivisions per observation cell (grid simulator)")


def _add_cl_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", type=str,
                        help="comma-separated free parameters, e.g. lambda,c_tilde")
    parser.add_argument("--cutoff-d", dest="cutoff_d", type=int,
                        help="pair separation cutoff in grid steps")
    parser.add_argument("--window-nx", dest="window_nx", type=int)
    parser.add_argument("--window-nt", dest="window_nt", type=int)
    parser.add_argument("--step-x", dest="step_x", type=int)
    parser.add_argument("--step-t", dest="step_t", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stou",
        description="Simulate spatio-temporal OU fields and build parameter CIs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one field to a CSV file")
    _add_truth_args(p)
    _add_lattice_args(p)
    p.add_argument("--method", choices=("exact", "grid"), default="exact")
    _add_grid_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="field.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-mm", help="moment fit of one field file")
    _add_field_args(p)
    p.add_argument("--max-lag", dest="max_lag", type=int, default=ExperimentConfig.max_lag)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_mm)

    p = sub.add_parser("fit-cl", help="composite-likelihood fit with sandwich CIs")
    _add_field_args(p)
    _add_cl_args(p)
    p.add_argument("--level", type=float, default=ExperimentConfig.level)
    p.add_argument("--max-lag", dest="max_lag", type=int, default=ExperimentConfig.max_lag)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_cl)

    p = sub.add_parser("ci", help="parametric-bootstrap CIs for one field file")
    _add_field_args(p)
    p.add_argument("--method", choices=("mc-exact", "mc-grid"), default="mc-exact")
    p.add_argument("--B", type=int, default=ExperimentConfig.B)
    p.add_argument("--level", type=float, default=ExperimentConfig.level)
    _add_grid_args(p)
    p.add_argument("--max-lag", dest="max_lag", type=int, default=ExperimentConfig.max_lag)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ci)

    for name, help_text in (
        ("coverage", "interval coverage over datasets simulated from a truth"),
        ("proxy", "bootstrap coverage proxy over datasets simulated from a truth"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        _add_truth_args(p)
        _add_lattice_args(p)
        p.add_argument("--method", choices=("cl-sandwich", "mc-exact", "mc-grid"))
        _add_cl_args(p)
        _add_grid_args(p)
        p.add_argument("--B", type=int)
        p.add_argument("--n-datasets", dest="n_datasets", type=int)
        p.add_argument("--level", type=float)
        p.add_argument("--max-lag", dest="max_lag", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--only-dataset", dest="only_dataset", type=int,
                       help="replay a single dataset index")
        p.set_defaults(func=_cmd_experiment)

    return parser


def _settings(args) -> ExperimentConfig:
    """ExperimentConfig's defaults with the flags given applied, each
    parsed as its config-file text would be (only --scenario arrives as
    text).  Not validated: each command checks the settings it uses."""
    return ExperimentConfig(**{name: parse(getattr(args, name))
                               for name, parse in _CONFIG_PARSERS.items()
                               if getattr(args, name, None) is not None})


def _field_from_args(args) -> FieldSample:
    """The --field file on the --dx/--dt lattice; the spacings and
    --max-lag are checked before the file is read, so they fail as
    configuration errors."""
    for flag, value in (("--dx", args.dx), ("--dt", args.dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigInvalid(f"{flag} must be finite and > 0, got {value!r}")
    if args.max_lag < 1:
        raise ConfigInvalid(f"--max-lag must be >= 1, got {args.max_lag!r}")
    return read_field(args.field, args.dx, args.dt)


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _reject_grid_flags(args) -> None:
    for flag, value in (("--truncation-p", args.truncation_p),
                        ("--cells-per-obs-cell", args.cells_per_obs_cell)):
        if value is not None:
            raise ConfigInvalid(
                f"{flag} applies to the grid simulator, not --method {args.method}")


def _cmd_simulate(args) -> int:
    settings = _settings(args)
    params = _checked(settings.truth)
    lattice = _checked(settings.lattice)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    if args.method == "exact":
        _reject_grid_flags(args)
        factor = cholesky_factor(build_covariance(params, lattice))
        field = simulate_exact(factor, params.mu, lattice, rng)
    else:
        field = simulate_grid(params, lattice, _checked(settings.grid_config), rng)
    write_field(field, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_fit_mm(args) -> int:
    field = _field_from_args(args)
    fitted = fit_mm(field, max_lag=args.max_lag)
    report = params_to_report(fitted)
    lines = ["parameter,estimate"]
    lines += [f"{name},{report[name]!r}" for name in REPORT_PARAMS]
    _emit(lines, args.out)
    return 0


def _cmd_fit_cl(args) -> int:
    settings = _settings(args)
    weights, windows = _checked(settings.weights), _checked(settings.windows)
    _checked(check_sandwich_ci_args, args.level, settings.scenario)
    field = _field_from_args(args)
    start = fit_mm(field, max_lag=args.max_lag)
    # parameters left out of the scenario are pinned at their moment fits
    scenario = EstimationScenario.pinned_at(settings.scenario, start)
    result = sandwich_ci(field, weights, windows, scenario,
                         level=args.level, start=start, max_lag=args.max_lag)
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
    grid_config = None
    if args.method == "mc-exact":
        _reject_grid_flags(args)
    elif args.truncation_p is not None:
        grid_config = _checked(settings.grid_config)
    elif args.cells_per_obs_cell is not None:
        # without --truncation-p, mc_ci picks the depth from the fitted field
        # and one mesh cell per observation cell
        raise ConfigInvalid("--cells-per-obs-cell needs --truncation-p as well")
    simulator = settings.simulator()
    _checked(check_mc_ci_args, args.B, args.level, simulator)
    field = _field_from_args(args)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    # with the settings checked, a ValueError from mc_ci comes from the
    # field (a single row or column), reported as a configuration error
    result = _checked(mc_ci, field, args.B, args.level, simulator, rng,
                      grid_config, args.max_lag)
    lines = ["parameter,point,lower,median,upper"]
    for name in REPORT_PARAMS:
        iv = result.intervals[name]
        lines.append(f"{name},{iv.point!r},{iv.lower!r},{iv.median!r},{iv.upper!r}")
    _emit(lines, args.out)
    return 0


def _cmd_experiment(args) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {name: getattr(args, name) for name in _CONFIG_PARSERS}
    if overrides["workers"] is None and "workers" not in file_values:
        env = os.environ.get("STOU_WORKERS")
        if env is not None:
            try:
                overrides["workers"] = int(env)
            except ValueError as exc:
                raise ConfigInvalid(f"STOU_WORKERS: {env!r} is not an integer") from exc
    config = ExperimentConfig.from_sources(file_values, overrides)
    paths = run(config, command=args.command)
    with open(paths["coverage"], encoding="utf-8") as handle:
        sys.stdout.write(handle.read())
    print(f"wrote {paths['estimates']}, {paths['coverage']}, {paths['manifest']}",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StouError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
