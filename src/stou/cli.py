"""Command-line interface.

Subcommands: simulate, fit-mm, fit-cl, ci, coverage, proxy.
Exit codes: 0 success, 2 configuration error, 3 runtime failure.
STOU_WORKERS sets the default worker count for coverage/proxy runs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bootstrap import REPORT_PARAMS, mc_ci, params_to_report
from .cholesky import build_covariance, cholesky_factor, simulate_exact
from .cl import (
    EstimationScenario,
    PARAM_NAMES,
    PairWeightSpec,
    ThetaCL,
    WindowSpec,
    sandwich_ci,
)
from .errors import ConfigInvalid, StouError
from .experiment import (
    _CONFIG_PARSERS,
    ExperimentConfig,
    parse_config_file,
    parse_scenario,
    read_field,
    run,
    write_field,
)
from .gridsim import GridSimConfig, simulate_grid
from .mm import fit_mm
from .model import Lattice, StouParams

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
    p.add_argument("--max-lag", dest="max_lag", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_mm)

    p = sub.add_parser("fit-cl", help="composite-likelihood fit with sandwich CIs")
    _add_field_args(p)
    _add_cl_args(p)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--max-lag", dest="max_lag", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_cl)

    p = sub.add_parser("ci", help="parametric-bootstrap CIs for one field file")
    _add_field_args(p)
    p.add_argument("--method", choices=("mc-exact", "mc-grid"), default="mc-exact")
    p.add_argument("--B", type=int, default=100)
    p.add_argument("--level", type=float, default=0.95)
    _add_grid_args(p)
    p.add_argument("--max-lag", dest="max_lag", type=int, default=5)
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


def _params_from_args(args) -> StouParams:
    values = {"lam": args.lam, "c": args.c, "tau": args.tau, "mu_seed": args.mu_seed}
    defaults = {"lam": 1.0, "c": 1.0, "tau": 0.1, "mu_seed": 0.2}
    for key, value in values.items():
        if value is None:
            values[key] = defaults[key]
    try:
        return StouParams.natural(values["lam"], values["c"], values["mu_seed"],
                                  values["tau"] ** 2)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


def _lattice_from_args(args) -> Lattice:
    values = {"nx": args.nx, "nt": args.nt, "dx": args.dx, "dt": args.dt}
    defaults = {"nx": 41, "nt": 41, "dx": 0.05, "dt": 0.05}
    for key, value in values.items():
        if value is None:
            values[key] = defaults[key]
    try:
        return Lattice(n_x=values["nx"], n_t=values["nt"],
                       dx=values["dx"], dt=values["dt"])
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _cmd_simulate(args) -> int:
    params = _params_from_args(args)
    lattice = _lattice_from_args(args)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    if args.method == "exact":
        factor = cholesky_factor(build_covariance(params, lattice))
        field = simulate_exact(factor, params.mu, lattice, rng)
    else:
        try:
            config = GridSimConfig(
                truncation_p=args.truncation_p if args.truncation_p is not None else 300,
                cells_per_obs_cell=(args.cells_per_obs_cell
                                    if args.cells_per_obs_cell is not None else 1),
            )
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
        field = simulate_grid(params, lattice, config, rng)
    write_field(field, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_fit_mm(args) -> int:
    field = read_field(args.field, args.dx, args.dt)
    fitted = fit_mm(field, max_lag=args.max_lag)
    report = params_to_report(fitted)
    lines = ["parameter,estimate"]
    lines += [f"{name},{report[name]!r}" for name in REPORT_PARAMS]
    _emit(lines, args.out)
    return 0


def _cmd_fit_cl(args) -> int:
    field = read_field(args.field, args.dx, args.dt)
    free = parse_scenario(args.scenario) if args.scenario else PARAM_NAMES
    start = ThetaCL.from_params(fit_mm(field, max_lag=args.max_lag))
    start_values = dict(zip(PARAM_NAMES, start.as_array()))
    # parameters left out of the scenario are pinned at their moment fits
    fixed = {name: start_values[name] for name in PARAM_NAMES if name not in free}
    try:
        scenario = EstimationScenario(free=free, fixed_values=fixed)
        weights = PairWeightSpec(
            cutoff_d=args.cutoff_d if args.cutoff_d is not None else 3
        )
        windows = WindowSpec(
            window_nx=args.window_nx if args.window_nx is not None else 11,
            window_nt=args.window_nt if args.window_nt is not None else 11,
            step_x=args.step_x if args.step_x is not None else 5,
            step_t=args.step_t if args.step_t is not None else 5,
        )
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
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
    grid_config = None
    if args.method == "mc-grid" and args.truncation_p is not None:
        try:
            grid_config = GridSimConfig(
                truncation_p=args.truncation_p,
                cells_per_obs_cell=(args.cells_per_obs_cell
                                    if args.cells_per_obs_cell is not None else 1),
            )
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
    elif args.method == "mc-grid" and args.cells_per_obs_cell is not None:
        # without --truncation-p, mc_ci picks the depth from the fitted field
        # and one mesh cell per observation cell
        raise ConfigInvalid("--cells-per-obs-cell needs --truncation-p as well")
    field = read_field(args.field, args.dx, args.dt)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    try:
        result = mc_ci(field, args.B, args.level,
                       "exact" if args.method == "mc-exact" else "grid",
                       rng, grid_config=grid_config, max_lag=args.max_lag)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    lines = ["parameter,point,lower,median,upper"]
    for name in REPORT_PARAMS:
        iv = result.intervals[name]
        lines.append(f"{name},{iv.point!r},{iv.lower!r},{iv.median!r},{iv.upper!r}")
    _emit(lines, args.out)
    return 0


def _cmd_experiment(args) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {}
    for key in _CONFIG_PARSERS:
        if hasattr(args, key) and getattr(args, key) is not None:
            value = getattr(args, key)
            overrides[key] = parse_scenario(value) if key == "scenario" else value
    if "workers" not in overrides and "workers" not in file_values:
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
