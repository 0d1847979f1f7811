import argparse
import concurrent.futures
import dataclasses
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import stou
from stou import ConfigInvalid, FieldSample, Lattice
from stou.cli import build_parser, main
import stou.experiment
from stou.experiment import (
    ESTIMATES_HEADER,
    ExperimentConfig,
    _blas_threads,
    _OneBlasThread,
    parse_config_file,
    parse_scenario,
    read_field,
    run,
    write_field,
)
from stou.gridsim import with_default_depth


@pytest.fixture()
def no_worker_env(monkeypatch):
    monkeypatch.delenv("STOU_WORKERS", raising=False)


@pytest.fixture()
def field_csv(tmp_path, small_field):
    path = tmp_path / "field.csv"
    write_field(small_field, str(path))
    return str(path)


def _env_with_src() -> dict[str, str]:
    """This environment with the package's source on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stou.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(code: str, *args: str) -> str:
    """stdout of `python -c code args` with the package's source on the path."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=_env_with_src(), capture_output=True, text=True,
        check=True,
    )
    return out.stdout.strip()


_LATTICE_11 = ["--nx", "11", "--nt", "11"]
_FIELD_11 = ["--field", "{tmp}/field.csv", "--dx", "0.05", "--dt", "0.05", "--out", "{tmp}/o.csv"]
_WINDOWS_7 = ["--window-nx", "7", "--window-nt", "7", "--step-x", "4", "--step-t", "4"]
_EXPERIMENT_11 = [*_LATTICE_11, *_WINDOWS_7, "--n-datasets", "10", "--B", "20",
                  "--workers", "1", "--out-dir", "{tmp}"]


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--method", "exact", *_LATTICE_11, "--out", "{tmp}/f.csv"],
                 id="simulate-exact"),
    pytest.param(["simulate", "--method", "grid", *_LATTICE_11, "--out", "{tmp}/f.csv"],
                 id="simulate-grid"),
    pytest.param(["fit-mm", *_FIELD_11], id="fit-mm"),
    pytest.param(["fit-cl", *_FIELD_11, *_WINDOWS_7], id="fit-cl"),
    pytest.param(["ci", "--method", "mc-exact", *_FIELD_11, "--B", "20"], id="ci-mc-exact"),
    pytest.param(["ci", "--method", "mc-grid", *_FIELD_11, "--B", "20"], id="ci-mc-grid"),
    *(pytest.param(["coverage", "--method", method, *_EXPERIMENT_11], id=f"coverage-{method}")
      for method in ("mc-exact", "mc-grid", "cl-sandwich")),
    pytest.param(["proxy", "--method", "mc-exact", *_EXPERIMENT_11], id="proxy"),
])
def test_every_command_runs_without_scipy(argv, tmp_path, base_params):
    # scipy is needed by the tests only; numpy.f2py would add to every start
    lattice = Lattice(n_x=11, n_t=11, dx=0.05, dt=0.05)
    field = stou.simulate_exact(stou.cholesky_factor(stou.build_covariance(base_params, lattice)),
                                base_params.mu, lattice, np.random.default_rng(1))
    write_field(field, str(tmp_path / "field.csv"))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = (
        "import sys; sys.modules['scipy'] = None; from stou.cli import main; "
        f"code = main({argv!r}); print(code, 'numpy.f2py' in sys.modules)"
    )
    assert run_python(code).splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv", [
    ["simulate", "--method", "exact", "--nx", "11", "--nt", "11", "--out", "{tmp}/f.csv"],
    ["coverage", "--method", "mc-exact", "--nx", "11", "--nt", "11", "--n-datasets", "10",
     "--B", "20", "--workers", "1", "--out-dir", "{tmp}"],
    ["coverage", "--method", "cl-sandwich", "--nx", "11", "--nt", "11",
     "--n-datasets", "10", "--window-nx", "7", "--window-nt", "7",
     "--step-x", "4", "--step-t", "4", "--workers", "1", "--out-dir", "{tmp}"],
])
def test_exact_simulation_runs_without_scipy_linalg(argv, tmp_path):
    # the exact factor and its draws are numpy only; with scipy installed
    # the run still imports none of it
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = (
        "import sys; from stou.cli import main; "
        f"code = main({argv!r}); "
        "print(code, [m for m in ('scipy', 'scipy.linalg', 'numpy.f2py') if m in sys.modules])"
    )
    assert run_python(code).splitlines()[-1] == "0 []"


@pytest.mark.parametrize("argv", [
    ["coverage", "--method", "cl-sandwich", "--nx", "11", "--nt", "11",
     "--n-datasets", "10", "--window-nx", "7", "--window-nt", "7",
     "--step-x", "4", "--step-t", "4", "--workers", "1", "--out-dir", "{tmp}"],
    ["fit-cl", "--field", "{field}", "--dx", "0.05", "--dt", "0.05",
     "--window-nx", "7", "--window-nt", "7", "--step-x", "3", "--step-t", "3",
     "--out", "{tmp}/cl.csv"],
])
def test_cl_commands_run_without_scipy_optimize(argv, tmp_path, field_csv):
    # the CL fit and its intervals need neither scipy.optimize nor scipy.special;
    # with scipy installed the run still imports none of it
    argv = [a.format(tmp=tmp_path, field=field_csv) for a in argv]
    code = (
        "import sys; from stou.cli import main; "
        f"code = main({argv!r}); "
        "print(code, [m for m in ('scipy', 'scipy.optimize', 'scipy.special') "
        "if m in sys.modules])"
    )
    assert run_python(code).splitlines()[-1] == "0 []"


def test_cli_import_leaves_the_process_pool_unimported():
    # every invocation pays for the CLI's imports; only a pool run needs the pool's
    code = ("import sys, stou.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    assert run_python(code) == "[]"


# Starts a command and prints its exit code and ru_maxrss.  Linux starts
# a child's peak at the high-water mark of the process it was forked
# from, so the command must not be forked from the test process itself.
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mib(*argv) -> float:
    """The peak resident set, in MiB, of `stou argv` run in a new process,
    which must succeed; Linux only (ru_maxrss counts KiB there)."""
    code, max_rss_kib = run_python(
        _PEAK_RSS_LAUNCHER, sys.executable, "-m", "stou.cli", *argv).split()
    assert code == "0"
    return int(max_rss_kib) / 1024


def run_cli(*argv) -> int:
    return main(list(argv))


def read_manifest(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return dict(line.split(": ", 1) for line in handle.read().splitlines())


def _row(option, dest, kind="str", required=False, choices=None):
    return (option, dest, kind, required, choices)


_TRUTH_LATTICE = [
    _row("--lambda", "lam", "float"), _row("--c", "c", "float"),
    _row("--tau", "tau", "float"), _row("--mu-seed", "mu_seed", "float"),
    _row("--nx", "nx", "int"), _row("--nt", "nt", "int"),
    _row("--dx", "dx", "float"), _row("--dt", "dt", "float"),
]
_FIELD = [_row("--field", "field", required=True), _row("--dx", "dx", "float", True),
          _row("--dt", "dt", "float", True)]
_GRID = [_row("--truncation-p", "truncation_p", "int"),
         _row("--cells-per-obs-cell", "cells_per_obs_cell", "int")]
_CL = [_row("--scenario", "scenario"), _row("--cutoff-d", "cutoff_d", "int"),
       _row("--window-nx", "window_nx", "int"), _row("--window-nt", "window_nt", "int"),
       _row("--step-x", "step_x", "int"), _row("--step-t", "step_t", "int")]
_EXPERIMENT = [
    _row("--config", "config"), *_TRUTH_LATTICE,
    _row("--method", "method", choices=("cl-sandwich", "mc-exact", "mc-grid")),
    *_CL, *_GRID, _row("--B", "B", "int"), _row("--n-datasets", "n_datasets", "int"),
    _row("--level", "level", "float"), _row("--max-lag", "max_lag", "int"),
    _row("--seed", "seed", "int"), _row("--workers", "workers", "int"),
    _row("--out-dir", "out_dir"), _row("--only-dataset", "only_dataset", "int"),
]
# (option, dest, type, required, choices) of every flag, in help order
FLAG_TABLES = {
    "simulate": [*_TRUTH_LATTICE, _row("--method", "method", choices=("exact", "grid")),
                 *_GRID, _row("--seed", "seed", "int"), _row("--out", "out")],
    "fit-mm": [*_FIELD, _row("--max-lag", "max_lag", "int"), _row("--out", "out")],
    "fit-cl": [*_FIELD, *_CL, _row("--level", "level", "float"),
               _row("--max-lag", "max_lag", "int"), _row("--out", "out")],
    "ci": [*_FIELD, _row("--method", "method", choices=("mc-exact", "mc-grid")),
           _row("--B", "B", "int"), _row("--level", "level", "float"), *_GRID,
           _row("--max-lag", "max_lag", "int"), _row("--seed", "seed", "int"),
           _row("--out", "out")],
    "coverage": _EXPERIMENT,
    "proxy": _EXPERIMENT,
}
FLAG_HELP = {
    "--lambda": "temporal decay rate",
    "--c": "cone slope",
    "--tau": "noise seed standard deviation",
    "--mu-seed": "noise seed mean",
    "--nx": "spatial grid points",
    "--nt": "temporal grid points",
    "--dx": "spatial grid spacing",
    "--dt": "temporal grid spacing",
    "--truncation-p": "temporal kernel steps retained (grid simulator)",
    "--cells-per-obs-cell": "mesh subdivisions per observation cell (grid simulator)",
    "--scenario": "comma-separated free parameters, e.g. lambda,c_tilde",
    "--cutoff-d": "pair separation cutoff in grid steps",
    "--only-dataset": "replay a single dataset index",
    "--field": "field CSV (t_index,x_index,value)",
    "--config": "key=value config file",
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParser:
    def test_flag_tables(self):
        commands = _subcommands()
        assert list(commands) == list(FLAG_TABLES)
        for name, sub in commands.items():
            # argparse hands a flag without a type its text, as str would
            table = [(a.option_strings[0], a.dest, (a.type or str).__name__, a.required,
                      None if a.choices is None else tuple(a.choices))
                     for a in sub._actions if a.option_strings and a.dest != "help"]
            assert table == FLAG_TABLES[name], name

    @pytest.mark.parametrize("command", list(FLAG_TABLES))
    def test_help_renders_every_flag(self, command):
        text = " ".join(_subcommands()[command].format_help().split())
        for option, *_ in FLAG_TABLES[command]:
            assert option in text
            if option in FLAG_HELP:
                assert f"{FLAG_HELP[option]}" in text, option


class TestFieldFiles:
    def test_roundtrip_is_bitwise(self, tmp_path, small_field):
        path = tmp_path / "f.csv"
        write_field(small_field, str(path))
        back = read_field(str(path), small_field.lattice.dx, small_field.lattice.dt)
        assert back.lattice == small_field.lattice
        np.testing.assert_array_equal(back.values, small_field.values)

    def test_header_is_the_documented_schema(self, tmp_path, small_field):
        path = tmp_path / "f.csv"
        write_field(small_field, str(path))
        first = path.read_text().splitlines()[0]
        assert first == "t_index,x_index,value"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,space,val\n0,0,1.0\n")
        with pytest.raises(ValueError):
            read_field(str(path), 0.05, 0.05)

    def test_rejects_missing_rows(self, tmp_path, small_field):
        path = tmp_path / "f.csv"
        write_field(small_field, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            read_field(str(path), 0.05, 0.05)

    def test_rejects_duplicate_rows_hiding_a_hole(self, tmp_path, small_field):
        path = tmp_path / "f.csv"
        write_field(small_field, str(path))
        lines = path.read_text().splitlines()
        lines[1] = lines[2]  # two copies of one site, another site missing
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_field(str(path), 0.05, 0.05)


    @pytest.mark.parametrize("bad_index", ["1.7", "-1"])
    def test_rejects_fractional_or_negative_index(self, tmp_path, small_field, bad_index):
        # a truncated 1.7 or a wrapped -1 would silently land on another row
        path = tmp_path / "f.csv"
        write_field(small_field, str(path))
        lines = path.read_text().splitlines()
        t, x, value = lines[-1].split(",")
        lines[-1] = f"{bad_index},{x},{value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="index") as info:
            read_field(str(path), 0.05, 0.05)
        assert str(path) in str(info.value)


class TestConfigParsing:
    def test_config_file_format(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# coverage experiment\n"
            "\n"
            "lam = 2.0   # truth\n"
            "n_datasets=10\n"
        )
        assert parse_config_file(str(path)) == {"lam": "2.0", "n_datasets": "10"}

    def test_config_file_requires_key_value(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ConfigInvalid):
            parse_config_file(str(path))

    def test_config_file_missing(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            parse_config_file(str(tmp_path / "nope.cfg"))

    def test_scenario_parsing(self):
        assert parse_scenario("lambda, c_tilde") == ("lambda", "c_tilde")
        with pytest.raises(ConfigInvalid):
            parse_scenario("lambda,rate")

    def test_overrides_win_over_file_values(self):
        cfg = ExperimentConfig.from_sources(
            {"lam": "2.0", "B": "25", "n_datasets": "10"}, {"lam": 3.0}
        )
        assert cfg.lam == 3.0
        assert cfg.B == 25

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_sources({"lambda_rate": "2.0"}, {})
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_sources({}, {"lambda_rate": 2.0})

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"level": 1.5}, "level"),
            ({"n_datasets": 5}, "n_datasets"),
            ({"B": 10}, "B"),
            ({"nx": 1}, "nx"),
            ({"method": "kriging"}, "method"),
            ({"nx": 200, "nt": 200}, "nx"),
            ({"dx": 0.0}, "dx"),
            ({"max_lag": 0}, "max_lag"),
            ({"method": "cl-sandwich", "level": 0.0}, "level"),
            ({"method": "cl-sandwich", "scenario": ()}, "scenario"),
            ({"method": "cl-sandwich", "cutoff_d": 0}, "cutoff_d"),
            ({"method": "cl-sandwich", "window_nx": 1}, "window_nx"),
            ({"method": "cl-sandwich", "window_nt": 50}, "window_nt"),
            ({"method": "cl-sandwich", "step_t": 0}, "step_t"),
            ({"method": "mc-grid", "truncation_p": 0}, "truncation_p"),
            ({"method": "mc-grid", "cells_per_obs_cell": 0}, "cells_per_obs_cell"),
            ({"nx": "1.5"}, "nx"),
            ({"workers": "two"}, "workers"),
        ],
    )
    def test_validation_errors_name_the_field(self, overrides, field):
        with pytest.raises(ConfigInvalid, match=field):
            ExperimentConfig.from_sources({}, overrides)

    @pytest.mark.parametrize("values", [
        {},
        dict(lam=2.0, c=0.5, tau=0.2, mu_seed=-0.1, nx=21, nt=17, dx=0.1, dt=0.02,
             method="mc-grid", scenario=("lambda", "mu"), B=40, n_datasets=12,
             level=0.9, cutoff_d=2, window_nx=7, window_nt=5, step_x=2, step_t=3,
             truncation_p=50, cells_per_obs_cell=2, max_lag=3, seed=11, workers=2,
             out_dir="runs/x", only_dataset=4),
    ], ids=["defaults", "every-key-changed"])
    def test_every_key_round_trips_as_text(self, tmp_path, values):
        expected = dataclasses.replace(ExperimentConfig(), **values)
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert not values or set(values) == set(names)
        path = tmp_path / "exp.cfg"
        # a key whose default is None (truncation_p) has no text: it is left out
        path.write_text("".join(
            f"{name} = {','.join(value) if name == 'scenario' else value}\n"
            for name, value in ((name, getattr(expected, name)) for name in names)
            if value is not None
        ))
        parsed = ExperimentConfig.from_sources(parse_config_file(str(path)), {})
        assert parsed == expected
        assert [type(getattr(parsed, name)) for name in names] == [
            type(getattr(expected, name)) for name in names]


class TestSimulateAndFit:
    def test_simulate_writes_deterministic_field(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run_cli(
                "simulate", "--nx", "9", "--nt", "9", "--seed", "3",
                "--out", str(out),
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
    def test_exact_draw_at_the_site_ceiling_peaks_under_350_mb(self, tmp_path):
        # the 101 x 101 factor holds about 0.21 GB; the whole process peaked
        # at 455 MB when the factor held both mirror parts in one recursion
        assert peak_rss_mib("simulate", "--method", "exact", "--nx", "101", "--nt", "101",
                            "--out", str(tmp_path / "field.csv")) < 350

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
    def test_site_ceiling_draws_hold_no_factor(self, tmp_path):
        # these peaked at 261 MiB while the process held the truth's 0.21 GB
        # factor; the one-pass draw keeps one predictor row at a time
        assert peak_rss_mib("simulate", "--method", "exact", "--nx", "101", "--nt", "101",
                            "--out", str(tmp_path / "field.csv")) < 120
        out_dir = tmp_path / "cl"
        peak_rss_mib("coverage", "--method", "cl-sandwich", "--nx", "101", "--nt", "101",
                     "--n-datasets", "10", "--workers", "1", "--out-dir", str(out_dir))
        manifest = dict(line.split(": ", 1)
                        for line in (out_dir / "manifest.txt").read_text().splitlines())
        assert int(manifest["peak_rss_self_bytes"]) < 120 * 2**20

    def test_omitted_flags_take_experiment_config_defaults(self, tmp_path, field_csv):
        d = ExperimentConfig()
        # the grid simulator's depth for the default truth and lattice
        depth = with_default_depth(d.grid_config(), d.truth(), d.lattice()).truncation_p
        explicit = {
            "simulate": [
                "--lambda", d.lam, "--c", d.c, "--tau", d.tau, "--mu-seed", d.mu_seed,
                "--nx", d.nx, "--nt", d.nt, "--dx", d.dx, "--dt", d.dt,
                "--truncation-p", depth,
                "--cells-per-obs-cell", d.cells_per_obs_cell,
            ],
            "fit-mm": ["--max-lag", d.max_lag],
            "fit-cl": [
                "--scenario", ",".join(d.scenario), "--cutoff-d", d.cutoff_d,
                "--window-nx", d.window_nx, "--window-nt", d.window_nt,
                "--step-x", d.step_x, "--step-t", d.step_t,
                "--level", d.level, "--max-lag", d.max_lag,
            ],
            "ci": ["--B", d.B, "--level", d.level, "--max-lag", d.max_lag, "--seed", d.seed],
        }
        field_args = ["--field", field_csv, "--dx", "0.05", "--dt", "0.05"]
        fixed = {"simulate": ["--method", "grid"], "fit-mm": field_args,
                 "fit-cl": field_args, "ci": field_args}
        for command, flags in explicit.items():
            outs = [tmp_path / f"{command}-implicit.csv", tmp_path / f"{command}-explicit.csv"]
            for out, extra in zip(outs, ([], flags)):
                argv = [command, *fixed[command], *map(str, extra), "--out", str(out)]
                assert run_cli(*argv) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_simulate_grid_default_depth(self, tmp_path):
        # ceil(9.24 / (lam dt)) = 185 at the default lambda and dt
        outs = [tmp_path / "default.csv", tmp_path / "185.csv"]
        for out, extra in zip(outs, ([], ["--truncation-p", "185"])):
            assert run_cli("simulate", "--method", "grid", "--nx", "9", "--nt", "9",
                           *extra, "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_simulate_grid_noise_beyond_budget_exits_2(self, tmp_path, capsys):
        # p = ceil(9.24 / (0.01 * 0.05)) = 18480: an 18520 x 37000 noise array
        out = tmp_path / "g.csv"
        assert run_cli("simulate", "--method", "grid", "--lambda", "0.01",
                       "--out", str(out)) == 2
        assert "exceeds the budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--lambda", "1e-150", "--dt", "1e-200"],  # lam dt underflows to 0
        ["--lambda", "1e-150", "--dt", "1e-170"],  # 9.24 / (lam dt) overflows
        ["--dx", "1e-308", "--dt", "10", "--truncation-p", "1"],  # cone half-width overflows
        # the mesh cell dx / r underflows to 0
        ["--dx", "1e-320", "--cells-per-obs-cell", "100000", "--truncation-p", "1"],
    ])
    def test_simulate_grid_size_not_finite_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "g.csv"
        assert run_cli("simulate", "--method", "grid", "--nx", "3", "--nt", "3", *flags,
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: grid ")
        assert not out.exists()

    def test_simulate_grid_depth_too_large_to_convert_exits_2(self, tmp_path, capsys):
        # 10**320 is no float: lam p dt could not be formed
        out = tmp_path / "g.csv"
        assert run_cli("simulate", "--method", "grid", "--nx", "3", "--nt", "3",
                       "--truncation-p", str(10**320), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: truncation_p must be")
        assert not out.exists()

    def test_simulate_grid_method(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli(
            "simulate", "--method", "grid", "--nx", "9", "--nt", "9",
            "--truncation-p", "300", "--out", str(out),
        ) == 0
        field = read_field(str(out), 0.05, 0.05)
        assert field.values.shape == (9, 9)

    def test_fit_mm_reports_all_parameters(self, field_csv, capsys):
        assert run_cli("fit-mm", "--field", field_csv, "--dx", "0.05", "--dt", "0.05") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "parameter,estimate"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["lambda", "c", "mu_seed", "tau", "mu", "sigma2"]
        for line in lines[1:]:
            float(line.split(",")[1])

    def test_fit_cl_reports_free_and_derived(self, field_csv, capsys):
        assert run_cli(
            "fit-cl", "--field", field_csv, "--dx", "0.05", "--dt", "0.05",
            "--window-nx", "7", "--window-nt", "7", "--step-x", "3", "--step-t", "3",
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "parameter,estimate,se,lower,upper"
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert set(rows) == {"lambda", "c_tilde", "sigma2", "mu", "c", "tau", "mu_seed"}
        for name, cells in rows.items():
            est, se, lower, upper = map(float, cells)
            assert lower <= est <= upper
            assert se > 0.0

    def test_fit_cl_partial_scenario(self, field_csv, capsys):
        assert run_cli(
            "fit-cl", "--field", field_csv, "--dx", "0.05", "--dt", "0.05",
            "--scenario", "lambda,c_tilde",
            "--window-nx", "7", "--window-nt", "7", "--step-x", "3", "--step-t", "3",
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = {line.split(",")[0] for line in lines[1:]}
        assert {"lambda", "c_tilde"} <= names

    def test_ci_grid_cells_without_truncation(self, field_csv, capsys):
        # the depth is then the grid simulator's default for the fitted model;
        # mc-grid takes either grid flag
        for flag, value in (("--cells-per-obs-cell", "2"), ("--truncation-p", "150")):
            assert run_cli(
                "ci", "--field", field_csv, "--dx", "0.05", "--dt", "0.05",
                "--method", "mc-grid", "--B", "20", flag, value,
            ) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert lines[0] == "parameter,point,lower,median,upper" and len(lines) == 7

    @pytest.mark.parametrize("flag", ["--truncation-p", "--cells-per-obs-cell"])
    def test_ci_exact_rejects_grid_flag(self, tmp_path, capsys, flag):
        # refused before the field is read: the file does not exist
        code = run_cli(
            "ci", "--field", str(tmp_path / "absent.csv"), "--dx", "0.05", "--dt", "0.05",
            "--method", "mc-exact", flag, "2",
        )
        assert code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--truncation-p", "--cells-per-obs-cell"])
    @pytest.mark.parametrize("command,method", [
        ("coverage", None), ("coverage", "mc-exact"), ("coverage", "cl-sandwich"),
        ("proxy", None), ("proxy", "mc-exact"),
    ])
    def test_experiment_rejects_grid_flag_without_mc_grid(self, tmp_path, capsys, no_worker_env,
                                                          command, method, flag):
        # refused before any dataset runs: the output directory is never made
        out_dir = tmp_path / "out"
        method_args = [] if method is None else ["--method", method]
        code = run_cli(command, *EXPERIMENT_ARGS, *method_args, flag, "2",
                       "--out-dir", str(out_dir))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag} applies to the grid simulator, not --method {method or 'mc-exact'}\n")
        assert not out_dir.exists()

    def test_experiment_grid_keys_follow_the_resolved_method(self, tmp_path, no_worker_env):
        # a config file's grid keys are accepted with any method, and a grid
        # flag with a config file's or a flag's mc-grid
        cfg = tmp_path / "exp.cfg"
        for command, text, flags in (
            ("coverage", "method = mc-exact\ntruncation_p = 5\n", []),
            ("coverage", "method = mc-grid\n", ["--cells-per-obs-cell", "2"]),
            ("proxy", "", ["--method", "mc-grid", "--truncation-p", "150"]),
            ("proxy", "", ["--method", "mc-grid", "--cells-per-obs-cell", "2"]),
        ):
            cfg.write_text(text)
            assert run_cli(command, *_EXPERIMENT_11[:-2], "--config", str(cfg), *flags,
                           "--out-dir", str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("flag", ["--truncation-p", "--cells-per-obs-cell"])
    def test_simulate_exact_rejects_grid_flag(self, tmp_path, capsys, flag):
        # refused before the covariance is built: this lattice is over budget
        code = run_cli(
            "simulate", "--nx", "200", "--nt", "200", flag, "2",
            "--out", str(tmp_path / "f.csv"),
        )
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_ci_schema(self, field_csv, capsys):
        assert run_cli(
            "ci", "--field", field_csv, "--dx", "0.05", "--dt", "0.05",
            "--B", "20", "--seed", "4",
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "parameter,point,lower,median,upper"
        assert len(lines) == 7
        for line in lines[1:]:
            cells = line.split(",")
            point, lower, median, upper = map(float, cells[1:])
            assert lower <= median <= upper


EXPERIMENT_ARGS = (
    "--nx", "15", "--nt", "15", "--n-datasets", "10", "--B", "20",
    "--seed", "5", "--window-nx", "7", "--window-nt", "7",
    "--step-x", "4", "--step-t", "4",
)


class TestExperimentCommands:
    def test_coverage_outputs(self, tmp_path, capsys, no_worker_env):
        out_dir = tmp_path / "cov"
        assert run_cli("coverage", *EXPERIMENT_ARGS, "--out-dir", str(out_dir)) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("parameter,coverage,se,n")

        estimates = (out_dir / "estimates.csv").read_text().splitlines()
        assert estimates[0] == ESTIMATES_HEADER
        # 10 datasets x 6 reported parameters
        assert len(estimates) == 61
        cells = estimates[1].split(",")
        assert cells[2] == "lambda"
        assert cells[7] in ("0", "1")

        coverage = (out_dir / "coverage.csv").read_text().splitlines()
        assert coverage[0] == "parameter,coverage,se,n"
        assert len(coverage) == 7
        manifest = (out_dir / "manifest.txt").read_text()
        assert "seed: 5" in manifest
        assert "seed_derivation:" in manifest

    def test_manifest_records_environment(self, tmp_path, monkeypatch, capsys,
                                          no_worker_env):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out_dir = tmp_path / "env"
        assert run_cli("coverage", *EXPERIMENT_ARGS, "--out-dir", str(out_dir)) == 0
        lines = (out_dir / "manifest.txt").read_text().splitlines()
        entries = dict(line.split(": ", 1) for line in lines)
        assert entries["OMP_NUM_THREADS"] == "3"
        assert entries["MKL_NUM_THREADS"] == "unset"
        assert "OPENBLAS_NUM_THREADS" in entries
        assert entries["cpu_count"] == str(os.cpu_count())
        assert int(entries["peak_rss_self_bytes"]) > 0
        assert entries["peak_rss_children_bytes"] == "0"  # no pool ran
        assert "grid_depths" not in entries  # no grid draws ran

    def test_manifest_children_peak_is_the_pool_workers(self, tmp_path):
        # a 1-worker run writes 0 (test_manifest_records_environment)
        config = ExperimentConfig(method="cl-sandwich", nx=11, nt=11, n_datasets=10,
                                  window_nx=7, window_nt=7, step_x=4, step_t=4, workers=2,
                                  out_dir=str(tmp_path))
        assert int(read_manifest(run(config)["manifest"])["peak_rss_children_bytes"]) > 0

    def test_manifest_records_grid_depths(self, tmp_path, monkeypatch, no_worker_env):
        # at the default depth each dataset's is ceil(9.24 / (lambda-hat dt))
        recorded = []
        real_task = stou.experiment._dataset_task

        def recording(args):
            recorded.append(real_task(args))
            return recorded[-1]

        monkeypatch.setattr(stou.experiment, "_dataset_task", recording)
        config = ExperimentConfig(nx=11, nt=11, B=20, n_datasets=10, seed=5, method="mc-grid",
                                  out_dir=str(tmp_path / "default"))
        paths = run(config)
        with open(paths["estimates"], encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        depths = [math.ceil(9.24 / (float(row[4]) * config.dt))
                  for row in rows if row[2] == "lambda"]
        assert len(depths) == 10 and len(set(depths)) > 1
        assert [res.grid_depth for res in recorded] == depths
        assert read_manifest(paths["manifest"])["grid_depths"] == f"{min(depths)}..{max(depths)}"
        with pytest.warns(stou.TruncationTooShallow):  # 30 steps are shallow here
            assert run_cli("coverage", *_EXPERIMENT_11[:-2], "--method", "mc-grid",
                           "--truncation-p", "30", "--out-dir", str(tmp_path / "given")) == 0
        assert read_manifest(tmp_path / "given" / "manifest.txt")["grid_depths"] == "30..30"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is Linux's")
    def test_manifest_peak_is_the_runs_own(self, tmp_path):
        # started from a process whose peak is 256 MiB higher, the run's
        # ru_maxrss would start at that peak; its own is far lower
        ballast = np.ones(256 * 2**20 // 8)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >= 256 * 2**10
        out_dir = tmp_path / "cl"
        subprocess.run(
            [sys.executable, "-m", "stou.cli", "coverage", "--method", "cl-sandwich",
             *_LATTICE_11, "--n-datasets", "10", "--workers", "1", "--out-dir", str(out_dir)],
            env=_env_with_src(), capture_output=True, check=True,
        )
        del ballast
        manifest = dict(line.split(": ", 1)
                        for line in (out_dir / "manifest.txt").read_text().splitlines())
        assert int(manifest["peak_rss_self_bytes"]) < 128 * 2**20

    def test_peak_rss_without_proc_status_is_ru_maxrss(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise FileNotFoundError("no /proc/self/status")

        monkeypatch.setattr(stou.experiment, "open", no_proc, raising=False)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        got = stou.experiment._peak_rss_self_bytes(1024)
        assert before * 1024 <= got <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def test_manifest_counts_refit_failures(self, tmp_path, monkeypatch):
        real_fit = stou.bootstrap.fit_mm
        calls = {"n": 0}

        def flaky_fit(field, max_lag=5):
            calls["n"] += 1
            # call 1 fits dataset 0's field and its refits follow, so call 3
            # is one bootstrap refit
            if calls["n"] == 3:
                raise stou.InsufficientUsableLags("synthetic failure")
            return real_fit(field, max_lag=max_lag)

        counts = []
        for name, fit in (("clean", real_fit), ("flaky", flaky_fit)):
            monkeypatch.setattr(stou.bootstrap, "fit_mm", fit)
            config = ExperimentConfig(nx=11, nt=11, B=20, n_datasets=10, seed=5,
                                      out_dir=str(tmp_path / name))
            counts.append(read_manifest(run(config)["manifest"])["refit_failures"])
        assert counts == ["0", "1"]

    def test_proxy_outputs(self, tmp_path, capsys, no_worker_env):
        out_dir = tmp_path / "prox"
        assert run_cli("proxy", *EXPERIMENT_ARGS, "--out-dir", str(out_dir)) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("parameter,proxy,se,n")
        lines = (out_dir / "coverage.csv").read_text().splitlines()
        for line in lines[1:]:
            proxy = float(line.split(",")[1])
            assert 0.0 <= proxy <= 1.0

    def test_proxy_rejects_sandwich_method(self, tmp_path, capsys, no_worker_env):
        code = run_cli(
            "proxy", *EXPERIMENT_ARGS, "--method", "cl-sandwich",
            "--out-dir", str(tmp_path),
        )
        assert code == 2

    def test_coverage_with_sandwich_method(self, tmp_path, capsys, no_worker_env):
        out_dir = tmp_path / "cl"
        assert run_cli(
            "coverage", *EXPERIMENT_ARGS, "--method", "cl-sandwich",
            "--scenario", "lambda,c_tilde", "--out-dir", str(out_dir),
        ) == 0
        coverage = (out_dir / "coverage.csv").read_text().splitlines()
        names = [line.split(",")[0] for line in coverage[1:]]
        # free parameters plus the derived views
        assert names == ["lambda", "c_tilde", "c", "tau", "mu_seed"]

    @pytest.mark.parametrize("method", ["mc-exact", "mc-grid", "cl-sandwich"])
    def test_worker_count_does_not_change_outputs(self, tmp_path, no_worker_env, capsys,
                                                  method):
        dirs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            assert run_cli(
                "coverage", *EXPERIMENT_ARGS, "--method", method, "--workers", workers,
                "--out-dir", str(out_dir),
            ) == 0
            dirs.append(out_dir)
        for name in ("estimates.csv", "coverage.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_every_method_is_given_the_same_fields(self, tmp_path, monkeypatch):
        # the methods' coverage is compared dataset by dataset, so each must
        # see the same draw from the truth
        config = ExperimentConfig(nx=11, nt=11, B=20, n_datasets=10, seed=5,
                                  window_nx=7, window_nt=7, step_x=4, step_t=4)
        given = {}
        for name in ("mc_ci", "sandwich_ci"):
            real = getattr(stou.experiment, name)

            def recording(field, *args, real=real, **kwargs):
                given[method].append(field.values.copy())
                return real(field, *args, **kwargs)

            monkeypatch.setattr(stou.experiment, name, recording)
        for method in ("mc-exact", "mc-grid", "cl-sandwich"):
            given[method] = []
            run(dataclasses.replace(config, method=method, out_dir=str(tmp_path / method)))

        factor = stou.cholesky_factor(stou.build_covariance(config.truth(), config.lattice()))
        expected = [
            stou.simulate_exact(factor, config.truth().mu, config.lattice(),
                                np.random.default_rng(child).spawn(2)[0]).values
            for child in np.random.SeedSequence(config.seed).spawn(config.n_datasets)
        ]
        for method, fields in given.items():
            assert len(fields) == config.n_datasets, method
            for got, want in zip(fields, expected):
                np.testing.assert_array_equal(got, want)

    def test_pool_never_exceeds_the_datasets(self, tmp_path, monkeypatch):
        # a stand-in pool that starts no process and runs nothing
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, func, tasks):
                return list(tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert stou.experiment._map_datasets(list("abcdefghij"), workers=8) == list("abcdefghij")
        assert stou.experiment._map_datasets(["a", "b"], workers=8) == ["a", "b"]
        assert sizes == [8, 2]
        # one dataset runs in this process, whatever the worker count
        config = ExperimentConfig(nx=11, nt=11, B=20, n_datasets=10, workers=8,
                                  only_dataset=3, out_dir=str(tmp_path))
        with open(run(config)["estimates"], encoding="utf-8") as handle:
            rows = handle.read().splitlines()[1:]
        assert sizes == [8, 2]
        assert len(rows) == 6 and all(row.startswith("3,") for row in rows)

    def test_env_var_sets_default_workers(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STOU_WORKERS", "2")
        out_dir = tmp_path / "env"
        assert run_cli("coverage", *EXPERIMENT_ARGS, "--out-dir", str(out_dir)) == 0
        assert "workers: 2" in (out_dir / "manifest.txt").read_text()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STOU_WORKERS", "2")
        out_dir = tmp_path / "flag"
        assert run_cli(
            "coverage", *EXPERIMENT_ARGS, "--workers", "1", "--out-dir", str(out_dir)
        ) == 0
        assert "workers: 1" in (out_dir / "manifest.txt").read_text()

    def test_only_dataset_replays_identical_rows(self, tmp_path, capsys, no_worker_env):
        full_dir = tmp_path / "full"
        assert run_cli("coverage", *EXPERIMENT_ARGS, "--out-dir", str(full_dir)) == 0
        replay_dir = tmp_path / "replay"
        assert run_cli(
            "coverage", *EXPERIMENT_ARGS, "--only-dataset", "3",
            "--out-dir", str(replay_dir),
        ) == 0
        full = (full_dir / "estimates.csv").read_text().splitlines()
        replay = (replay_dir / "estimates.csv").read_text().splitlines()
        wanted = [line for line in full[1:] if line.startswith("3,")]
        assert replay[1:] == wanted

    def test_config_file_drives_the_run(self, tmp_path, capsys, no_worker_env):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "nx = 15\nnt = 15\nn_datasets = 10\nB = 20\nseed = 5\n"
            "window_nx = 7\nwindow_nt = 7\nstep_x = 4\nstep_t = 4\n"
        )
        out_dir = tmp_path / "from_file"
        assert run_cli(
            "coverage", "--config", str(cfg), "--out-dir", str(out_dir)
        ) == 0
        assert "n_datasets: 10" in (out_dir / "manifest.txt").read_text()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys, no_worker_env):
        code = run_cli("coverage", *EXPERIMENT_ARGS, "--level", "1.5",
                       "--out-dir", str(tmp_path))
        assert code == 2
        assert "level" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value,named", [
        pytest.param("coverage", "--lambda", "1e-200", "lam", id="1e-200"),
        pytest.param("coverage", "--lambda", "1e-160", "lam", id="1e-160"),
        pytest.param("simulate", "--lambda", "1e-200", "lam", id="simulate-1e-200"),
        pytest.param("simulate", "--tau", "-0.1", "tau", id="simulate-negative-tau"),
        pytest.param("simulate", "--seed", "-1", "seed", id="simulate-negative-seed"),
    ])
    def test_unrepresentable_truth_is_2(self, tmp_path, capsys, no_worker_env,
                                        command, flag, value, named):
        # lam**2 underflows: the implied variance divides by 0 at 1e-200
        # and overflows at 1e-160; a negative tau would be squared away; a
        # negative seed is refused before the draw, so no file is written
        out = tmp_path / "f.csv"
        where = (["--out", str(out)] if command == "simulate"
                 else [*EXPERIMENT_ARGS, "--out-dir", str(tmp_path)])
        code = run_cli(command, *where, flag, value)
        assert code == 2
        assert f"{named}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config_text,env,named", [
        ("nx = 1.5\n", None, "nx"),
        ("workers = two\n", None, "workers"),
        ("", "two", "STOU_WORKERS"),
    ], ids=["config-nx", "config-workers", "env-workers"])
    def test_unparseable_setting_is_2(self, tmp_path, monkeypatch, capsys,
                                      config_text, env, named):
        monkeypatch.delenv("STOU_WORKERS", raising=False)
        if env is not None:
            monkeypatch.setenv("STOU_WORKERS", env)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_text)
        code = run_cli("coverage", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert f"{named}:" in capsys.readouterr().err

    def test_runtime_failure_is_3(self, tmp_path, capsys):
        lat = Lattice(n_x=6, n_t=6, dx=0.05, dt=0.05)
        path = tmp_path / "const.csv"
        write_field(FieldSample(lattice=lat, values=np.full((6, 6), 0.4)), str(path))
        code = run_cli("fit-mm", "--field", str(path), "--dx", "0.05", "--dt", "0.05")
        assert code == 3

    def test_missing_field_file_is_3(self, tmp_path, capsys):
        code = run_cli(
            "fit-mm", "--field", str(tmp_path / "absent.csv"),
            "--dx", "0.05", "--dt", "0.05",
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["fit-mm", "fit-cl", "ci"])
    @pytest.mark.parametrize("flag,value", [("--dx", "-1"), ("--dt", "0")])
    def test_bad_spacing_is_2(self, field_csv, capsys, command, flag, value):
        spacings = {"--dx": "0.05", "--dt": "0.05", flag: value}
        code = run_cli(command, "--field", field_csv,
                       *(part for item in spacings.items() for part in item))
        assert code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value,named", [
        ("fit-mm", "--max-lag", "0", "--max-lag"),
        ("fit-cl", "--max-lag", "0", "--max-lag"),
        ("ci", "--max-lag", "0", "--max-lag"),
        ("fit-cl", "--level", "1.5", "level"),
        ("ci", "--level", "1.5", "level"),
        ("ci", "--B", "5", "B must"),
        ("ci", "--seed", "-1", "seed"),
    ])
    def test_bad_setting_is_2_before_the_field_is_read(self, tmp_path, capsys, command,
                                                       flag, value, named):
        # the field file does not exist, so reading it first would exit 3
        code = run_cli(command, "--field", str(tmp_path / "absent.csv"),
                       "--dx", "0.05", "--dt", "0.05", flag, value)
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command,content", [
        pytest.param(command, content, id=command + suffix)
        for suffix, content in [
            ("", "t,x,v\n0,0,1.0\n"),
            # a well-formed file whose field has one column, too few points
            ("-one-column",
             "t_index,x_index,value\n" + "".join(f"{t},0,{0.1 * t}\n" for t in range(6))),
        ]
        for command in ["fit-mm", "fit-cl", "ci"]
    ])
    def test_malformed_field_file_is_3(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        code = run_cli(command, "--field", str(path), "--dx", "0.05", "--dt", "0.05")
        assert code == 3

    def test_argparse_rejections_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--unknown-flag", "1")
        assert exc.value.code == 2


@pytest.fixture()
def blas_calls():
    """(set, get) of numpy's BLAS thread count, with the count found
    restored afterwards; skips where numpy's BLAS has no setter."""
    calls = stou.experiment._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS has no thread-count setter here")
    found = calls[1]()
    yield calls
    calls[0](found)


# (command, method, sites per row, values of OPENBLAS_NUM_THREADS, None
# leaving it unset).  33 x 33 is the smallest square lattice whose
# estimates.csv differed between the variable unset, 1 and 2 on a 2-core
# host while the thread count still followed the variable (32 x 32 did
# not).  33 and 34 sites per row are the two shapes of the exact factor's
# mirror split.  simulate's exact draw runs each predictor row as one
# product broadcast over the fields, and ci runs each bootstrap simulator
# (the grid at its default depth) on such a field.
_BLAS_CASES = [
    pytest.param("coverage", "mc-exact", 33, (None, "1", "2"), id="coverage-unset-1-2"),
    *(pytest.param("coverage", method, nx, ("1", "4"), id=f"coverage-{method}-{nx}")
      for nx in (33, 34) for method in stou.experiment.METHODS),
    *(pytest.param("simulate", "exact", nx, ("1", "4"), id=f"simulate-exact-{nx}")
      for nx in (33, 34)),
    *(pytest.param("ci", method, nx, ("1", "4"), id=f"ci-{method}-{nx}")
      for nx in (33, 34) for method in ("mc-exact", "mc-grid")),
]


def _stou_on_blas_threads(value, *argv) -> None:
    """`stou argv` in a new process with OPENBLAS_NUM_THREADS set to value,
    or unset for None, and STOU_WORKERS unset; it must succeed."""
    env = _env_with_src()
    env.pop("STOU_WORKERS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    subprocess.run([sys.executable, "-m", "stou.cli", *argv], env=env, capture_output=True,
                   check=True)


class TestBlasThreads:
    @pytest.mark.parametrize("command,method,nx,values", _BLAS_CASES)
    def test_thread_variables_do_not_change_outputs(self, tmp_path, command, method, nx,
                                                    values):
        # every command runs numpy's BLAS on one thread, so the variable
        # changes no output byte
        lattice = ["--nx", str(nx), "--nt", "33", "--seed", "5"]
        field = tmp_path / "field.csv"
        if command == "ci":
            _stou_on_blas_threads("1", "simulate", *lattice, "--out", str(field))
        outputs = []
        for value in values:
            out = tmp_path / (value or "unset")
            out.mkdir()
            argv = {
                "coverage": [*lattice, "--B", "20", "--n-datasets", "10", "--workers", "1",
                             "--out-dir", str(out)],
                "simulate": [*lattice, "--out", str(out / "field.csv")],
                "ci": ["--field", str(field), "--dx", "0.05", "--dt", "0.05", "--B", "20",
                       "--seed", "5", "--out", str(out / "ci.csv")],
            }[command]
            _stou_on_blas_threads(value, command, "--method", method, *argv)
            if command == "coverage":
                assert read_manifest(out / "manifest.txt")["blas_threads"] == "1"
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()
                            if path.name != "manifest.txt"})
        assert len(outputs[0]) == (2 if command == "coverage" else 1)
        assert all(output == outputs[0] for output in outputs)

    def test_pins_and_restores_the_count_found(self, monkeypatch):
        state = {"threads": 3}
        calls = (lambda n: state.update(threads=n), lambda: state["threads"])
        monkeypatch.setattr(stou.experiment, "_blas_thread_calls", lambda: calls)
        with _OneBlasThread():
            assert state["threads"] == 1
        assert state["threads"] == 3

    def test_without_a_setter_it_does_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(stou.experiment, "_blas_thread_calls", lambda: None)
        with _OneBlasThread():
            assert _blas_threads() is None
        config = ExperimentConfig(nx=11, nt=11, B=20, n_datasets=10, out_dir=str(tmp_path))
        assert read_manifest(run(config)["manifest"])["blas_threads"] == "unknown"

    def test_numpy_blas_count_is_restored(self, blas_calls):
        set_threads, get_threads = blas_calls
        set_threads(2)
        raised = get_threads()
        with _OneBlasThread():
            assert get_threads() == 1
        assert get_threads() == raised

    def test_pool_workers_run_on_one_thread(self, blas_calls, tmp_path):
        # two threads in this process: what a worker would inherit or start
        # with if its initializer did not pin it
        set_threads, get_threads = blas_calls
        set_threads(2)
        raised = get_threads()
        config = ExperimentConfig(nx=11, nt=11, B=20, n_datasets=10, workers=2,
                                  out_dir=str(tmp_path))
        # each dataset records the count of the process that ran it
        assert read_manifest(run(config)["manifest"])["blas_threads"] == "1"
        assert get_threads() == raised
