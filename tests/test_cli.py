import os
import subprocess
import sys

import numpy as np
import pytest

import stou
from stou import ConfigInvalid, FieldSample, Lattice
from stou.cli import main
from stou.experiment import (
    ESTIMATES_HEADER,
    ExperimentConfig,
    parse_config_file,
    parse_scenario,
    read_field,
    write_field,
)


@pytest.fixture()
def no_worker_env(monkeypatch):
    monkeypatch.delenv("STOU_WORKERS", raising=False)


@pytest.fixture()
def field_csv(tmp_path, small_field):
    path = tmp_path / "field.csv"
    write_field(small_field, str(path))
    return str(path)


def run_python(code: str) -> str:
    """stdout of `python -c code` with the package's source on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stou.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_leaves_out_slow_scipy_modules():
    # these modules add to every start; the commands that need scipy.fft,
    # scipy.special or scipy.linalg (which loads numpy.f2py) import them on use
    code = (
        "import sys, stou.cli; "
        "print([m for m in ('scipy.signal', 'scipy.stats', 'scipy.fft', 'scipy.optimize', "
        "'scipy.special', 'scipy.linalg', 'numpy.f2py') if m in sys.modules])"
    )
    assert run_python(code) == "[]"


@pytest.mark.parametrize("argv", [
    ["coverage", "--method", "cl-sandwich", "--nx", "11", "--nt", "11",
     "--n-datasets", "10", "--window-nx", "7", "--window-nt", "7",
     "--step-x", "4", "--step-t", "4", "--workers", "1", "--out-dir", "{tmp}"],
    ["fit-cl", "--field", "{field}", "--dx", "0.05", "--dt", "0.05",
     "--window-nx", "7", "--window-nt", "7", "--step-x", "3", "--step-t", "3",
     "--out", "{tmp}/cl.csv"],
])
def test_cl_commands_run_without_scipy_optimize(argv, tmp_path, field_csv):
    argv = [a.format(tmp=tmp_path, field=field_csv) for a in argv]
    code = (
        "import sys; from stou.cli import main; "
        f"code = main({argv!r}); "
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    assert run_python(code).splitlines()[-1] == "0 False"


def run_cli(*argv) -> int:
    return main(list(argv))


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
        ],
    )
    def test_validation_errors_name_the_field(self, overrides, field):
        with pytest.raises(ConfigInvalid, match=field):
            ExperimentConfig.from_sources({}, overrides)


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

    def test_ci_grid_cells_without_truncation_rejected(self, field_csv, capsys):
        code = run_cli(
            "ci", "--field", field_csv, "--dx", "0.05", "--dt", "0.05",
            "--method", "mc-grid", "--B", "5", "--cells-per-obs-cell", "2",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--cells-per-obs-cell" in err and "--truncation-p" in err

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
        assert int(entries["peak_rss_children_bytes"]) >= 0

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

    def test_worker_count_does_not_change_outputs(self, tmp_path, no_worker_env, capsys):
        dirs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            assert run_cli(
                "coverage", *EXPERIMENT_ARGS, "--workers", workers,
                "--out-dir", str(out_dir),
            ) == 0
            dirs.append(out_dir)
        for name in ("estimates.csv", "coverage.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

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

    @pytest.mark.parametrize("lam", ["1e-200", "1e-160"])
    def test_unrepresentable_truth_is_2(self, tmp_path, capsys, no_worker_env, lam):
        # lam**2 underflows: the implied variance divides by 0 at 1e-200
        # and overflows at 1e-160
        code = run_cli("coverage", *EXPERIMENT_ARGS, "--lambda", lam,
                       "--out-dir", str(tmp_path))
        assert code == 2
        assert "lam" in capsys.readouterr().err

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

    def test_argparse_rejections_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--unknown-flag", "1")
        assert exc.value.code == 2
