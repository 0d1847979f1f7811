"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_ci, check_coverage  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import LAYER_MODULES, Tracer, patched, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "failed": False}


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("c", 8.0, 9.5, 0),  # overlaps b: the overlap counts once
        _span("late", 9.8, 11.0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2])


def _layer_attributes():
    return {
        (short, attr): value
        for short in LAYER_MODULES
        for attr, value in vars(importlib.import_module(f"stou.{short}")).items()
    }


def test_tracing_restores_every_wrapped_attribute_even_on_error():
    from stou import Lattice, StouParams, build_covariance, cholesky_factor, simulate_exact
    import stou.bootstrap

    before = _layer_attributes()
    lattice = Lattice(n_x=6, n_t=6, dx=0.05, dt=0.05)
    truth = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
    field = simulate_exact(cholesky_factor(build_covariance(truth, lattice)), truth.mu,
                           lattice, np.random.default_rng(0))
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tracer):
            assert stou.bootstrap.simulate_exact is not before[("bootstrap", "simulate_exact")]
            result = stou.bootstrap.mc_ci(field, 20, 0.9, "exact", np.random.default_rng(1))
            raise RuntimeError("leave the context by an error")
    after = _layer_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [span["name"] for span in tracer.spans]
    assert names.count("bootstrap.mc_ci") == 1
    assert names.count("cholesky.simulate_exact") == 20
    assert names.count("mm.fit_mm") == 21
    (factor,) = [s for s in tracer.spans if s["name"] == "cholesky.cholesky_factor"]
    assert factor["factor_bytes"] == 36**2 * 8
    (mc,) = [s for s in tracer.spans if s["name"] == "bootstrap.mc_ci"]
    assert (mc["n_boot"], mc["n_failed"]) == (20, result.n_failed)
    mc_index = tracer.spans.index(mc)
    assert all(s["parent"] == mc_index for s in tracer.spans if s["name"] == "mm.fit_mm")


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_checks_accept_consistent_outputs_and_reject_tampered_ones(tmp_path):
    header = "dataset,seed,parameter,true_value,estimate,lower,upper,hit,error"
    params = ["lambda", "c", "mu_seed", "tau", "mu", "sigma2"]
    rows = [header]
    for index in range(10):
        for name in params:
            rows.append(f"{index},77,{name},1.0,1.1,0.5,{2.0 if index < 5 else 0.9},"
                        f"{int(index < 5)},")
    _write(tmp_path / "estimates.csv", rows)
    _write(tmp_path / "coverage.csv",
           ["parameter,coverage,se,n"] + [f"{name},0.5,0.15811388300841897,10" for name in params])
    good = check_coverage(tmp_path, "mc-grid", 10)
    assert good.problems == [] and good.ok_datasets == 10

    _write(tmp_path / "coverage.csv",
           ["parameter,coverage,se,n"] + [f"{name},0.6,0.15,10" for name in params])
    assert any("disagrees" in p for p in check_coverage(tmp_path, "mc-grid", 10).problems)

    _write(tmp_path / "ci.csv", ["parameter,point,lower,median,upper"]
           + [f"{name},1.0,0.5,0.9,1.5" for name in params[:5]] + ["sigma2,1.0,0.5,2.0,1.5"])
    assert any("median" in p for p in check_ci(tmp_path / "ci.csv").problems)


def _bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_every_workload_reports_every_named_metric(trace):
    done = _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace,
                  "--smoke")
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    for name, result in results.items():
        # a dataset that fails with an error row is a valid output: it counts
        # in `failed`, not against `correct`
        assert result["correct"] is True, name
        assert 0 <= result["failed"] < result["attempted"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in expected}, name
        if trace == "0":
            assert result["metrics"]["ok_frac"]["value"] == pytest.approx(
                1 - result["failed"] / result["attempted"])
    if trace == "1":
        grid = results["cov-grid-41"]["metrics"]
        assert grid["warnings.TruncationTooShallow"]["value"] > 0
        assert grid["gridsim.simulate_grid.calls"]["value"] == 10 * 20
        assert results["cov-cl-41"]["metrics"]["cl.wsev_j.calls"]["value"] == 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "cov-exact-41", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
