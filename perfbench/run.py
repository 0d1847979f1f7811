"""Coverage-run benchmark for the `stou` command.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs the `stou` CLI from this checkout's `src/` as a
subprocess, the way a user runs it, and repeats the same invocation for
about `--seconds`, reporting medians over the invocations.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are end to end, from untraced
runs; with `--trace 1` they are per layer, from a run of the CLI inside
`child.py trace` with wrappers around each layer's entry points
(`tracing.py`).  Every run's outputs are checked (`checks.py`) and their
sha256 digests recorded, so runs of one commit can be compared byte for
byte.  Work files go to `.perfbench_run/<workload>/`, with a
`result.json` holding the environment, the digests and every timing.

The benchmark never sets BLAS or OpenMP thread variables: it records
them as found.  `--smoke` shrinks every workload to 11 x 11 sites,
B = 20 and 10 datasets, for tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from checks import Checked, check_ci, check_coverage, sha256
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
PYTHON = sys.executable

SETUP_REPEATS = 3  # counted probes; one more runs first to warm the file cache
# a single-workload run must end within 180 s; stop starting work after this
HARD_LIMIT_S = 165.0
DX = DT = "0.05"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "coverage" or "ci"
    method: str
    nx: int  # square lattice, nx = nt
    B: int | None  # bootstrap size; None for cl-sandwich
    datasets: int  # datasets per invocation; 1 for ci
    why: str
    truncation_p: int | None = None  # None: the program's default


# Each workload stresses different layers; see the `why` of each.  All run
# one worker: with BLAS threads unpinned, a 2-worker pool on 2 cores made
# identical invocations vary by twice as much as one worker does.  An
# invocation lasts a few seconds, so a run takes the median of several.
# `ci-exact-101` is not listed in BENCHMARK.json: its input draw and
# 1.7 GB factorization leave too little of a run's time budget for the
# other three to be measured steadily.  Run it by name.
WORKLOADS = {w.name: w for w in (
    Workload("cov-exact-41", "coverage", "mc-exact", 41, 100, 10,
             "default method: per-dataset refactorization and one-at-a-time exact draws "
             "dominate, so it shows GEMM batching and BLAS thread pinning"),
    # truncation_p = 140 is ceil(7 / (lam dt)), the kernel depth ROADMAP plans as the
    # default.  At today's default of 300 each draw's FFT arrays (~6 MB) spill out of
    # the per-core cache, and on a shared 2-core host the draw time then swung from
    # 37 to 54 ms within two minutes (6.4 to 8.2 ms at 140).
    Workload("cov-grid-41", "coverage", "mc-grid", 41, 60, 10,
             "grid draws at truncation_p = 140 dominate; shows kernel-FFT reuse and "
             "bypasses Cholesky work", truncation_p=140),
    Workload("cov-cl-41", "coverage", "cl-sandwich", 41, None, 100,
             "maximize_cl and wsev_j dominate, no bootstrap; shows lag-core and "
             "optimizer work and bypasses bootstrap changes"),
    Workload("ci-exact-101", "ci", "mc-exact", 101, 100, 1,
             "one 101x101 field at the site ceiling: dense build, factorization and "
             "large-n draws dominate; shows circulant embedding and memory work"),
)}


def smoke(workload: Workload) -> Workload:
    # a 10-step grid kernel keeps the smoke run short and trips the
    # shallow-truncation warning, so its counter is exercised
    return replace(workload, nx=11, B=None if workload.B is None else 20,
                   datasets=1 if workload.command == "ci" else 10,
                   truncation_p=10 if workload.method == "mc-grid" else None)


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a required step failed)."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def spawn(argv: list[str], cwd: Path, timeout: float) -> Child:
    """Run argv to completion; wall time, CPU time and peak RSS of its
    whole process tree (its waited-for descendants included)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    timed_out = threading.Event()

    with open(cwd / "stdout.txt", "ab") as out, open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)

        def kill():
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, timed_out=timed_out.is_set())


@dataclass
class Invocation:
    label: str
    child: Child
    checked: Checked
    digests: dict[str, str]

    @property
    def ok(self) -> bool:
        return self.child.code == 0 and not self.checked.problems


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: int):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.field_csv = None
        self.invocations: list[Invocation] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def prepare(self) -> None:
        """Draw the ci input field from the seed, before any timing."""
        if self.w.command != "ci":
            return
        self.field_csv = self.work / "field.csv"
        child = spawn([PYTHON, "-m", "stou.cli", "simulate", "--method", "exact",
                       "--nx", str(self.w.nx), "--nt", str(self.w.nx), "--dx", DX, "--dt", DT,
                       "--seed", str(self.seed), "--out", str(self.field_csv)],
                      self.work, self.remaining())
        if child.code != 0:
            raise BenchError(f"drawing the input field failed with code {child.code}")

    def cli_args(self, out: Path) -> list[str]:
        w = self.w
        if w.command == "ci":
            # the field used --seed; the bootstrap takes the next seed
            return ["ci", "--field", str(self.field_csv), "--dx", DX, "--dt", DT,
                    "--method", w.method, "--B", str(w.B), "--seed", str(self.seed + 1),
                    "--out", str(out / "ci.csv")]
        args = ["coverage", "--method", w.method, "--nx", str(w.nx), "--nt", str(w.nx),
                "--n-datasets", str(w.datasets), "--workers", "1",
                "--seed", str(self.seed), "--out-dir", str(out)]
        if w.B is not None:
            args += ["--B", str(w.B)]
        if w.truncation_p is not None:
            args += ["--truncation-p", str(w.truncation_p)]
        return args

    def invoke(self, label: str, traced: bool = False) -> Invocation:
        out = self.work / label
        out.mkdir()
        cli = self.cli_args(out)
        if traced:
            argv = [PYTHON, str(HERE / "child.py"), "trace", "--out", str(out / "trace.json"),
                    "--", *cli]
        else:
            argv = [PYTHON, "-m", "stou.cli", *cli]
        child = spawn(argv, out, max(1.0, self.remaining()))
        checked, digests = Checked(), {}
        if child.code != 0:
            checked.problems.append(
                f"exit code {child.code}" + (" after timeout" if child.timed_out else ""))
        elif self.w.command == "ci":
            checked = check_ci(out / "ci.csv")
            digests = {"ci.csv": sha256(out / "ci.csv")}
        else:
            checked = check_coverage(out, self.w.method, self.w.datasets)
            digests = {name: sha256(out / name) for name in ("estimates.csv", "coverage.csv")}
        inv = Invocation(label, child, checked, digests)
        self.invocations.append(inv)
        return inv

    def repeat(self, make) -> None:
        """Call make(k) for k = 0, 1, ... while one more call would end
        nearer to --seconds after the start than stopping now, and never
        start a call that the hard limit would cut."""
        loop_start = time.perf_counter()
        durations = []
        k = 0
        while True:
            call_start = time.perf_counter()
            make(k)
            k += 1
            durations.append(time.perf_counter() - call_start)
            typical = statistics.median(durations)
            elapsed = time.perf_counter() - loop_start
            if elapsed + typical / 2 >= self.seconds or max(durations) > self.remaining():
                return

    def setup_probe(self) -> dict:
        probe = self.work / "setup"
        probe.mkdir(exist_ok=True)
        argv = [PYTHON, str(HERE / "child.py"), "setup", "--nx", str(self.w.nx)]
        if self.field_csv is not None:
            argv += ["--field", str(self.field_csv)]
        child = spawn(argv, probe, max(1.0, self.remaining()))
        lines = (probe / "stdout.txt").read_text().splitlines()
        if child.code != 0 or not lines:
            raise BenchError(f"setup probe failed with code {child.code}")
        return json.loads(lines[-1])

    def counts(self) -> tuple[int, int]:
        """(attempted, failed) datasets over every invocation."""
        attempted = failed = 0
        for inv in self.invocations:
            attempted += self.w.datasets
            failed += self.w.datasets - (inv.checked.ok_datasets if inv.ok else 0)
        return attempted, failed

    def problems(self) -> list[str]:
        out = [f"{inv.label}: {p}" for inv in self.invocations for p in inv.checked.problems]
        digests = {json.dumps(inv.digests, sort_keys=True) for inv in self.invocations if inv.ok}
        if len(digests) > 1:
            out.append("outputs differ between invocations of one seed")
        return out

    def untraced(self) -> tuple[dict, dict]:
        setups = [self.setup_probe() for _ in range(SETUP_REPEATS + 1)][1:]
        self.repeat(lambda k: self.invoke(f"run{k}"))
        children = [inv.child for inv in self.invocations]
        attempted, failed = self.counts()
        metrics = {
            "wall_s": (statistics.median(c.wall_s for c in children), "s"),
            "datasets_per_s": (statistics.median(
                inv.checked.ok_datasets / inv.child.wall_s for inv in self.invocations), "1/s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "cpu_s": (statistics.median(c.cpu_s for c in children), "s"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
        return metrics, {"setup": setups, "env": setups[0]["env"],
                         "stou_file": setups[0]["stou_file"]}

    def traced(self) -> tuple[dict, dict]:
        per_set = []
        traces = []

        def one_set(k: int) -> None:
            plain = self.invoke(f"untraced{k}")
            traced = self.invoke(f"traced{k}", traced=True)
            if traced.child.code == 0:
                trace = json.loads((self.work / f"traced{k}" / "trace.json").read_text())
                traces.append(trace)
                per_set.append(layer_metrics(trace, traced.child.wall_s, plain.child.wall_s,
                                             plain.child.cpu_s))

        self.repeat(one_set)
        if not per_set:
            raise BenchError("no traced invocation succeeded")
        metrics = {name: (statistics.median(m[name][0] for m in per_set), unit)
                   for name, (_, unit) in per_set[0].items()}
        return metrics, {"env": traces[0]["env"], "stou_file": traces[0]["stou_file"],
                         "warnings": [t["warnings"] for t in traces]}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner(workload, seed, seconds)
    runner.prepare()
    metrics, info = runner.traced() if trace else runner.untraced()
    if not Path(info["stou_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported stou from {info['stou_file']}, not from this checkout")
    attempted, failed = runner.counts()
    problems = runner.problems()
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info["env"]["git_commit"] = git_commit()
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "result": result,
        "problems": problems,
        "environment": info.pop("env"),
        "invocations": [{
            "label": inv.label, "code": inv.child.code, "wall_s": inv.child.wall_s,
            "cpu_s": inv.child.cpu_s, "rss_mb": inv.child.rss_mb,
            "ok_datasets": inv.checked.ok_datasets, "digests": inv.digests,
        } for inv in runner.invocations],
        **info,
    }
    (runner.work / "result.json").write_text(json.dumps(detail, indent=1))
    print(f"== {workload.name} seed={seed} trace={int(trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"  problem: {problem}")
    print("  environment: " + json.dumps(detail["environment"], sort_keys=True))
    print("  digests: " + json.dumps(sorted({json.dumps(i["digests"], sort_keys=True)
                                             for i in detail["invocations"]})))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stou coverage-run benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="11x11 sites, B = 20, 10 datasets, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "stou" / "cli.py").is_file():
        print(f"error: no stou package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit, so spawn() kills and reaps its child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            workload = smoke(WORKLOADS[name]) if args.smoke else WORKLOADS[name]
            results[name] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
