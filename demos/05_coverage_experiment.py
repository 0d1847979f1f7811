"""
Replicated coverage experiments
===============================

The experiment driver simulates many datasets from a known truth,
builds an interval on each, and reports per-parameter hit rates.  Runs
are reproducible: dataset i always receives the same child stream of
the master seed, no matter how many workers execute, and every
estimates.csv row records that child's seed so single datasets can be
replayed.
"""

import pathlib
import tempfile

import numpy as np

from stou import Lattice, StouParams, coverage_experiment
from stou.experiment import ExperimentConfig, run

# 1. Library form: a small Monte Carlo coverage experiment with the
#    exact bootstrap.  Nominal level 0.95; a 21x21 patch of a field
#    with correlation length 1 holds so little information that most
#    parameters undercover badly (the proxy column flags this), and it
#    improves with domain size and decay rate.
truth = StouParams.natural(lam=1.0, c=1.0, mu_seed=0.2, tau2=0.01)
lattice = Lattice(n_x=21, n_t=21, dx=0.05, dt=0.05)
report = coverage_experiment(
    truth, lattice, n_datasets=30, B=50, level=0.95,
    simulator="exact", rng=np.random.default_rng(5),
)
print(f"coverage over {report.n_datasets} datasets "
      f"({len(report.failures)} failures), nominal level {report.level}")
print(f"  {'parameter':10s} {'coverage':>8s} {'se':>6s} {'mean proxy':>10s}")
for name, entry in report.entries.items():
    print(f"  {name:10s} {entry.coverage:8.3f} {entry.se:6.3f} {entry.mean_proxy:10.3f}")

# 2. Driver form: `run`, behind the `stou coverage` CLI, puts a validated
#    config, a worker pool and CSV outputs around the engine that
#    coverage_experiment uses.  Seed 5 spawns the same dataset streams as
#    default_rng(5) above, so coverage.csv repeats the coverage column.
with tempfile.TemporaryDirectory() as tmp:
    cfg = ExperimentConfig.from_sources(
        {},
        {
            "nx": 21, "nt": 21, "n_datasets": 30, "B": 50, "seed": 5,
            "window_nx": 7, "window_nt": 7, "step_x": 4, "step_t": 4,
            "workers": 2, "out_dir": tmp,
        },
    )
    paths = run(cfg, "coverage")
    print("\nfiles written by the driver:")
    for key, path in paths.items():
        print(f"  {key:9s} {pathlib.Path(path).name}")
    print("\ncoverage.csv:")
    print(pathlib.Path(paths["coverage"]).read_text().strip())
    first = pathlib.Path(paths["estimates"]).read_text().splitlines()[1]
    print(f"\nfirst estimates.csv row (note the per-dataset seed):\n  {first}")

print("""
equivalent command lines:
  stou coverage --nx 21 --nt 21 --n-datasets 30 --B 50 --seed 5 \\
      --window-nx 7 --window-nt 7 --step-x 4 --step-t 4 --workers 2
  stou coverage --config experiment.cfg          # same keys, file form
  STOU_WORKERS=4 stou coverage --config experiment.cfg
""")
