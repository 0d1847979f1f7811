"""Subprocess entry points of the benchmark; each runs in a fresh interpreter.

    child.py setup --nx N [--field PATH]
        Time `import stou.cli` plus the fixed work before the first
        dataset: building and factoring the truth covariance of an N x N
        coverage run, or reading the field file of a `stou ci` run.
        Prints one JSON object with the timings and the environment.

    child.py trace --out PATH -- <stou CLI arguments>
        Run the CLI in this process with tracing wrappers on every layer
        module and all warnings recorded, then write the spans, warning
        counts and timings to PATH as JSON.  Exits with the CLI's code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import warnings


def environment() -> dict:
    """What the timings and output bytes depend on besides the code."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 has no dict form
        blas = None
    return {
        "thread_env": {name: os.environ.get(name) for name in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas,
    }


def setup(args) -> int:
    start = time.perf_counter()
    import stou.cli  # noqa: F401  (the import a user of the CLI pays)

    imported = time.perf_counter()
    if args.field is not None:
        from stou.experiment import read_field

        read_field(args.field, 0.05, 0.05)
    else:
        from stou.cholesky import build_covariance, cholesky_factor
        from stou.experiment import ExperimentConfig

        config = ExperimentConfig(nx=args.nx, nt=args.nx)
        cholesky_factor(build_covariance(config.truth(), config.lattice()))
    done = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "setup_s": done - start,
        "stou_file": stou.cli.__file__,
        "env": environment(),
    }))
    return 0


def trace(args) -> int:
    start = time.perf_counter()
    import stou.cli

    imported = time.perf_counter()
    from tracing import WARNING_CATEGORIES, Tracer, patched

    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with patched(tracer), tracer.span("cli.main"):
            code = stou.cli.main(args.cli)
    counts = {name: 0 for name in WARNING_CATEGORIES}
    for warning in caught:
        name = warning.category.__name__
        counts[name] = counts.get(name, 0) + 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({
            "import_s": imported - start,
            "warnings": counts,
            "spans": tracer.spans,
            "stou_file": stou.cli.__file__,
            "env": environment(),
        }, handle)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--field", default=None)
    p.set_defaults(func=setup)
    p = sub.add_parser("trace")
    p.add_argument("--out", required=True)
    p.add_argument("cli", nargs=argparse.REMAINDER)
    p.set_defaults(func=trace)
    args = parser.parse_args()
    if getattr(args, "cli", None) and args.cli[0] == "--":
        args.cli = args.cli[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
