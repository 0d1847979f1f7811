"""Checks on the files a `stou coverage` or `stou ci` run writes.

The expected headers and parameter names are written out here rather
than imported from the package, so a change to the program's output
format shows as a failed check.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field

ESTIMATES_HEADER = ["dataset", "seed", "parameter", "true_value", "estimate",
                    "lower", "upper", "hit", "error"]
COVERAGE_HEADER = ["parameter", "coverage", "se", "n"]
CI_HEADER = ["parameter", "point", "lower", "median", "upper"]
# the six parameters every bootstrap output reports, in order
REPORT_PARAMS = ["lambda", "c", "mu_seed", "tau", "mu", "sigma2"]


@dataclass
class Checked:
    """Outcome of checking one run's outputs."""

    ok_datasets: int = 0
    problems: list[str] = field(default_factory=list)


def sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _read(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_coverage(out_dir, method: str, n_datasets: int) -> Checked:
    """Check estimates.csv and coverage.csv of a coverage run."""
    result = Checked()
    problems = result.problems
    estimates = _read(out_dir / "estimates.csv")
    coverage = _read(out_dir / "coverage.csv")
    if not estimates or estimates[0] != ESTIMATES_HEADER:
        problems.append("estimates.csv: wrong header")
        return result
    if not coverage or coverage[0] != COVERAGE_HEADER:
        problems.append("coverage.csv: wrong header")
        return result

    datasets: dict[int, list[list[str]]] = {}
    order = []
    for row in estimates[1:]:
        if len(row) != len(ESTIMATES_HEADER) or not row[0].isdigit():
            problems.append(f"estimates.csv: malformed row {row!r}")
            return result
        index = int(row[0])
        if index not in datasets:
            order.append(index)
        datasets.setdefault(index, []).append(row)
    if order != list(range(n_datasets)):
        problems.append(f"estimates.csv: datasets {order[:5]}... are not 0..{n_datasets - 1} in order")
        return result

    names = None
    hits: dict[str, int] = {}
    for index, rows in datasets.items():
        if len({row[1] for row in rows}) != 1:
            problems.append(f"dataset {index}: seed differs between rows")
        if len(rows) == 1 and rows[0][2] == "" and rows[0][8]:
            continue  # a failed dataset's error row
        params = [row[2] for row in rows]
        expected = REPORT_PARAMS if method.startswith("mc-") else (names or params)
        if params != expected or len(set(params)) != len(params):
            problems.append(f"dataset {index}: parameters {params}, expected {expected}")
            continue
        names = params
        result.ok_datasets += 1
        for row in rows:
            true, est, lower, upper = (_finite(v) for v in row[3:7])
            if None in (true, est, lower, upper) or row[8]:
                problems.append(f"dataset {index} {row[2]}: non-finite value or error {row!r}")
                continue
            # bootstrap percentile bounds need not bracket the point estimate
            centre_ok = lower <= est <= upper if method == "cl-sandwich" else True
            if not (lower <= upper and centre_ok):
                problems.append(f"dataset {index} {row[2]}: bounds out of order {row!r}")
            if row[7] != str(int(lower <= true <= upper)):
                problems.append(f"dataset {index} {row[2]}: hit {row[7]} disagrees with bounds")
            hits[row[2]] = hits.get(row[2], 0) + (row[7] == "1")

    body = coverage[1:]
    if names is None:
        problems.append("no dataset succeeded")
        return result
    if [row[0] for row in body] != names:
        problems.append(f"coverage.csv: parameters {[row[0] for row in body]}, expected {names}")
        return result
    for name, rate, se, n in body:
        rate_v, se_v = _finite(rate), _finite(se)
        if rate_v is None or not 0.0 <= rate_v <= 1.0 or se_v is None or se_v < 0.0:
            problems.append(f"coverage.csv {name}: coverage {rate} or se {se} out of range")
        elif n != str(result.ok_datasets):
            problems.append(f"coverage.csv {name}: n {n}, but {result.ok_datasets} datasets succeeded")
        elif rate_v != hits.get(name, 0) / result.ok_datasets:
            problems.append(f"coverage.csv {name}: coverage {rate} disagrees with estimates.csv")
    return result


def check_ci(path) -> Checked:
    """Check the interval file of a `stou ci` run."""
    result = Checked()
    rows = _read(path)
    if not rows or rows[0] != CI_HEADER:
        result.problems.append("ci output: wrong header")
        return result
    if [row[0] for row in rows[1:]] != REPORT_PARAMS:
        result.problems.append(f"ci output: parameters {[row[0] for row in rows[1:]]}")
        return result
    for row in rows[1:]:
        values = [_finite(v) for v in row[1:]]
        if len(values) != 4 or None in values:
            result.problems.append(f"ci output {row[0]}: non-finite value {row!r}")
        elif not values[1] <= values[2] <= values[3]:
            result.problems.append(f"ci output {row[0]}: lower <= median <= upper fails")
    if not result.problems:
        result.ok_datasets = 1
    return result
