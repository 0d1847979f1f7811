"""Golden outputs of small stou runs, and how to rewrite them.

    python tests/golden/regenerate.py

reruns every case below, rewrites its files in this directory, and
prints for each file either "byte-identical" or what moved: the worst
relative change per numeric column, the rows whose key columns differ
(for `hit`, its flips), and each coverage move in units of its se.
tests/test_golden.py reruns the same cases and compares them to the
committed files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))  # a checkout, not installed

from stou.cli import main as stou_main  # noqa: E402

# columns compared exactly: row keys, hits and errors; every other column
# of an output is a number, compared to the case's relative tolerance
EXACT_COLUMNS = ("dataset", "seed", "parameter", "hit", "error", "t_index", "x_index")

_LATTICE = ("--nx", "15", "--nt", "15")
_WINDOWS = ("--window-nx", "7", "--window-nt", "7", "--step-x", "4", "--step-t", "4")
_EXPERIMENT = (*_LATTICE, "--n-datasets", "10", "--B", "20", "--seed", "11", "--workers", "1",
               *_WINDOWS)
_GRID_FIELD = ("--field", "{golden}/simulate-grid/field.csv", "--dx", "0.05", "--dt", "0.05")


@dataclass(frozen=True)
class Case:
    """One stou command: its argv with {out} (the output directory) and
    {golden} (this directory) to fill in, the files it writes there, and
    the relative tolerance of their numbers.  A coverage.csv is compared
    exactly whatever the tolerance."""

    name: str
    argv: tuple[str, ...]
    files: tuple[str, ...]
    rel_tol: float


# in run order: ci and fit-cl read the field that simulate-grid writes
CASES = (
    Case("simulate-grid", ("simulate", "--method", "grid", *_LATTICE, "--seed", "3",
                           "--out", "{out}/field.csv"), ("field.csv",), 1e-9),
    Case("simulate-exact", ("simulate", "--method", "exact", *_LATTICE, "--seed", "3",
                            "--out", "{out}/field.csv"), ("field.csv",), 1e-9),
    Case("ci-mc-exact", ("ci", "--method", "mc-exact", *_GRID_FIELD, "--B", "40", "--seed", "9",
                         "--out", "{out}/ci.csv"),
         ("ci.csv",), 1e-9),
    # at 15 x 15 the exact bootstrap draws at most 71 fields per recursion: two here
    Case("ci-mc-exact-b100", ("ci", "--method", "mc-exact", *_GRID_FIELD, "--B", "100",
                              "--seed", "9", "--out", "{out}/ci.csv"),
         ("ci.csv",), 1e-9),
    Case("fit-cl", ("fit-cl", *_GRID_FIELD, "--scenario", "lambda,c_tilde", *_WINDOWS,
                    "--out", "{out}/fit.csv"),
         ("fit.csv",), 1e-5),
    *(Case(f"coverage-{method}", ("coverage", "--method", method, *_EXPERIMENT,
                                  "--out-dir", "{out}"),
           ("estimates.csv", "coverage.csv"), rel_tol)
      for method, rel_tol in (("mc-exact", 1e-9), ("mc-grid", 1e-9), ("cl-sandwich", 1e-5))),
    Case("proxy-mc-grid", ("proxy", "--method", "mc-grid", *_EXPERIMENT, "--out-dir", "{out}"),
         ("estimates.csv", "coverage.csv"), 1e-9),
)


def run_case(case: Case, out_dir: Path) -> dict[str, str]:
    """The case's files, by name, as written by its command into out_dir."""
    argv = [arg.format(out=out_dir, golden=GOLDEN) for arg in case.argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = stou_main(argv)
    if code != 0:
        raise RuntimeError(f"{case.name}: stou {' '.join(argv)} failed")
    return {name: (out_dir / name).read_text(encoding="utf-8") for name in case.files}


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def _relative_change(old: str, new: str) -> float:
    if old == new:
        return 0.0
    if not (old and new):  # a number against an error row's empty cell
        return math.inf
    old_value, new_value = float(old), float(new)
    return abs(new_value - old_value) / abs(old_value) if old_value else math.inf


@dataclass(frozen=True)
class Moves:
    """What moved between two texts of one output file.  shape_changed:
    the headers or row counts differ, and nothing else is compared."""

    shape_changed: bool
    exact_rows: dict[str, int]  # exact column -> rows that differ
    worst_rel: dict[str, float]  # numeric column -> worst relative change
    coverage_se: dict[str, float]  # parameter -> coverage move / old se

    def within(self, rel_tol: float) -> bool:
        return (not self.shape_changed and not any(self.exact_rows.values())
                and all(change <= rel_tol for change in self.worst_rel.values()))


def moves(name: str, old: str, new: str) -> Moves:
    (old_header, old_rows), (new_header, new_rows) = _table(old), _table(new)
    if old_header != new_header or len(old_rows) != len(new_rows):
        return Moves(True, {}, {}, {})
    exact_rows, worst_rel, coverage_se = {}, {}, {}
    for k, column in enumerate(old_header):
        pairs = [(a[k], b[k]) for a, b in zip(old_rows, new_rows)]
        if column in EXACT_COLUMNS or name == "coverage.csv":
            exact_rows[column] = sum(a != b for a, b in pairs)
        else:
            worst_rel[column] = max((_relative_change(a, b) for a, b in pairs), default=0.0)
    if name == "coverage.csv" and "coverage" in old_header:  # a proxy run's has none
        coverage, se = old_header.index("coverage"), old_header.index("se")
        for a, b in zip(old_rows, new_rows):
            if a[coverage] != b[coverage]:
                move = float(b[coverage]) - float(a[coverage])
                coverage_se[a[0]] = move / float(a[se]) if float(a[se]) else math.copysign(
                    math.inf, move)
    return Moves(False, exact_rows, worst_rel, coverage_se)


def describe(moved: Moves) -> str:
    if moved.shape_changed:
        return "header or row count changed"
    parts = [f"{column}: {count} {'flips' if column == 'hit' else 'rows differ'}"
             for column, count in moved.exact_rows.items() if count]
    parts += [f"{column}: worst relative change {change:.3g}"
              for column, change in moved.worst_rel.items()]
    parts += [f"{parameter} coverage {move:+.3g} se"
              for parameter, move in moved.coverage_se.items()]
    return "; ".join(parts)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out_dir = Path(tmp) / case.name
            out_dir.mkdir()
            for name, new in run_case(case, out_dir).items():
                path = GOLDEN / case.name / name
                old = path.read_text(encoding="utf-8") if path.exists() else None
                if old == new:
                    report = "byte-identical"
                elif old is None:
                    report = "new"
                else:
                    report = describe(moves(name, old, new))
                path.parent.mkdir(exist_ok=True)
                path.write_text(new, encoding="utf-8")
                print(f"{case.name}/{name}: {report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
