"""Small stou runs against their committed outputs in tests/golden/.

Row keys, hits, errors and coverage.csv must match exactly; numbers to
each case's relative tolerance (1e-5 for cl-sandwich, whose estimates
move by up to about 3e-7 on last-bit changes of the data, 1e-9 for the
rest).  Rewrite the files with `python tests/golden/regenerate.py`,
which reports what moved.
"""

import pytest

from golden.regenerate import CASES, GOLDEN, describe, moves, run_case


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_reproduces_the_golden_outputs(case, tmp_path):
    outputs = run_case(case, tmp_path)
    for name, new in outputs.items():
        old = (GOLDEN / case.name / name).read_text(encoding="utf-8")
        moved = moves(name, old, new)
        assert moved.within(case.rel_tol), f"{case.name}/{name}: {describe(moved)}"
