"""What each demo prints, against its committed copy in tests/golden/demos/.

Every demo seeds its own generators, so its stdout is the same on every
run.  Rewrite the copies with

    for demo in demos/*.py; do
        PYTHONPATH=src python "$demo" > "tests/golden/demos/$(basename "$demo" .py).txt"
    done
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_prints_its_golden_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                         check=True)
    golden = ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt"
    assert out.stdout == golden.read_text(encoding="utf-8")
