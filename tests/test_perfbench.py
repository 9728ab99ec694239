"""The benchmark harness's own check, run with the tests: a solver call
shape or a result key that the harness's probe hooks read breaks here,
not in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_benchmark_harness_selfcheck_passes():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
