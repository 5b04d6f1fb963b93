"""The benchmark runs end to end with its tracer on.

The tracer wraps internal names of the package (the table operators'
transition methods, ``engine.draw_path``, the endpoints' methods), so a
refactor that renames one breaks ``bench/run.py --trace 1``; this test makes
that a test failure rather than a broken benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["haar_sandwich", "fourier_wide", "mixed_zoo"])
def test_bench_traced_smoke(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True, out.stderr[-2000:]
    assert result["failed"] == 0, out.stderr[-2000:]
