"""Smoke test of the benchmark harness against the current source tree.

``perfbench/run.py --trace 1`` wraps ddread functions by name; a rename in
``src/`` that the harness's table does not follow shows up here as a failed
run rather than on the next benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_spectroscopy_run_is_correct():
    # the harness writes its span dump under the git-ignored perfbench/out/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectroscopy",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
