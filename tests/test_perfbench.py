"""Smoke tests of the benchmark harness against the current source tree.

``perfbench/run.py --trace 1`` wraps ddread functions by name; a rename in
``src/`` that the harness's table does not follow shows up here as a failed
run rather than on the next benchmark.  The readout run checks what
``analyze`` reads from the harness's telegraph trace against its ground truth.
"""

import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    """The last-line JSON result and the output of one harness run, which
    must exit 0."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_every_traced_name_resolves():
    """Each function that the harness's ``TRACED`` table names exists in its
    ddread module, so a rename fails here with the missing name.  The table
    is read with ``runpy``, which writes no bytecode cache."""
    traced = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["TRACED"]
    missing = [f"ddread.{layer}.{name}" for layer, names in traced.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"ddread.{layer}"),
                                       name, None))]
    assert not missing


def test_traced_spectroscopy_run_is_correct():
    # the harness writes its span dump under the git-ignored perfbench/out/
    result, stdout = _run("--workload", "spectroscopy", "--seconds", "0.1",
                          "--trace", "1")
    assert result["correct"] is True, stdout


def test_readout_run_is_correct():
    """The readout workload's checks pass: the shape of its ssr traces, and
    the fidelity and dwell time that ``analyze`` reports on the ssr trace and
    on the 300,000-point telegraph trace against their ground truth.  The run
    is traced, so the readout path's traced wrappers run, not only resolve."""
    result, stdout = _run("--workload", "readout", "--seconds", "0.1",
                          "--trace", "1")
    assert result["correct"] is True, stdout
