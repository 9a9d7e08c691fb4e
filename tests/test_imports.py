"""The library's footprint: its pipeline runs without importing scipy.

The benchmark's set-up time and peak memory grow by tens of megabytes when
``scipy.optimize`` is imported, so only the cosine period fit
(``oscillation_period``) may import it, lazily.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import ddread

cfg = ddread.load_config(sys.argv[1])
curve = ddread.scan_tau(cfg.spins, cfg.field, 12, (230e-9, 270e-9), 2e-9,
                        cfg.propagator_mode, cfg.constants)
ddread.fit_hyperfine([curve], cfg.field, n_grid=4, consts=cfg.constants)
ddread.simulate_trace(cfg.spins[0], cfg.field, cfg.sequence, cfg.readout, 20,
                      cfg.propagator_mode, cfg.constants)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_pipeline_does_not_import_scipy(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT,
         str(ROOT / "demos" / "run_config.yaml")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
