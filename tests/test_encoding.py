"""Every file the package reads or writes is UTF-8, whatever the locale.

Each command runs in a child interpreter with the C locale, locale coercion
and UTF-8 mode off (so the locale's encoding is ASCII), and with
``EncodingWarning`` raised as an error, so an ``open`` that falls back on
the locale's encoding fails the run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demos" / "run_config.yaml"

SCRIPT = """
import sys

from ddread.cli import main

config, out = sys.argv[1:]
commands = [["scan"], ["map2d"], ["ssr", "--points", "2000"],
            ["analyze", "--trace", out + "/trace.csv"], ["fit", out + "/scan_tau.csv"]]
print([main(["--config", config, "--out", out, *command]) for command in commands])
"""


def _run_in_c_locale(config: Path, out: Path) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "PYTHONUTF8", "PYTHONIOENCODING"))}
    env.update(PYTHONPATH=os.pathsep.join(p for p in path if p),
               LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0")
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", SCRIPT, str(config), str(out)],
        cwd=out.parent, env=env, capture_output=True, text=True,
        encoding="utf-8", timeout=300)


def test_every_command_reads_and_writes_utf8_in_the_c_locale(tmp_path):
    config = tmp_path / "run_config.yaml"
    config.write_text("# τ is the half spacing between the π pulses\n"
                      + DEMO.read_text(encoding="utf-8"), encoding="utf-8")
    proc = _run_in_c_locale(config, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]", proc.stderr
    assert proc.stderr == ""


def test_non_utf8_config_exits_2_in_the_c_locale(tmp_path):
    config = tmp_path / "run_config.yaml"
    config.write_bytes(b"# \xcf latin-1, not UTF-8\n" + DEMO.read_bytes())
    proc = _run_in_c_locale(config, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[2, 2, 2, 2, 2]", proc.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 5
    assert all(line.startswith(f"config error: cannot read config file {config}: ")
               for line in lines), proc.stderr
    assert not (tmp_path / "out").exists()
