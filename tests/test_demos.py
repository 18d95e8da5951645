"""Smoke test of every demo: each runs to exit 0. README's library quick
start runs too, so the API it documents cannot drift."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", [
    "01_grids_and_containers", "02_spectra_and_bands", "03_failure_regimes",
    "04_stability_report", "05_noise_harness", "06_memorization_and_extremes",
    "07_cli_pipeline",
])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # it prints the detected blow-up day and the label's window
    day, lo, hi = map(float, re.fullmatch(r"(\S+) \((\S+), (\S+)\)\n", proc.stdout).groups())
    assert lo <= day <= hi
