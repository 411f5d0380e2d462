"""Smoke tests of the example scripts, each run as a user runs it."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_grid_experiment(tmp_path):
    prefix = tmp_path / "grid"
    proc = run_script(
        "run_grid_experiment.py", "--n-cal", "5000", "--n-test", "5000", "--out-prefix", str(prefix), cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    margins = [float(m) for m in re.findall(r"min margin = (\S+);", proc.stdout)]
    assert len(margins) == 3 and min(margins) >= 0
    # monte_carlo rows against their own finite-test target, in standard errors
    (z,) = re.findall(r"max \|h_hat - target\|/sigma = (\S+)$", proc.stdout, re.M)
    assert float(z) < 6
    for mode in ("fully_exact", "exact_inner", "monte_carlo"):
        lines = Path(f"{prefix}_{mode}.csv").read_text().splitlines()
        assert len(lines) == 199  # header + 99 q values x 2 regimes


def test_run_safety_demo(tmp_path):
    proc = run_script("run_safety_demo.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "interval estimate for unsafe probability" in proc.stdout
    assert "conformal prediction set:" in proc.stdout
