"""Smoke test of the demo scripts, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_design_families", "02_algebraic_checks", "03_full_diversity",
         "04_link_simulation", "05_tradeoff_bounds"]


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ROOT / "demos" / f"{name}.py"
    return subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)


# Demo 02 runs the column classifier through check_condition1 and
# relay_matrix_set; demo 03 scores min_product_distance for n up to 4 and
# nvd_probe on pciod4 with QAM16 in the determinant layer, which scores the
# half of its 5.8M differences before the zero difference (about 2.9M).
@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
