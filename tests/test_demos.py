"""Smoke test of the demo scripts, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_demo_03_full_diversity():
    # min_product_distance for n up to 4, and nvd_probe on pciod4 with
    # QAM16: 5.8M differences, each a 4x4 determinant
    proc = run_demo("03_full_diversity.py")
    assert proc.returncode == 0, proc.stderr
