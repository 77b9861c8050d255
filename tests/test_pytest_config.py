"""The test session's own configuration (pyproject.toml) reports failures."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_after():
    pass
'''


def test_failing_property_reports_its_example(tmp_path):
    # Hypothesis imports libcst to write a failing property's patch; under
    # the session's error::DeprecationWarning, libcst's import warning used
    # to end the session with INTERNALERROR, losing the example and every
    # later test
    (tmp_path / "test_tiny.py").write_text(_FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
