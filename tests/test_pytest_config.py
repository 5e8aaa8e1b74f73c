"""The suite's own pytest configuration reports failures in full."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_falsified(n):
    assert n < 10


def test_other_warning_fails():
    warnings.warn("any other deprecation", DeprecationWarning)
'''


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"]
    proc = subprocess.run(
        command,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example: test_falsified(" in output, output
    # Every other warning still fails the test that raises it.
    assert "FAILED test_probe.py::test_other_warning_fails" in output, output
    assert "2 failed" in output, output
