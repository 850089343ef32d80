"""The repository's pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(i):
    assert i < 0
'''


def test_failing_property_test_reports_its_example(tmp_path):
    # Warnings are errors; a deprecation warning raised inside hypothesis's
    # report hook used to end the run in INTERNALERROR (exit 3) and lose
    # the falsifying example.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
