"""The repo's pytest settings report a failing Hypothesis example as one
failed test; the session goes on to the tests after it."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_TESTS = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers(min_value=0, max_value=9))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_example_fails_one_test(tmp_path):
    (tmp_path / "test_example.py").write_text(_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_example.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
