"""The pytest configuration turns every warning into an error, except one:
a failing property test must be reported as a failure, not stop the run.

When a ``@given`` test fails, hypothesis's pytest plugin imports its patch
writer (``hypothesis.extra._patching``), whose libcst may use
``mypy_extensions.TypedDict``, which emits a DeprecationWarning.  As an
error, that warning is raised inside the plugin's report hook, and pytest
stops with INTERNALERROR before any later test runs."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_lets_the_next_test_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
