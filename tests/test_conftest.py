"""The suite's own harness: a failing property must not end the session."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

_PROPERTY_THEN_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_that_fails(x):
    assert x < 5


def test_after_it():
    pass
'''


def test_failing_property_reports_and_later_tests_run(tmp_path):
    # a child pytest with this suite's settings (filterwarnings = error) and
    # its conftest loaded as a plugin runs one failing property, then one test
    (tmp_path / "test_property.py").write_text(_PROPERTY_THEN_TEST, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(TESTS), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "conftest", "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
