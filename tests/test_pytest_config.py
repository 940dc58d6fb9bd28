"""The suite's own configuration: a failing property must be reported as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers(0, 10))
def test_a_failing_property(n):
    assert n < 0


def test_one_after_it():
    assert True
'''


def test_a_failing_property_is_reported_and_the_tests_after_it_run(tmp_path):
    # with filterwarnings = ["error"] alone, the warning that hypothesis's
    # failure report raises (importing libcst) ended the run in an INTERNALERROR
    (tmp_path / "test_child.py").write_text(CHILD)
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_child.py"]
    child = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = child.stdout + child.stderr
    assert child.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
