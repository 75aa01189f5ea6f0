"""The repository's pytest configuration reports a failing hypothesis test and runs the rest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # On failure the hypothesis plugin imports its patch writer, whose import warns; under
    # filterwarnings = error that warning used to end the run with INTERNALERROR.
    (tmp_path / "test_pair.py").write_text(PAIR)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    run = subprocess.run(
        [*command, "--rootdir", str(tmp_path), "test_pair.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
