"""The pytest settings of this suite, checked on a throwaway test file."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    assert True
'''


def test_failing_property_is_reported(tmp_path):
    # under filterwarnings = "error", a failing property must end as a failure with its
    # falsifying example, not abort the run before the next test
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "1 failed, 1 passed" in output
