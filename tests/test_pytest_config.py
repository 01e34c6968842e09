"""The suite's pytest settings report a failing property test as a failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # warnings are errors, and hypothesis's failure report imports modules
    # that warn on import; an unfiltered warning there is an INTERNALERROR
    # that ends the run before the next test
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(deadline=None, max_examples=20, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 0


        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
