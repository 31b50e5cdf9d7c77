"""Smoke tests for the runnable examples (deliverable (b)).

Each example is executed as a subprocess at the smallest resolution that
still exercises the full pipeline, and its output is checked for the
quantities it promises to report.  This keeps the examples from rotting as
the library evolves.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"

pytestmark = pytest.mark.slow


def run_example(name: str, *args: str, timeout: float = 300.0) -> str:
    # the child process does not inherit pytest's `pythonpath` ini setting,
    # so export src/ explicitly: the examples must run from a plain checkout
    # (no editable install) exactly like the tier-1 suite does
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_examples_directory_contents(self):
        names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "brain_registration.py",
            "volume_preserving_registration.py",
            "scaling_study.py",
        } <= names

    def test_quickstart(self):
        out = run_example("quickstart.py", "12")
        assert "Convergence history" in out
        assert "Registration summary" in out
        assert "diffeomorphic" in out
        assert "mismatch removed" in out

    def test_volume_preserving_registration(self):
        out = run_example("volume_preserving_registration.py", "12")
        assert "div v = 0" in out
        assert "volume preserving" in out.lower()

    def test_brain_registration(self):
        out = run_example("brain_registration.py", "12")
        assert "Registration summary" in out
        assert "det(grad y1)" in out

    @pytest.mark.parametrize("script", ["quickstart.py"])
    def test_examples_have_module_docstring_and_main(self, script):
        text = (EXAMPLES_DIR / script).read_text()
        assert text.lstrip().startswith(('"""', "#!"))
        assert "def main(" in text
        assert '__name__ == "__main__"' in text
