"""Smoke tests: every shipped example must run to completion.

Each example asserts its own headline claim internally (e.g. "the
cheater was caught"), so a clean exit is a meaningful check, not just
an import test.  The slowest examples are marked so `-m "not slow"`
keeps the inner loop fast.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = ["quickstart.py"]
SLOW_EXAMPLES = [
    "grid_detection.py",
    "mobile_network.py",
    "misbehavior_strategies.py",
]


def _run(name, timeout=300):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{name} failed:\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    return result.stdout


def test_examples_directory_complete():
    shipped = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert shipped == set(FAST_EXAMPLES) | set(SLOW_EXAMPLES)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example(name):
    out = _run(name)
    assert out.strip()


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_EXAMPLES)
def test_slow_example(name):
    out = _run(name)
    assert out.strip()
