"""Engine witnesses print the same under every ``PYTHONHASHSEED``.

A witness's correct nodes are a frozenset, whose iteration order
depends on string hashing; the specs and the constructed behaviors put
them in the graph's node order instead.  Each command runs in fresh
interpreters under two hash seeds and must print byte-identical output.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _refute(problem: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "refute", problem, "--verbose"],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.parametrize("problem", ["byzantine", "weak", "eps-delta"])
def test_refute_output_is_independent_of_hash_seed(problem):
    first = _refute(problem, "1")
    assert "VIOLATED" in first
    assert _refute(problem, "2") == first
