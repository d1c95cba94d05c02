"""Each script in demos/ runs to the end, with exit 0 and nothing on stderr,
so a change to the names a demo imports cannot break it unnoticed."""

import os
import pathlib
import subprocess
import sys

import pytest

import pbl

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    src = os.path.dirname(os.path.dirname(pbl.__file__))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
