"""Every demo runs to completion, printing nothing on stderr and exactly its
golden stdout (tests/golden/demos/<demo>.out)."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))
GOLDEN = os.path.join(ROOT, "tests", "golden", "demos")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    with open(os.path.join(GOLDEN, demo[:-len(".py")] + ".out"), encoding="utf-8") as fh:
        assert done.stdout == fh.read()
