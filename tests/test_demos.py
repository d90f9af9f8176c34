"""Each demo script runs to completion as a user would start it, with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
