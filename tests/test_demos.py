"""Every demo runs to completion as a standalone script."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parisi_zero

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# the oracle demo runs the variational search at length; criterion 7 of
# the acceptance suite checks the same agreement
SLOW = {"oracle_crosscheck.py"}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")
                                        if p.name not in SLOW))
def test_demo_exits_cleanly(name):
    src = os.path.dirname(os.path.dirname(parisi_zero.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
