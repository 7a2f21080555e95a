"""Smoke test: the demos below run to completion as scripts.

03 and 04 are the slowest, about 9 and 6 s on two cores.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script",
    [
        "01_scalar_decay.py",
        "03_queue_transient.py",
        "04_absorbing_wavepacket.py",
        "07_monte_carlo_sampling.py",
        "08_vanishing_residual.py",
    ],
)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
