"""Smoke test: every demo runs to completion as a script.

03 and 04 are the slowest, about 9 and 6 s on two cores; the others take
about 2 s each on one thread.
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
        "02_heat_equation.py",
        "03_queue_transient.py",
        "04_absorbing_wavepacket.py",
        "05_open_system_decay.py",
        "06_damped_hamiltonian.py",
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
