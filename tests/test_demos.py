"""Smoke test of the demonstration scripts: each runs end to end in a child
interpreter, and every identity it prints holds."""

import os
import subprocess
import sys

import pytest

import logzeta

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
IDENTITIES = ("series identity:", "series unchanged:", "equals the stratum-sum formula:")


@pytest.mark.parametrize("script", ["cusp_demo.py", "invariance_demo.py"])
def test_demo_identities_hold(script):
    src = os.path.dirname(os.path.dirname(logzeta.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if any(i in line for i in IDENTITIES)]
    assert lines and all(line.rstrip().endswith("True") for line in lines), proc.stdout
