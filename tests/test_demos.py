"""Smoke tests of the scripts: each demonstration runs end to end in a child
interpreter, and every identity it prints holds; the code-line count runs
and its total is the sum of its rows."""

import importlib.util
import os
import pathlib
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


def test_code_lines_rows_add_up():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "code_lines.py")], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    *rows, (label, total) = [line.split() for line in proc.stdout.splitlines()]
    assert label == "total" and int(total) == sum(int(count) for _, count in rows)
    assert [name for name, _ in rows] == sorted(p.name for p in pathlib.Path(logzeta.__file__).parent.glob("*.py"))


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    spec = importlib.util.spec_from_file_location("code_lines", os.path.join(SCRIPTS, "code_lines.py"))
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    text = '''"""Module
docstring."""

# a comment
def f(x):
    """One line."""
    return (x +  # a trailing comment
            1)


class C:
    """Two
    lines."""

    y = "not a docstring"
'''
    assert code_lines.code_lines(text) == 5  # def, return over two lines, class, y
