#!/usr/bin/env python3
"""Count the work of the benchmark's ops as Python function calls.

    python3 scripts/work_count.py [workload ...]

For each workload (all of them by default) one pass over its full
default-seed pool runs the benchmark's own op (``perfbench/worker.py``) on
each input under ``cProfile``, in a fresh interpreter with
``PYTHONHASHSEED=0`` so that no cache is warm and the count repeats; the
inputs are parsed outside the profile.  The printed figure is the sum of
``callcount`` over ``Profile.getstats()``.  ``pstats``' ``total_calls`` is
not used: it keys functions by file, line and name, and the methods that
``dataclasses`` generates all read ``<string>:2``, so colliding entries
overwrite each other in an order that varies from run to run.

Beside it, a second pass in another fresh interpreter, with no profile,
parses each input and runs the op with ``cones._dd`` wrapped by a
counter, as ``tests/genutil.py``'s ``count_dd_runs`` wraps it, and prints
the double-description (DD) runs of parse and ops together.  The
benchmark's files are only read; no bytecode is written.  Each child runs
this script as ``work_count.py --one WORKLOAD`` or ``--dd WORKLOAD``,
which prints the bare count.
"""

from __future__ import annotations

import cProfile
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # before the shared loader is imported, so it leaves no bytecode
from benchload import load, parse  # noqa: E402


def _passes(loaded: tuple, workload: str):
    """``logzeta``, ``workload``'s op, and its parsed inputs one at a time,
    each with its pool item, from the modules :func:`benchload.load` returned."""
    lz, run, worker, workloads = loaded
    op = worker.OPS[workload]
    for item in workloads.generate(workload, run.DEFAULT_SEED):
        yield lz, op, item, parse(lz, item)


def count(workload: str) -> int:
    """The call count of one pass of ``workload``'s op over its pool."""
    profile = cProfile.Profile()
    for lz, op, item, x in _passes(load(), workload):
        profile.enable()
        op(lz, item, x)
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def dd_runs(workload: str) -> int:
    """The DD runs of one pass of ``workload``'s parse and op over its pool."""
    loaded = load()
    cones = loaded[0].cones
    runs = 0
    real = cones._dd

    def counting(n, ineqs):
        nonlocal runs
        runs += 1
        return real(n, ineqs)

    cones._dd = counting
    for lz, op, item, x in _passes(loaded, workload):
        op(lz, item, x)
    return runs


def _child(mode: str, workload: str, env: dict) -> int:
    """The bare count a fresh interpreter prints for ``mode``; exits the
    script with a message when the child fails."""
    proc = subprocess.run([sys.executable, "-B", __file__, mode, workload], env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"{workload}: failed\n{proc.stderr}", file=sys.stderr)
        sys.exit(1)
    return int(proc.stdout)


def main(argv: list[str]) -> int:
    child = {"--one": count, "--dd": dd_runs}.get(argv[0]) if argv else None
    if child:
        print(child(argv[1]))
        return 0
    workloads = load()[3]
    names = argv or sorted(workloads.POOL)
    unknown = [w for w in names if w not in workloads.POOL]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    for workload in names:
        calls, runs = _child("--one", workload, env), _child("--dd", workload, env)
        print(f"{workload}: {calls:,} calls, {runs:,} DD runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
