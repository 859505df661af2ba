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
overwrite each other in an order that varies from run to run.  The
benchmark's files are only read; no bytecode is written.  Each child runs
this script as ``work_count.py --one WORKLOAD``, which prints the bare count.
"""

from __future__ import annotations

import cProfile
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load():
    """``logzeta`` from ``src/`` and the benchmark's ``run``, ``worker`` and
    ``workloads`` modules, imported without leaving bytecode behind."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    import logzeta
    import logzeta.cli
    import run
    import worker
    import workloads

    return logzeta, run, worker, workloads


def count(workload: str) -> int:
    """The call count of one pass of ``workload``'s op over its pool."""
    lz, run, worker, workloads = _load()
    op = worker.OPS[workload]
    profile = cProfile.Profile()
    for item in workloads.generate(workload, run.DEFAULT_SEED):
        parse = lz.cli.parse_newton if item["kind"] == "newton" else lz.cli.parse_fan
        x = parse(item["input"])
        profile.enable()
        op(lz, item, x)
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(count(argv[1]))
        return 0
    workloads = _load()[3]
    names = argv or sorted(workloads.POOL)
    unknown = [w for w in names if w not in workloads.POOL]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    for workload in names:
        proc = subprocess.run(
            [sys.executable, "-B", __file__, "--one", workload], env=env, capture_output=True, text=True
        )
        if proc.returncode:
            print(f"{workload}: failed\n{proc.stderr}", file=sys.stderr)
            return 1
        print(f"{workload}: {int(proc.stdout):,} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
