#!/usr/bin/env python3
"""List the library's functions and methods that no pipeline runs.

    python3 scripts/reach.py

One process traces every call with ``sys.setprofile`` while it runs:

* the CLI (``logzeta.cli.main``) on every file in ``scripts/data``, with
  every verb of ``logzeta.cli.VERBS``, as text and as ``--json``
  (``expand`` at ``--degree 3``, ``subdivide`` at the sum of the first
  cell's rays, ``probe-nondegenerate`` at ``--prime 3``), its output
  discarded;
* the benchmark's own op and gate (``perfbench/worker.py``) on the first
  ``TRACE_OPS`` default-seed inputs of each workload pool, parse included.

It then prints, as ``file:line name``, each module-level function and each
method of a module-level class in ``src/logzeta`` whose code never ran, and
a count.  The benchmark's files are only read; no bytecode is written.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import pathlib
import sys

sys.dont_write_bytecode = True  # before the shared loader is imported, so it leaves no bytecode
from benchload import ROOT, load, parse  # noqa: E402

SRC = ROOT / "src" / "logzeta"
DATA = ROOT / "scripts" / "data"


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> name for each module-level function and each
    method of a module-level class; the first line is that of the first
    decorator, as in the code object."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            funcs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
            for name, f in funcs:
                first = min([f.lineno] + [d.lineno for d in f.decorator_list])
                found[(str(path), first)] = name
    return found


def cli_runs(lz) -> None:
    """Every verb on every data file, as text and as JSON."""
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        rays = doc["cells"][0]["rays"] if "cells" in doc else [[1, 1]]
        ray = ",".join(str(sum(c)) for c in zip(*rays))
        extra = {"expand": ["--degree", "3"], "subdivide": ["--ray", ray], "probe-nondegenerate": ["--prime", "3"]}
        for verb in lz.cli.VERBS:
            for fmt in ([], ["--json"]):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    lz.cli.main([verb, str(path), *extra.get(verb, []), *fmt])


def pool_runs(lz, run, worker, workloads) -> None:
    """The first ``TRACE_OPS`` inputs of each pool through op and gate."""
    for workload, count in workloads.TRACE_OPS.items():
        op = worker.OPS[workload]
        for item in workloads.generate(workload, run.DEFAULT_SEED)[:count]:
            worker.gate(lz, op(lz, item, parse(lz, item)))


def main() -> int:
    lz, run, worker, workloads = load()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            ran.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        cli_runs(lz)
        pool_runs(lz, run, worker, workloads)
    finally:
        sys.setprofile(None)
    defined = definitions()
    unreached = sorted((key, name) for key, name in defined.items() if key not in ran)
    for (file, line), name in unreached:
        print(f"{pathlib.Path(file).name}:{line} {name}")
    print(f"{len(unreached)} of {len(defined)} functions and methods unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
