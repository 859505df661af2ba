"""The library and the benchmark's modules, loaded one way for the scripts.

    sys.dont_write_bytecode = True
    from benchload import load, parse

:func:`load` puts this checkout's ``src/`` and ``perfbench/`` first on the
module path and returns ``logzeta``, with ``logzeta.cli`` imported, and the
benchmark's ``run``, ``worker`` and ``workloads`` modules.  :func:`parse`
reads a pool item's input with the parser its kind names.  The benchmark's
files are only read.  A script sets ``sys.dont_write_bytecode`` before it
imports this module, so neither this module nor any it loads leaves
bytecode behind.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load():
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


def parse(lz, item: dict):
    """The parsed input of a pool item, by ``lz``'s Newton or fan-model
    parser as ``item["kind"]`` names."""
    return (lz.cli.parse_newton if item["kind"] == "newton" else lz.cli.parse_fan)(item["input"])
