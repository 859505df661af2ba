"""Canonical output stays byte-identical: the first ``TRACE_OPS`` inputs of
each benchmark workload run in this process, through the benchmark's own ops
and gate, and each output digest must equal the one recorded in
``perfbench/golden.json``, which this test only reads.  The library names
the benchmark's tracer wraps must also stay where it looks them up."""

import importlib
import json
import pathlib
import sys

import pytest

import logzeta
from logzeta.cli import parse_fan, parse_newton

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``run``, ``worker`` and ``workloads`` modules, imported
    without leaving bytecode or a path entry behind."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        import run
        import spans
        import worker
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return run, worker, workloads, spans


@pytest.mark.parametrize("workload", ["newton-small", "fan-invariance", "newton-large"])
def test_first_benchmark_outputs_match_golden_digests(bench, workload):
    run, worker, workloads, _ = bench
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]
    count = workloads.TRACE_OPS[workload]
    items = workloads.generate(workload, run.DEFAULT_SEED)[:count]
    op = worker.OPS[workload]
    changed, failed = [], []
    for i, item in enumerate(items):
        parse = parse_newton if item["kind"] == "newton" else parse_fan
        digest, bad = worker.gate(logzeta, op(logzeta, item, parse(item["input"])))
        if digest != golden[i]:
            changed.append(i)
        if bad:
            failed.append((i, bad))
    assert (changed, failed) == ([], [])


def test_traced_names_resolve(bench):
    # spans.install looks each target up as a module attribute, or as
    # cls.__dict__[name] on its own class; a rename would break only a
    # traced benchmark run
    groups = bench[3].GROUPS
    missing = []
    for targets in groups.values():
        for target in targets:
            module = importlib.import_module(f"logzeta.{target[0]}")
            if len(target) == 2:
                found = callable(getattr(module, target[1], None))
            else:
                cls = getattr(module, target[1], None)
                found = isinstance(cls, type) and target[2] in cls.__dict__
            if not found:
                missing.append(".".join(target))
    assert missing == []
