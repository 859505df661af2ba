"""Canonical output stays byte-identical: the first ``TRACE_OPS`` inputs of
each benchmark workload run in this process, through the benchmark's own ops
and gate, and each output digest must equal the one recorded in
``perfbench/golden.json``, which this test only reads."""

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
        import worker
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return run, worker, workloads


@pytest.mark.parametrize("workload", ["newton-small", "fan-invariance", "newton-large"])
def test_first_benchmark_outputs_match_golden_digests(bench, workload):
    run, worker, workloads = bench
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
