#!/usr/bin/env python3
"""Check that the library's canonical output is unchanged on the full
default-seed pools of every benchmark workload.

    python3 scripts/check_golden.py [workload ...]

Each input runs in this process through the benchmark's own op and gate
(``perfbench/worker.py``), and its output digest is compared with the one
recorded in ``perfbench/golden.json``, which this script only reads; no
bytecode is written.  Exits 1 when any digest differs or any op fails or
fails its gate, 0 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

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


def main(argv: list[str]) -> int:
    lz, run, worker, workloads = _load()
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    names = argv or sorted(workloads.POOL)
    unknown = [w for w in names if w not in workloads.POOL]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    ok = True
    for workload in names:
        items = workloads.generate(workload, run.DEFAULT_SEED)
        op = worker.OPS[workload]
        changed, failed, equal = [], [], 0
        t0 = time.perf_counter()
        for i, item in enumerate(items):
            parse = lz.cli.parse_newton if item["kind"] == "newton" else lz.cli.parse_fan
            try:
                digest, bad = worker.gate(lz, op(lz, item, parse(item["input"])))
            except Exception as e:  # a failing op is reported, not fatal
                failed.append((i, f"{type(e).__name__}: {e}"))
                continue
            if i >= len(golden[workload]) or digest != golden[workload][i]:
                changed.append(i)
            else:
                equal += 1
            if bad:
                failed.append((i, "; ".join(bad)))
        wall = time.perf_counter() - t0
        print(f"{workload}: {equal}/{len(items)} digests equal golden in {wall:.1f} s")
        if changed:
            print(f"  changed digests at {changed[:10]}", file=sys.stderr)
        if failed:
            print(f"  failing ops {failed[:5]}", file=sys.stderr)
        ok = ok and not changed and not failed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
