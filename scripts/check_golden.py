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
import sys
import time

sys.dont_write_bytecode = True  # before the shared loader is imported, so it leaves no bytecode
from benchload import PERFBENCH, load, parse  # noqa: E402


def main(argv: list[str]) -> int:
    lz, run, worker, workloads = load()
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
            try:
                digest, bad = worker.gate(lz, op(lz, item, parse(lz, item)))
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
