"""Record the output digests of every default-seed input into ``golden.json``.

    python3 perfbench/record_golden.py

Run it once on the commit whose output is the reference.  The canonical
text output of the library is meant to stay byte-identical, so a later
commit re-records only when an output change is intended and reviewed.
"""

from __future__ import annotations

import json
import sys
import time

from run import DEFAULT_SEED, HERE, spawn
from workloads import GENERATORS, POOL, generate


def main() -> int:
    golden = {}
    for workload in sorted(GENERATORS):
        payload = json.dumps(generate(workload, DEFAULT_SEED)).encode()
        deadline = time.monotonic() + 3600
        report, _ = spawn(workload, payload, deadline, "--mode", "run", "--ops", str(POOL[workload]))
        if report["failures"]:
            print(f"{workload}: failing ops {report['failures'][:5]}", file=sys.stderr)
            return 1
        golden[workload] = report["digests"]
        print(f"{workload}: {len(report['digests'])} digests in {report['wall_s']:.1f} s")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
