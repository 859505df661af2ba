#!/usr/bin/env python3
"""Paired CPU comparison of the working tree's library against a git revision.

    python3 scripts/pair_ab.py --parent REV [--workload W] [--what ops|parse]

The revision's ``src/logzeta`` is taken with ``git archive`` into a
temporary directory and imported beside the working tree's copy under the
package name ``logzeta_parent``, so both run in one process on one host
state.  The pool is the benchmark's, at its default seed.  Each of ``PASSES``
passes clears every ``lru_cache`` of both packages, parses the workload's
pool afresh with each side's own parser, and then times the benchmark's op
(``perfbench/worker.py``), or with ``--what parse`` the parse itself, in
blocks of ``BLOCK`` inputs.  Within a block the two sides alternate input
by input, the side going first swapped at every input, and each side's
share of the block is the sum of its inputs' process CPU times, so that a
host drifting during the block weighs on both sides alike.  Timing each
side's whole block in turn lets that drift read as a difference: so timed,
the same tree against itself read ratios of 0.997-1.032 over five runs on
``fan-invariance``, one of them with p = 0.017.

Reported: the CPU time of each side, the median of the per-block ratios
(working tree over revision, so below 1 is faster), the blocks each side
won, with the two-sided exact sign-test p-value of that split (ties left
out), and whether the gate digests (``perfbench/worker.py``'s ``gate``) of
one untimed op pass agree input by input, with each other and with
``perfbench/golden.json``.  A block count alone can mislead: the parent
against itself on ``newton-large`` has read 25 of 40 blocks won, a p-value
of 0.15.  The benchmark's files are only read; no bytecode is written.
Exits 1 when a side's digests differ from the golden ones.  Run against the
revision the working tree was made from, with nothing changed, it compares
a copy with itself.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

sys.dont_write_bytecode = True  # before the shared loader is imported, so it leaves no bytecode
from benchload import PERFBENCH, ROOT, load, parse  # noqa: E402

PACKAGES = ("logzeta", "logzeta_parent")
PASSES = 5
BLOCK = 50


def _load(rev: str, into: pathlib.Path):
    """The working tree's ``logzeta``, the revision's copy of it as
    ``logzeta_parent``, and the benchmark's ``run``, ``worker`` and
    ``workloads`` modules."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/logzeta"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (into / "src" / "logzeta").rename(into / "logzeta_parent")
    sys.path.insert(0, str(into))
    import logzeta_parent
    import logzeta_parent.cli

    logzeta, run, worker, workloads = load()
    return (logzeta, logzeta_parent), run, worker, workloads


def _clear_caches() -> None:
    """Empty every ``lru_cache`` of both packages."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] in PACKAGES:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def sign_test(won: int, lost: int) -> float:
    """The two-sided exact sign-test p-value of ``won`` against ``lost``:
    twice the binomial(won + lost, 1/2) tail at the smaller count, at most 1."""
    n = won + lost
    tail = sum(math.comb(n, i) for i in range(min(won, lost) + 1))
    return min(1.0, 2 * tail / 2**n)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", default="fan-invariance")
    p.add_argument("--what", choices=["ops", "parse"], default="ops")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sides, run, worker, workloads = _load(args.parent, pathlib.Path(tmp))
        if args.workload not in worker.OPS:
            p.error(f"unknown workload {args.workload!r}; choose from {', '.join(sorted(worker.OPS))}")
        op = worker.OPS[args.workload]
        seed = run.DEFAULT_SEED
        items = workloads.generate(args.workload, seed)
        blocks = [range(i, min(i + BLOCK, len(items))) for i in range(0, len(items), BLOCK)]

        cpu = [0.0, 0.0]  # working tree, revision
        ratios = []
        first = 0  # the side going first at the next input
        for _ in range(PASSES):
            _clear_caches()
            gc.collect()
            parsed = [[], []]
            for block in blocks:
                if args.what == "ops":
                    xs = [[parse(lz, items[i]) for i in block] for lz in sides]
                spent = [0.0, 0.0]
                for k, i in enumerate(block):
                    for s in (first, 1 - first):
                        lz = sides[s]
                        t0 = time.process_time()
                        if args.what == "parse":
                            parsed[s].append(parse(lz, items[i]))
                        else:
                            op(lz, items[i], xs[s][k])
                        spent[s] += time.process_time() - t0
                    first = 1 - first
                cpu[0] += spent[0]
                cpu[1] += spent[1]
                ratios.append(spent[0] / spent[1])

        _clear_caches()
        digests = [[worker.gate(lz, op(lz, it, parse(lz, it)))[0] for it in items] for lz in sides]
        agree = sum(a == b for a, b in zip(*digests))
        golden = json.loads((PERFBENCH / "golden.json").read_text())[args.workload]
        equal = [sum(a == b for a, b in zip(d, golden)) for d in digests]

    won, lost = sum(r < 1 for r in ratios), sum(r > 1 for r in ratios)
    print(f"workload {args.workload}, seed {seed}, {args.what}: {PASSES} passes of {len(blocks)} blocks")
    print(f"cpu_s working tree {cpu[0]:.3f}, {args.parent} {cpu[1]:.3f}, ratio {cpu[0] / cpu[1]:.3f}")
    print(f"median block ratio {statistics.median(ratios):.3f} (working tree / {args.parent})")
    print(f"blocks won: working tree {won}, {args.parent} {lost}, sign test p = {sign_test(won, lost):.3g}")
    print(f"gate digests agree: {agree}/{len(items)}")
    print(f"gate digests equal golden: working tree {equal[0]}/{len(items)}, {args.parent} {equal[1]}/{len(items)}")
    return 0 if equal == [len(items)] * 2 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
