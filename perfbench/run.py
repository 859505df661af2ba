"""Benchmark entry point for logzeta: one workload, one seed, one run.

    python3 perfbench/run.py --workload newton-small --seed 0 --seconds 50 --trace 0

Generates the workload's inputs from the seed (``workloads.py``), then runs
them through the public library API in fresh interpreters (``worker.py``):

* ``--trace 0`` runs a closed loop with one client in ``ROUNDS`` workers
  that take the same ops, together about ``--seconds`` long (and at least
  ``MIN_OPS`` ops each), and reports the end-to-end metrics of
  ``BENCHMARK.json``;
* ``--trace 1`` runs the first ``TRACE_OPS`` inputs twice, untraced and then
  with span wrappers (``spans.py``), and reports the per-layer metrics,
  the work counts and the tracing overhead.

Every op's output passes a correctness gate; for the default seed its
canonical text must also match the digests in ``golden.json``.  A human
summary goes to stdout, a results file with the machine description to
``perfbench/results/``, and the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import GENERATORS, PERIOD, TRACE_OPS, generate  # noqa: E402

DEFAULT_SEED = 0
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
ROUNDS = 3  # end-to-end latencies are per-op medians over this many workers
SETUP_REPEATS = 5  # setup_s is the median over this many fresh workers
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def spawn(workload: str, payload: bytes, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one worker to completion; returns its report and its spawn time."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--workload", workload, *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    try:
        out, err = proc.communicate(payload, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(extra)} ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited {proc.returncode}: {err.decode()[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1]), spawned


def failed_ops(workload: str, seed: int, report: dict) -> dict[int, str]:
    """Failing op index -> reason: gate failures, plus golden mismatches."""
    bad = {i: why for i, why in report["failures"]}
    if seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[workload]
        for i, digest in enumerate(report["digests"]):
            if digest is not None and digest != golden[i]:
                bad.setdefault(i, f"output differs from the recorded digest ({digest} != {golden[i]})")
    return bad


def end_to_end(workload: str, seed: int, seconds: int, payload: bytes, deadline: float) -> tuple[dict, dict]:
    """ROUNDS fresh workers run the same ops; each op's latency is its median
    over the rounds, which drops a round that hit a burst of contention from
    other tenants of the machine.  The first round runs for its share of
    ``seconds`` and fixes the number of ops for the others."""
    first, spawned = spawn(
        workload, payload, deadline, "--mode", "run",
        "--seconds", str(seconds / ROUNDS), "--min-ops", str(MIN_OPS), "--period", str(PERIOD[workload]),
    )
    rounds, setups = [first], [first["ready"] - spawned]
    ops = len(first["latencies"])
    for _ in range(ROUNDS - 1):
        report, spawned = spawn(workload, payload, deadline, "--mode", "run", "--ops", str(ops))
        rounds.append(report)
        setups.append(report["ready"] - spawned)
    for _ in range(SETUP_REPEATS - ROUNDS):
        report, spawned = spawn(workload, payload, deadline, "--mode", "setup")
        setups.append(report["ready"] - spawned)

    lat_ms = [statistics.median(r["latencies"][i] for r in rounds) * 1e3 for i in range(ops)]
    bad = {}
    for r, report in enumerate(rounds):
        for i, why in failed_ops(workload, seed, report).items():
            bad[(r, i)] = why
        for i, digest in enumerate(report["digests"]):
            if digest != first["digests"][i]:
                bad.setdefault((r, i), "output differs between rounds")
    metrics = {
        "ops_per_s": ops / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    detail = {
        "attempted": ops * ROUNDS,
        "failed": len(bad),
        "error_rate": len(bad) / (ops * ROUNDS),
        "failures": [[f"round {r} op {i}", why] for (r, i), why in sorted(bad.items())[:10]],
        "round_walls_s": [r["wall_s"] for r in rounds],
        "round_latencies_s": [r["latencies"] for r in rounds],
        "latency_samples": ops,
        "setup_samples_s": setups,
        "terms_out": first["terms_out"],
    }
    return metrics, detail


def per_layer(workload: str, seed: int, payload: bytes, deadline: float) -> tuple[dict, dict]:
    n = str(TRACE_OPS[workload])
    plain, _ = spawn(workload, payload, deadline, "--mode", "run", "--ops", n)
    traced, _ = spawn(workload, payload, deadline, "--mode", "run", "--ops", n, "--trace")
    sp = traced["spans"]
    calls, self_s, sizes = sp["calls"], sp["self_s"], sp["sizes"]
    ops = len(traced["latencies"])

    def c(group: str) -> int:
        return calls.get(group, 0)

    def s(*groups: str) -> float:
        return sum(self_s.get(g, 0.0) for g in groups)

    points = sizes.get("cones.box.points", 0)
    metrics = {"trace.overhead": traced["wall_s"] / plain["wall_s"], "cli.parse.self_s": traced["parse_self_s"]}
    for group in ("intlin.snf", "intlin.solve", "cones.dd", "cones.complex_validate", "cones.faces",
                  "cones.triangulate", "series.add", "series.cone_series", "series.equal",
                  "zeta.validate_model", "zeta.fan_poincare", "newton.polyhedron"):
        metrics[f"{group}.calls"] = c(group)
        metrics[f"{group}.self_s"] = s(group)
    metrics.update({
        "cones.faces.hit_ratio": sp["faces_hit_ratio"],
        "cones.triangulate.pieces": sizes.get("cones.triangulate.pieces", 0),
        "cones.box.points": points,
        "cones.box.self_s": s("cones.box"),
        "cones.box.us_per_point": s("cones.box") / points * 1e6 if points else 0.0,
        "cones.refine.self_s": s("cones.refine"),
        "monoids.self_s": s("monoids"),
        "mring.coeff_make.calls": c("mring.coeff_make"),
        "mring.self_s": s("mring.coeff_make", "mring.other"),
        "series.expand.self_s": s("series.expand"),
        "series.terms_out": traced["terms_out"],
        "zeta.transport.self_s": s("zeta.transport"),
        "newton.polyhedron.calls_per_op": c("newton.polyhedron") / ops,
        "newton.zeta.self_s": s("newton.zeta"),
    })
    bad = failed_ops(workload, seed, plain)
    bad.update(failed_ops(workload, seed, traced))
    for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])):
        if a != b:
            bad.setdefault(i, "tracing changed the output")
    work = {k: metrics[k] for k in ("cones.box.points", "cones.dd.calls", "newton.polyhedron.calls", "series.terms_out")}
    detail = {
        "attempted": ops,
        "failed": len(bad),
        "error_rate": len(bad) / ops,
        "failures": [[f"op {i}", why] for i, why in sorted(bad.items())[:10]],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "work_counts": work,
    }
    return metrics, detail


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit(),
    }


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "logzeta" / "__init__.py").is_file():
        print(f"error: no logzeta sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    payload = json.dumps(generate(args.workload, args.seed)).encode()
    try:
        if args.trace:
            metrics, detail = per_layer(args.workload, args.seed, payload, deadline)
        else:
            metrics, detail = end_to_end(args.workload, args.seed, args.seconds, payload, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }

    kind = "traced, fixed ops" if args.trace else f"closed loop, one client, {args.seconds} s"
    print(f"{args.workload} seed {args.seed} ({kind}): {detail['attempted']} ops, {detail['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':34s} {detail['error_rate']:14.6g} ratio")
    if not args.trace:
        print(f"  (latency percentiles over {detail['latency_samples']} ops, each the median of {ROUNDS} rounds; "
              f"setup_s is the median of {SETUP_REPEATS} fresh workers)")
    for where, why in detail["failures"]:
        print(f"  FAILED {where}: {why}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "result": result, "detail": detail}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
