"""One benchmark process: import logzeta, parse the inputs, run ops, report.

Started by ``run.py`` in a fresh interpreter, so the library's caches start
empty.  Reads the workload's inputs as one JSON list on stdin and writes one
JSON object on stdout.  Modes:

* ``setup``: import and parse, then report the monotonic time at which the
  first timed op would start;
* ``run``: also run ops in order, one at a time (a closed loop with one
  client), until ``--seconds`` have passed, at least ``--min-ops`` ops are
  done and the op count is a multiple of ``--period``; or exactly ``--ops``
  ops when that is given.

With ``--trace`` the span wrappers of ``spans.py`` are installed before the
inputs are parsed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from workloads import EXPAND_DEGREE, FAN_M  # noqa: E402


def _import_library():
    sys.path.insert(0, str(SRC))
    import logzeta
    import logzeta.cli

    if Path(logzeta.__file__).resolve().parent != SRC / "logzeta":
        raise SystemExit(f"imported logzeta from {logzeta.__file__}, not from {SRC}")
    return logzeta


# ---------------------------------------------------------------------------
# Ops.  Each returns its outputs; the gate below checks them untimed.


def op_newton_small(lz, item, x):
    z = lz.newton_zeta(x)
    local = lz.newton_zeta_local(x)
    poles = lz.newton_poles(x)
    coeffs = z.expand(EXPAND_DEGREE)
    return {"series": [z, local], "poles": poles, "coeffs": coeffs}


def op_fan_invariance(lz, item, x):
    problems = lz.validate_model(x)
    base = lz.fan_poincare(x, FAN_M)
    star = lz.transport_subdivide(x, lz.cones.star_subdivision(x.complex, tuple(item["ray"])))
    s_star = lz.fan_poincare(star, FAN_M)
    eq_star = lz.equal(s_star, base)
    resolved = lz.transport_subdivide(x, lz.cones.resolve_complex(x.complex))
    s_res = lz.fan_poincare(resolved, FAN_M)
    eq_res = lz.equal(s_res, base)
    poles = lz.fan_poles(x)
    return {
        "series": [base, s_star, s_res],
        "poles": poles,
        "problems": problems,
        "equal": [eq_star, eq_res],
    }


def op_newton_large(lz, item, x):
    if item["kind"] == "newton":
        return {"series": [lz.newton_zeta(x)], "poles": lz.newton_poles(x)}
    return {"series": [lz.fan_poincare(x, FAN_M)], "poles": lz.fan_poles(x)}


OPS = {
    "newton-small": op_newton_small,
    "fan-invariance": op_fan_invariance,
    "newton-large": op_newton_large,
}


def gate(lz, out) -> tuple[str, list[str]]:
    """Digest of the canonical text output, and the identities that fail.

    The identities need no recorded value: every candidate pole of the first
    series is a pole of the pole set, the model validates, and the series is
    unchanged by subdivision and by resolution.
    """
    text = [str(s) for s in out["series"]] + [lz.format_poles(out["poles"])]
    text += [str(c) for c in out.get("coeffs", ())]
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()[:16]
    bad = []
    if not out["series"][0].candidate_poles() <= out["poles"]:
        bad.append("candidate poles not within the pole set")
    if out.get("problems"):
        bad.append("validate_model: " + "; ".join(out["problems"][:2]))
    if not all(out.get("equal", ())):
        bad.append(f"series changed by subdivision/resolution: equal = {out['equal']}")
    return digest, bad


# ---------------------------------------------------------------------------


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(OPS))
    p.add_argument("--mode", required=True, choices=["setup", "run"])
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-ops", type=int, default=0)
    p.add_argument("--period", type=int, default=1)
    p.add_argument("--ops", type=int)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    lz = _import_library()
    faces_cache_info = lz.cones.faces.cache_info  # of the lru_cache, not of a span
    spans = None
    if args.trace:
        from spans import Spans, install

        spans = Spans()
        install(spans)
    from logzeta.cli import parse_fan, parse_newton

    items = json.load(sys.stdin)
    parsed = [parse_newton(it["input"]) if it["kind"] == "newton" else parse_fan(it["input"]) for it in items]
    ready = time.monotonic()
    report: dict = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(report))
        return

    if spans is not None:
        report["parse_self_s"] = spans.self_s["cli.parse"]
        spans.reset()
        faces_before = faces_cache_info()
    op = OPS[args.workload]
    limit = len(items) if args.ops is None else min(args.ops, len(items))
    latencies, digests, failures = [], [], []
    terms_out = 0
    t_start = time.perf_counter()
    for i in range(limit):
        if (
            args.ops is None
            and i >= args.min_ops
            and i % args.period == 0
            and time.perf_counter() - t_start >= args.seconds
        ):
            break
        t0 = time.perf_counter()
        try:
            out = op(lz, items[i], parsed[i])
        except Exception as e:  # a failed op is counted, not fatal
            latencies.append(time.perf_counter() - t0)
            digests.append(None)
            failures.append([i, f"{type(e).__name__}: {e}"])
            continue
        latencies.append(time.perf_counter() - t0)
        digest, bad = gate(lz, out)
        digests.append(digest)
        terms_out += sum(len(s.terms) for s in out["series"])
        if bad:
            failures.append([i, "; ".join(bad)])
    report["wall_s"] = time.perf_counter() - t_start
    report.update(
        latencies=latencies,
        digests=digests,
        failures=failures,
        terms_out=terms_out,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if spans is not None:
        faces_after = faces_cache_info()
        hits = faces_after.hits - faces_before.hits
        misses = faces_after.misses - faces_before.misses
        report["spans"] = {
            "calls": dict(spans.calls),
            "self_s": dict(spans.self_s),
            "sizes": dict(spans.sizes),
            "faces_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
