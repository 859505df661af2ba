"""Seeded input generators for the benchmark workloads.

Pure Python, no ``logzeta`` import: the library only ever sees the JSON
documents produced here, in the same schemas the command line reads.

Op ``i`` of a workload draws its values from its own ``random.Random``
seeded with ``(workload, seed, i)``.  What drives an op's cost is held to a
fixed plan by ``i`` alone, so that every seed runs the same mix and runs of
different seeds stay comparable:

* the shape (rank, number of support points, coordinate range, which half
  of ``newton-large``) cycles with ``i``;
* size parameters with a wide range (exponents, cell index) are stratified:
  ``i`` picks one of ``BUCKETS`` equal sub-ranges and the seed a value in it;
* the geometry of a fan model (its subdivision points and the test ray) comes
  from a stream seeded by ``i`` alone, while the seed draws the marking
  (``e``, ``a``) and the weights, which decide the series and its poles.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

# Number of generated inputs per workload.  A timed run takes them in order
# and stops when its time is up, so the pool is several times what one run
# consumes today; a traced run takes the first ``trace_ops`` of them.
POOL = {"newton-small": 600, "fan-invariance": 400, "newton-large": 400}
TRACE_OPS = {"newton-small": 120, "fan-invariance": 102, "newton-large": 104}
# Length of the cycle of shapes: a run stops only after a whole cycle, so
# every run holds the same mix however many ops it completes.
PERIOD = {"newton-small": 12, "fan-invariance": 6, "newton-large": 8}
EXPAND_DEGREE = 6
FAN_M = 1


BUCKETS = 8


def _rng(seed: int | str, workload: str, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def _stratified(rng: random.Random, lo: int, hi: int, bucket: int) -> int:
    """A value of [lo, hi] from sub-range ``bucket % BUCKETS`` of ``BUCKETS``."""
    b = bucket % BUCKETS
    return rng.randint(lo + (hi - lo) * b // BUCKETS, lo + (hi - lo) * (b + 1) // BUCKETS)


# ---------------------------------------------------------------------------
# Newton supports.


def _support(rng: random.Random, n: int, k: int, top: int) -> list[list[int]]:
    """``k`` points of {0..top}^n, none above another coordinate-wise (a
    dominated point is not a vertex and would make the op cheaper)."""
    if n == 2:  # a staircase: x increasing, y decreasing
        xs = sorted(rng.sample(range(top + 1), k))
        ys = sorted(rng.sample(range(top + 1), k), reverse=True)
        return [[x, y] for x, y in zip(xs, ys)]
    pts: list[tuple[int, ...]] = []
    tries = 0
    while len(pts) < k:
        tries += 1
        if tries > 50 * k:  # the points drawn so far leave no room: start over
            pts, tries = [], 0
        w = tuple(rng.randint(0, top) for _ in range(n))
        if any(w) and not any(all(x >= y for x, y in zip(w, p)) or all(x <= y for x, y in zip(w, p)) for p in pts):
            pts.append(w)
    return [list(w) for w in sorted(pts)]


# (n, points, largest coordinate) for op i % 12.
_SMALL_SHAPES = [
    (2, 5, 8), (3, 4, 4), (2, 7, 8), (3, 3, 4), (4, 2, 2), (3, 3, 3),
    (2, 4, 6), (3, 4, 3), (2, 6, 8), (3, 5, 3), (4, 3, 2), (2, 8, 9),
]


def newton_small(seed: int, count: int) -> list[dict]:
    out, seen = [], set()
    for i in range(count):
        n, k, top = _SMALL_SHAPES[i % len(_SMALL_SHAPES)]
        rng = _rng(seed, "newton-small", i)
        while True:
            support = _support(rng, n, k, top)
            key = (n, tuple(map(tuple, support)))
            if key not in seen:
                break
        seen.add(key)
        out.append({"kind": "newton", "input": {"n": n, "support": support}})
    return out


def _coprime_pair(rng: random.Random, lo: int, hi: int, j: int) -> list[int]:
    a = _stratified(rng, lo, hi, j)
    b = _stratified(rng, lo, hi, 3 * j + 1)
    while gcd(a, b) != 1:
        b += 1
    return [a, b]


def _brieskorn(rng: random.Random, j: int) -> dict:
    """x1^a1 + ... + xn^an; every other one has a point below the simplex,
    which makes the cone at that vertex's normal of index about a1 * a2."""
    if j % 4 == 0:
        n, exps = 3, [_stratified(rng, 6, 12, j // 4 + 3 * m) for m in range(3)]
    elif j % 2:
        n, exps = 2, _coprime_pair(rng, 12, 32, j // 2)
    else:
        n, exps = 2, _coprime_pair(rng, 100, 400, j // 4)
    support = [[e if k == m else 0 for k in range(n)] for m, e in enumerate(exps)]
    while j % 2:
        p = [rng.randint(1, 2) for _ in range(n)]
        if sum(Fraction(x, e) for x, e in zip(p, exps)) < 1:
            support.append(p)
            break
    return {"n": n, "support": support}


def _large_cell(rng: random.Random, j: int) -> dict:
    """One 2-D cell of index N, with rays (1, 0) and (k, N)."""
    index = _stratified(rng, 200, 1500, j)
    k = rng.randint(1, index - 1)
    while gcd(k, index) != 1:
        k += 1
    rays = [[1, 0], [k, index]]
    e = [rng.randint(1, 3), rng.randint(1, 3)]
    a = [rng.randint(-3, 3), rng.randint(-3, 3)]
    return {
        "rank": 2,
        "cells": [
            {"rays": rays, "weight": {"V": "L-1"}},
            {"rays": [rays[0]], "weight": {"A": "1"}},
            {"rays": [rays[1]], "weight": {"B": "1"}},
        ],
        "e": [e],
        "a": [a],
    }


def newton_large(seed: int, count: int) -> list[dict]:
    out = []
    for i in range(count):
        rng = _rng(seed, "newton-large", i)
        if i % 2 == 0:
            out.append({"kind": "newton", "input": _brieskorn(rng, i // 2)})
        else:
            out.append({"kind": "fan", "input": _large_cell(rng, i // 2)})
    return out


# ---------------------------------------------------------------------------
# Fan models on star-subdivided orthants.

Vec = tuple[int, ...]


def _primitive(v: Vec) -> Vec:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _barycentric(rays: tuple[Vec, ...], v: Vec) -> list[Fraction]:
    """Coordinates of ``v`` in the basis ``rays`` (a square, invertible system)."""
    n = len(v)
    rows = [[Fraction(rays[j][i]) for j in range(n)] + [Fraction(v[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _star(cells: set[tuple[Vec, ...]], v: Vec) -> set[tuple[Vec, ...]]:
    """Star subdivision at ``v`` of a complete simplicial fan on the orthant,
    given by its maximal cells."""
    v = _primitive(v)
    out = set()
    for rays in cells:
        lam = _barycentric(rays, v)
        if any(x < 0 for x in lam):
            out.add(rays)
            continue
        for j, x in enumerate(lam):
            if x > 0:
                out.add(tuple(sorted(rays[:j] + (v,) + rays[j + 1 :])))
    return out


def _l1_power(k: int) -> str:
    """(L-1)^k written out in the coefficient syntax."""
    if k == 0:
        return "1"
    terms = []
    for j in range(k, -1, -1):
        c = comb(k, j) * (-1) ** (k - j)
        mono = "" if j == 0 else ("L" if j == 1 else f"L^{j}")
        body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        terms.append(("-" if c < 0 else ("+" if terms else "")) + body)
    return "".join(terms)


def _orthant_model(geo: random.Random, rng: random.Random, rank: int, horizontal: bool, level: int) -> dict:
    """Orthant fan star-subdivided at ``geo``-drawn points, marked from ``rng``.

    ``level`` 0..2 raises the number and size of the subdivision points, and
    with them the number of distinct denominator factors after resolution.
    """
    basis = tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))
    cells = {basis}
    for _ in range(geo.randint(min(level, 1), min(level + 1, 2))):
        v = tuple(geo.randint(0, 2 + level // 2) for _ in range(rank))
        if any(v):
            cells = _star(cells, v)
    if horizontal:
        e = [rng.randint(1, 4) for _ in range(rank - 1)] + [0]
        a = [rng.randint(-3, 3) for _ in range(rank - 1)] + [1]
    else:
        e = [rng.randint(1, 4) for _ in range(rank)]
        a = [rng.randint(-3, 3) for _ in range(rank)]
    maximal = sorted(cells)
    faces = sorted(
        {f for rays in maximal for k in range(1, rank + 1) for f in combinations(rays, k)},
        key=lambda f: (len(f), f),
    )
    listed = []
    for i, f in enumerate(faces):
        weight = {f"U{i}": _l1_power(len(f) - 1)} if rng.random() < 0.85 else {}
        listed.append({"rays": [list(r) for r in f], "weight": weight})
    return {
        "rank": rank,
        "cells": listed,
        "e": [e] * len(maximal),
        "a": [a] * len(maximal),
    }


def fan_invariance(seed: int, count: int) -> list[dict]:
    out = []
    for i in range(count):
        geo = _rng("geometry", "fan-invariance", i)
        rng = _rng(seed, "fan-invariance", i)
        rank = 2 + i % 2
        model = _orthant_model(geo, rng, rank, horizontal=(i % 3 == 0), level=i // 2 % 3)
        while True:
            ray = [geo.randint(0, 2) for _ in range(rank)]
            if any(ray):
                break
        out.append({"kind": "fan", "input": model, "ray": ray})
    return out


GENERATORS = {
    "newton-small": newton_small,
    "fan-invariance": fan_invariance,
    "newton-large": newton_large,
}


def generate(workload: str, seed: int, count: int | None = None) -> list[dict]:
    return GENERATORS[workload](seed, POOL[workload] if count is None else count)
