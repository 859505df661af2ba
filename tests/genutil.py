"""Seeded random generators and independent oracles shared by the tests.

The library ships no test oracles: every second route to what it computes
lives here, beside the tests that use it.  Oracles avoid the code paths
they check: lattice points are enumerated by Fourier-Motzkin elimination
(or plain boxes), membership of a half-open cone is a rational solve, the
root index is a torsion order, sums are accumulated term by term, and
L-adic truncation replaces closed forms.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Optional, Sequence

from logzeta.cones import (
    Cone,
    ConeComplex,
    HalfOpenCone,
    RESOLVE_MAX_BOX_POINTS,
    LinealityError,
    _is_pyramid_apex,
    _relint_pieces,
    _triangulate,
    box_points,
    complex_from_cones,
    cone_from_rays,
    primitive,
    star_subdivision,
)
from logzeta.intlin import (
    Mat,
    Vec,
    det,
    dot,
    from_columns,
    hermite_normal_form,
    identity,
    is_zero_vec,
    mat,
    mat_mul,
    mat_vec,
    rank,
    saturation_basis,
    scaled_inverse,
    smith_normal_form,
    solve_integer,
    solve_rational,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)
from logzeta.mring import LaurentPoly, MClass, MCoeff, merge
from logzeta.monoids import MarkedMonoid, SharpFsMonoid, base_change
from logzeta.newton import NewtonInput, newton_polyhedron
from logzeta.series import ZSeries
from logzeta.zeta import FanModel, SncdComponent, SncdData


# ---------------------------------------------------------------------------
# Reference routes: a second way to what the library computes.

AffineIneq = tuple[int, Vec]  # (c0, c): the halfspace c0 + <c, x> >= 0


def affine_lattice_points(n: int, ineqs: Sequence[AffineIneq]) -> list[Vec]:
    """All integer points of a bounded polyhedron {x : c0 + <c,x> >= 0}.

    Exact Fourier-Motzkin elimination provides tight per-coordinate bounds,
    so enumeration cost is proportional to the number of points (plus small
    polynomial overhead).  Raises if some direction is unbounded.
    """
    systems: list[list[AffineIneq]] = [list(ineqs)]
    for level in range(n, 1, -1):
        cur = systems[0]
        nxt: list[AffineIneq] = []
        k = level - 1  # eliminate coordinate k
        pos = [iq for iq in cur if iq[1][k] > 0]
        neg = [iq for iq in cur if iq[1][k] < 0]
        zero = [iq for iq in cur if iq[1][k] == 0]
        nxt.extend((c0, c[:k]) for c0, c in zero)
        for (p0, p), (m0, m) in itertools.product(pos, neg):
            a, b = p[k], -m[k]
            c0 = b * p0 + a * m0
            c = tuple(b * p[i] + a * m[i] for i in range(k))
            nxt.append((c0, c))
        dedup: dict[AffineIneq, None] = {}
        for c0, c in nxt:
            g = gcd(c0, *c)
            if g > 1:
                c0, c = c0 // g, tuple(x // g for x in c)
            dedup[c0, c] = None
        systems.insert(0, list(dedup))

    out: list[Vec] = []

    def rec(prefix: tuple[int, ...]) -> None:
        k = len(prefix)
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for c0, c in systems[k]:
            coef = c[k]
            rest = c0 + sum(c[i] * prefix[i] for i in range(k))
            if coef > 0:
                val = Fraction(-rest, coef)
                lo = val if lo is None else max(lo, val)
            elif coef < 0:
                val = Fraction(-rest, coef)
                hi = val if hi is None else min(hi, val)
            elif rest < 0:
                return
        if lo is None or hi is None:
            raise ValueError("polyhedron is unbounded")
        start, stop = ceil(lo), floor(hi)
        for v in range(start, stop + 1):
            new = prefix + (v,)
            if k + 1 == n:
                out.append(new)
            else:
                rec(new)

    if n == 0:
        if all(c0 >= 0 for c0, _ in ineqs):
            out.append(())
        return out
    rec(())
    return out


def half_open_contains(h: HalfOpenCone, v: Vec) -> bool:
    """Whether the lattice point ``v`` lies in ``h``: its rational coordinates
    on the generators are positive on strict ones and nonnegative on the rest."""
    if not h.gens:
        return is_zero_vec(v)
    coords = solve_rational(from_columns(h.gens), v)
    return coords is not None and all(
        lam > 0 if strict else lam >= 0 for lam, strict in zip(coords, h.strict)
    )


def torsion_order(a: Mat) -> int:
    """Order of the torsion subgroup of Z^rows / column-span(A)."""
    s, _, _ = smith_normal_form(a)
    out = 1
    for i in range(min(len(s), len(s[0]) if s else 0)):
        if s[i][i] != 0:
            out *= s[i][i]
    return out


def root_index_via_torsion(mm: MarkedMonoid) -> int:
    """Root index as the torsion order of Z^rank modulo the marking's line,
    which equals the content of e_pi."""
    if not mm.is_local():
        raise ValueError("root index needs a local marking (e_pi != 0)")
    return torsion_order(from_columns([mm.e_pi]))


def local_dual_points(mm: MarkedMonoid, bound: int) -> list[Vec]:
    """Dual-lattice points in the interior of the dual cone with
    ``<u, e_pi> <= bound``, the brute-force oracle for the cone generating
    function.  Raises when the set is infinite: zero marking, or a dual ray
    orthogonal to the marking.
    """
    if not mm.is_local():
        raise ValueError("infinite fibres: e_pi = 0")
    dual = mm.base.dual()
    for v in dual.rays:
        if dot(v, mm.e_pi) == 0:
            raise ValueError("infinite fibres: dual ray orthogonal to e_pi")
    # Interior of the dual cone: <u, x> >= 1 for every primal ray x (integer
    # points in the open cone satisfy >= 1 exactly when > 0).
    ineqs = [(-1, x) for x in dual.facets] + [(bound, vec_scale(-1, mm.e_pi))]
    return sorted(affine_lattice_points(mm.base.rank, ineqs))


def _oracle_rays_in_basis(rays: Sequence[Vec], bmat: Mat) -> list[Vec]:
    inv, _ = scaled_inverse(bmat)
    return [primitive(mat_vec(inv, ray)) for ray in rays]


def oracle_monoid_from_generators(ambient_rank: int, gens: Sequence[Vec]) -> SharpFsMonoid:
    """``monoids.monoid_from_generators`` by a second route: the rank by
    elimination, a Hermite basis, and each generator's coordinates by its
    own Smith-form solve."""
    gens = [tuple(g) for g in gens]
    for g in gens:
        if len(g) != ambient_rank:
            raise ValueError("dimension mismatch")
    nonzero = [g for g in gens if not is_zero_vec(g)]
    if not nonzero:
        raise ValueError("need at least one nonzero generator")
    r = rank(tuple(nonzero))
    h, _ = hermite_normal_form(from_columns(nonzero))
    basis = [col for col in transpose(h) if not is_zero_vec(col)]
    if len(basis) != r:
        raise RuntimeError("Hermite basis rank differs from the generators' rank")
    bmat = from_columns(basis)
    coords = []
    for g in nonzero:
        x = solve_integer(bmat, g)
        if x is None:
            raise RuntimeError(f"generator {g} outside the lattice it generates")
        coords.append(x)
    cone = cone_from_rays(r, coords)
    if not cone.is_strictly_convex():
        raise LinealityError("generators span units; sharpify instead")
    return SharpFsMonoid(r, cone, bmat)


def oracle_sharpify(lattice: Mat, cone: Cone) -> tuple[SharpFsMonoid, int, Mat]:
    """``monoids.sharpify`` by a second route: the quotient map from the
    Smith form of ``saturation_basis`` of the lines, whose divisors are
    checked to be units."""
    r = len(lattice)
    if cone.ambient_rank != r:
        raise ValueError("dimension mismatch")
    cone_l = cone_from_rays(r, _oracle_rays_in_basis(cone.rays, lattice))
    lines = cone_l.lineality()
    u = len(lines)
    if u == 0:
        proj = identity(r)
        pointed = cone_l
    else:
        sat = saturation_basis(lines, r)
        s, p, _ = smith_normal_form(from_columns(sat))
        if any(s[i][i] != 1 for i in range(u)):
            raise RuntimeError("saturated unit lattice has a non-unit elementary divisor")
        proj = tuple(p[u:])
        new_rays = [v for v in (mat_vec(proj, ray) for ray in cone_l.rays) if not is_zero_vec(v)]
        pointed = cone_from_rays(r - u, new_rays)
    if pointed.dim < r - u:
        rays, _, _, rows = pointed.span_coordinates
        pointed = cone_from_rays(len(rows), rays)
        proj = mat_mul(rows, proj)
    return SharpFsMonoid(pointed.ambient_rank, pointed), u, proj


def oracle_base_change(mm: MarkedMonoid, d: int) -> MarkedMonoid:
    """``monoids.base_change`` by a second route: a Hermite basis of the
    lattice ``d * I`` and ``e_pi`` generate, the rays through its inverse,
    and the marking by Smith-form solves."""
    if d <= 0:
        raise ValueError("degree must be positive")
    if d == 1:
        return mm
    r = mm.base.rank
    cols = [vec_scale(d, col) for col in transpose(identity(r))] + [mm.e_pi]
    h, _ = hermite_normal_form(from_columns(cols))
    basis = [col for col in transpose(h) if not is_zero_vec(col)]
    if len(basis) != r:
        raise RuntimeError("base-changed lattice has the wrong rank")
    bmat = from_columns(basis)
    newcone = cone_from_rays(r, _oracle_rays_in_basis(mm.base.cone.rays, bmat))
    new_e = solve_integer(bmat, mm.e_pi)
    new_a = solve_integer(bmat, vec_scale(d, mm.a_div))
    if new_e is None or new_a is None:
        raise RuntimeError("marking outside the base-changed lattice")
    embed = mat_mul(mm.base.lattice, bmat)
    return MarkedMonoid(SharpFsMonoid(r, newcone, embed), new_e, new_a)


def max_ideal_generated_by_base(mm: MarkedMonoid, d: int, height: int = 8) -> bool:
    """Bounded check that after base change the maximal ideal is generated by
    the image of the original one.

    Scans nonzero points of the new monoid up to ``height`` (interior
    functional) and asks for a decomposition (image of old nonzero point) +
    (new monoid point).  Exact on the scanned region.
    """

    def points(m: SharpFsMonoid, bound: int) -> list[Vec]:
        ell = tuple(map(sum, zip(*m.cone.facets)))
        ineqs = [(0, f) for f in m.cone.facets] + [(bound, vec_scale(-1, ell))]
        return [p for p in affine_lattice_points(m.rank, ineqs) if not is_zero_vec(p)]

    changed = base_change(mm, d)
    old_in_new = []
    for p in points(mm.base, height * max(1, d)):
        # the new lattice embeds its basis in the old coordinates scaled by d
        x = solve_integer(changed.base.lattice, mat_vec(mm.base.lattice, vec_scale(d, p)))
        if x is None:
            raise RuntimeError(f"monoid point {p} outside the base-changed lattice")
        old_in_new.append(x)
    return all(
        any(changed.base.contains(vec_sub(q, o)) for o in old_in_new)
        for q in points(changed.base, height)
    )


def laurent_series(c: MCoeff, low: int) -> LaurentPoly:
    """L-adic expansion of ``c``, 1/(L-1) = L^{-1} + L^{-2} + ..., exact on
    the monomials of exponent >= low; the ones below are dropped."""
    out = c.num
    if c.den_pow > 0 and not out.is_zero():
        # deep enough that the dropped geometric tail cannot reach >= low
        depth = out.coeffs[-1][0] - low + c.den_pow + 1
        geom = LaurentPoly.from_dict({-j: 1 for j in range(1, max(depth, 1) + 1)})
        for _ in range(c.den_pow):
            out = out * geom
    return LaurentPoly(tuple((e, x) for e, x in out.coeffs if e >= low))


def truncate_l_below(x: MClass, low: int) -> MClass:
    """L-adic truncation of every coefficient of ``x`` at ``low``."""
    return MClass({sym: MCoeff(laurent_series(c, low), 0) for sym, c in x.terms.items()})


def numerator_equal(s1: ZSeries, s2: ZSeries) -> bool:
    """``series.equal`` in classes: ``s1 - s2`` is built as a series, and its
    numerator over the common denominator of its own terms is summed as a
    polynomial in T with :class:`MClass` coefficients."""
    diff = s1 - s2
    counts: dict[tuple[int, int], int] = {}
    for (_, ds), _ in diff.sorted_terms():
        for d in set(ds):
            counts[d] = max(counts.get(d, 0), ds.count(d))
    common: list[tuple[int, int]] = []
    for d, k in sorted(counts.items()):
        common.extend([d] * k)

    def parts():  # lazily, so that merge holds one term's numerator at a time
        for (beta, ds), c in diff.sorted_terms():
            missing = list(common)
            for d in ds:
                missing.remove(d)
            part = {beta: c}
            for a, b in missing:
                part = merge(
                    kv for m, cm in part.items() for kv in ((m, cm), (m + b, -cm.scale_l(a)))
                )
            yield from part.items()

    return not merge(parts())


def merge_expand(s: ZSeries, degree: int) -> list[MClass]:
    """``ZSeries.expand`` in classes: each denominator of each term is
    expanded as a geometric series through nested merges of :class:`MClass`
    values, and the terms' expansions are merged."""
    if degree < 0:
        raise ValueError(f"expansion degree must be nonnegative, not {degree}")

    def parts():  # lazily, so that merge holds one term's expansion at a time
        for (beta, ds), c in s.sorted_terms():
            poly = {beta: c}
            for a, b in ds:
                poly = merge(
                    (m + k * b, cm.scale_l(k * a))
                    for m, cm in poly.items()
                    for k in range((degree - m) // b + 1)
                )
            yield from ((m, cm) for m, cm in poly.items() if m <= degree)

    total = merge(parts())
    return [total.get(d, MClass.zero()) for d in range(1, degree + 1)]


def per_factor_candidate_poles(s: ZSeries) -> frozenset[Fraction]:
    """``ZSeries.candidate_poles`` read factor by factor off every term."""
    out = set()
    for (_, ds), _ in s.sorted_terms():
        for a, b in ds:
            out.add(Fraction(a, b))
    return frozenset(out)


def _oracle_swap_cols(rows: list[list[int]], i: int, j: int) -> None:
    for r in rows:
        r[i], r[j] = r[j], r[i]


def _oracle_addmul_col(rows: list[list[int]], dst: int, src: int, k: int) -> None:
    for r in rows:
        r[dst] += k * r[src]


def _oracle_min_nonzero_pos(rows: list[list[int]], k: int) -> Optional[tuple[int, int]]:
    best = None
    for i in range(k, len(rows)):
        for j in range(k, len(rows[0])):
            if rows[i][j] != 0 and (best is None or abs(rows[i][j]) < abs(rows[best[0]][best[1]])):
                best = (i, j)
    return best


def oracle_smith_normal_form(a: Mat) -> tuple[Mat, Mat, Mat]:
    """The two-phase Smith normal form the library's one pivot loop
    replaced, kept verbatim: the pivot is moved once before the reduction
    loop and again inside it, behind a ``RuntimeError`` that cannot fire."""
    m = len(a)
    n = len(a[0]) if a else 0
    s = [list(r) for r in a]
    u = [list(r) for r in identity(m)]
    v = [list(r) for r in identity(n)]

    def swap_rows(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def addmul_row(dst: int, src: int, k: int) -> None:
        s[dst] = [x + k * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def negate_row(i: int) -> None:
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    k = 0
    while True:
        pos = _oracle_min_nonzero_pos(s, k)
        if pos is None:
            break
        i, j = pos
        if i != k:
            swap_rows(k, i)
        if j != k:
            _oracle_swap_cols(s, k, j)
            _oracle_swap_cols(v, k, j)
        # Reduce row k and column k until the pivot divides everything there.
        while True:
            for i in range(k + 1, m):
                q = s[i][k] // s[k][k]
                if q:
                    addmul_row(i, k, -q)
            for j in range(k + 1, n):
                q = s[k][j] // s[k][k]
                if q:
                    _oracle_addmul_col(s, j, k, -q)
                    _oracle_addmul_col(v, j, k, -q)
            if all(s[i][k] == 0 for i in range(k + 1, m)) and all(
                s[k][j] == 0 for j in range(k + 1, n)
            ):
                break
            pos = _oracle_min_nonzero_pos(s, k)
            if pos is None:
                raise RuntimeError("smith_normal_form lost its pivot")
            i, j = pos
            if i != k:
                swap_rows(k, i)
            if j != k:
                _oracle_swap_cols(s, k, j)
                _oracle_swap_cols(v, k, j)
        if s[k][k] < 0:
            negate_row(k)
        k += 1
        if k >= m or k >= n:
            break

    # Divisibility fix-up d_i | d_{i+1}.
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            di, dj = s[i][i], s[i + 1][i + 1]
            if di != 0 and dj % di != 0:
                _oracle_addmul_col(s, i, i + 1, 1)
                _oracle_addmul_col(v, i, i + 1, 1)
                # Re-diagonalize the 2x2 block with row/column gcd steps.
                while s[i + 1][i] != 0:
                    if abs(s[i + 1][i]) <= abs(s[i][i]) or s[i][i] == 0:
                        swap_rows(i, i + 1)
                    q = s[i + 1][i] // s[i][i]
                    addmul_row(i + 1, i, -q)
                for j in (i, i + 1):
                    if s[j][j] < 0:
                        negate_row(j)
                q = s[i][i + 1] // s[i][i] if s[i][i] else 0
                if s[i][i]:
                    _oracle_addmul_col(s, i + 1, i, -q)
                    _oracle_addmul_col(v, i + 1, i, -q)
                changed = True
    return mat(s), mat(u), mat(v)


def oracle_resolve_complex(k: ConeComplex) -> ConeComplex:
    """The two-phase resolution the library's one loop replaced, kept
    verbatim: every cell made simplicial first, then the singular cells
    subdivided in turn from a set kept beside the complex."""
    for c in k.cells:
        if not c.is_strictly_convex():
            raise LinealityError("strictly convex cells required")

    # Phase 1: make every cell simplicial by star subdivisions at rays.
    guard = 0
    while True:
        bad = next((c for c in k.cells if len(c.pointed_rays()) > c.dim), None)
        if bad is None:
            break
        # a strictly convex cone whose every ray is a pyramid apex is simplicial
        pivot = next(r for r in bad.rays if not _is_pyramid_apex(bad, r))
        k = star_subdivision(k, pivot)
        guard += 1
        if guard > 10_000:
            raise RuntimeError("simplicialization did not terminate")

    # Phase 2: shrink multiplicities via fundamental-parallelepiped points.
    # Only cells new to a complex are tested; a cell left in place keeps its
    # verdict.  A box holds as many points as the product of its cell's Smith
    # divisors, so the running total is checked before each enumeration.
    singular = {c for c in k.cells if not c.is_smooth}
    work = 0
    while True:
        bad = next((c for c in k.cells if c in singular), None)
        if bad is None:
            return k
        piece = HalfOpenCone(bad.ambient_rank, tuple(bad.rays), (False,) * len(bad.rays))
        index = piece.box_count()
        work += index
        if work > RESOLVE_MAX_BOX_POINTS:
            raise ValueError(
                f"resolution needs more than {RESOLVE_MAX_BOX_POINTS} box points "
                f"(at a cell of index {index}); the model is too singular"
            )
        candidates = [primitive(p) for p in box_points(piece) if not is_zero_vec(p)]
        pivot = min(candidates, key=lambda p: (sum(abs(x) for x in p), p))
        old = set(k.cells)
        k = star_subdivision(k, pivot)
        singular = {c for c in k.cells if c in singular or c not in old and not c.is_smooth}


# ---------------------------------------------------------------------------
# Random geometry.


def random_cone(rng: random.Random, rank: int, max_entry: int = 6, tries: int = 200) -> Cone:
    """Random full-dimensional strictly convex cone."""
    for _ in range(tries):
        k = rng.randint(rank, rank + 2)
        rays = [
            tuple(rng.randint(0, max_entry) for _ in range(rank)) for _ in range(k)
        ]
        rays = [r for r in rays if not is_zero_vec(r)]
        if not rays:
            continue
        c = cone_from_rays(rank, rays)
        if c.is_strictly_convex() and c.dim == rank:
            return c
    raise RuntimeError("no cone found")


def dual_box_count(c: Cone) -> int:
    """Total fundamental-parallelepiped size of the dual's triangulation."""

    dual = Cone(c.ambient_rank, c.facets, c.rays)
    total = 0
    for gens in _triangulate(dual.rays, dual.incidence, dual.dim):
        span = saturation_basis(gens, c.ambient_rank)
        coords = [solve_integer(from_columns(span), g) for g in gens]
        total += abs(det(from_columns(coords)))
    return total


def random_marked_monoid(
    rng: random.Random,
    rank: int,
    max_entry: int = 6,
    interior_e: bool = True,
    max_box: int = 4000,
) -> MarkedMonoid:
    """Random marked monoid; with ``interior_e`` the marking avoids all facets
    of the cone, so the dual has no horizontal rays and the brute-force
    oracle is finite.  Cones whose dual decomposition has more than
    ``max_box`` parallelepiped points are resampled (enumeration cost grows
    with the index, not the input size)."""
    while True:
        c = random_cone(rng, rank, max_entry)
        if dual_box_count(c) <= max_box:
            break
    base = SharpFsMonoid(rank, c)
    while True:
        e = (0,) * rank
        for r in c.rays:
            e = vec_add(e, vec_scale(rng.randint(1 if interior_e else 0, 2), r))
        if is_zero_vec(e):
            continue
        if interior_e and not c.relint_contains(e):
            continue
        if not interior_e:
            break
        a = tuple(rng.randint(-3, 3) for _ in range(rank))
        return MarkedMonoid(base, e, a)
    a = tuple(rng.randint(-3, 3) for _ in range(rank))
    return MarkedMonoid(base, e, a)


def product_monoid_with_horizontals(
    rng: random.Random, vertical_rank: int, horiz_rank: int
) -> tuple[MarkedMonoid, MarkedMonoid, int]:
    """Marked monoid of the form (vertical block) ⊕ N^h with marking zero and
    divisor one on the horizontal block.

    Returns (product, vertical factor, h).  The interior dual sum of the
    product factorizes as (vertical sum) * (L-1)^{-h}, which is the exact
    reduction used to test horizontal folding against a finite oracle.
    """
    vm = random_marked_monoid(rng, vertical_rank, max_entry=4, interior_e=True)
    n = vertical_rank + horiz_rank
    rays = [r + (0,) * horiz_rank for r in vm.base.cone.rays]
    rays += [
        tuple(0 for _ in range(vertical_rank))
        + tuple(1 if j == i else 0 for j in range(horiz_rank))
        for i in range(horiz_rank)
    ]
    cone = cone_from_rays(n, rays)
    base = SharpFsMonoid(n, cone)
    e = vm.e_pi + (0,) * horiz_rank
    a = vm.a_div + (1,) * horiz_rank
    return MarkedMonoid(base, e, a), vm, horiz_rank


def brute_cone_sum(mm: MarkedMonoid, weight: MClass, degree: int) -> list[MClass]:
    """Coefficients T^1..T^degree of the interior dual sum, by enumeration."""
    out = [MClass.zero() for _ in range(degree)]
    for u in local_dual_points(mm, degree):
        d = dot(u, mm.e_pi)
        if 1 <= d <= degree:
            out[d - 1] = out[d - 1] + weight.scale_l(-dot(u, mm.a_div))
    return out


# ---------------------------------------------------------------------------
# Cone complexes from the definition.


def _tight(c: Cone, normals) -> frozenset:
    """The rays of ``c`` on which every functional in ``normals`` vanishes."""
    return frozenset(r for r in c.rays if all(dot(u, r) == 0 for u in normals))


def brute_faces(c: Cone) -> list[Cone]:
    """Every face of ``c`` as an intersection of facets, ordered by
    (dimension, rays, facets)."""
    ray_sets = {
        _tight(c, normals)
        for k in range(len(c.facets) + 1)
        for normals in itertools.combinations(c.facets, k)
    }
    found = {cone_from_rays(c.ambient_rank, list(rs)) for rs in ray_sets}
    return sorted(found, key=lambda f: (f.dim, f.rays, f.facets))


def oracle_face_incidence(inputs: Sequence[Vec], facets: Sequence[Vec]) -> dict[int, int]:
    """The faces of the cone generated by ``inputs`` whose facet normals are
    ``facets``, each as the mask of the inputs on it mapped to the mask of
    the facets holding it, by ``dot`` alone: for every set ``S`` of inputs,
    the facets holding ``S`` cut out the smallest face containing it, whose
    inputs are those on each of them.  Exponential in ``len(inputs)``."""
    on = [[dot(u, x) == 0 for u in facets] for x in inputs]
    out: dict[int, int] = {}
    for k in range(len(inputs) + 1):
        for subset in itertools.combinations(range(len(inputs)), k):
            tight = [j for j in range(len(facets)) if all(on[i][j] for i in subset)]
            face = [i for i in range(len(inputs)) if all(on[i][j] for j in tight)]
            out[sum(1 << i for i in face)] = sum(1 << j for j in range(len(facets)) if all(on[i][j] for i in face))
    return out


def oracle_incidence(c: Cone) -> tuple[int, ...]:
    """The ray/facet incidence of ``c`` from the definition, by ``dot``: for
    each facet in order, the mask with bit ``i`` set when ``c.rays[i]`` lies
    on it."""
    out = []
    for u in c.facets:
        mask = 0
        for i, r in enumerate(c.rays):
            if dot(u, r) == 0:
                mask |= 1 << i
        out.append(mask)
    return tuple(out)


def kernel_cone(c: Cone) -> tuple[tuple[Vec, ...], tuple[int, ...], int]:
    """The pointed cone ``c`` as the cone-sum kernel takes it: its sorted
    rays, the masks of :func:`oracle_incidence` of its pointed facets (those
    whose negative is no facet), sorted, and its dimension."""
    facets = set(c.facets)
    pointed = [m for u, m in zip(c.facets, oracle_incidence(c)) if tuple(-x for x in u) not in facets]
    return c.rays, tuple(sorted(pointed)), c.dim


def relint_pieces(c: Cone) -> tuple[HalfOpenCone, ...]:
    """``cones._relint_pieces`` of the pointed cone ``c``, handed
    :func:`kernel_cone`."""
    return _relint_pieces(c.ambient_rank, *kernel_cone(c))


def brute_is_face(g: Cone, c: Cone) -> bool:
    """``g`` lies in ``c`` and equals the smallest face of ``c`` containing it."""
    if not all(c.contains(r) for r in g.rays):
        return False
    normals = [u for u in c.facets if all(dot(u, r) == 0 for r in g.rays)]
    return cone_from_rays(c.ambient_rank, list(_tight(c, normals))) == g


def brute_intersection(c1: Cone, c2: Cone) -> Cone:
    """``c1 ∩ c2`` as the dual of the sum of the two dual cones."""
    dual_sum = cone_from_rays(c1.ambient_rank, list(c1.facets) + list(c2.facets))
    return Cone(c1.ambient_rank, dual_sum.facets, dual_sum.rays)


def _oracle_dd_insert(lines: list[Vec], rays: list, u: Vec, idx: int) -> tuple[list[Vec], list]:
    """Intersect the cone generated by (lines, rays) with {x : <u,x> >= 0}.

    Each ray carries the frozenset of previously inserted inequality indices
    it is tight on; lines are tight on all of them by construction.  Two
    rays are adjacent when no other ray is tight on all their common
    inequalities; no rank filter is applied."""
    # some line pairs nontrivially with u: that line folds into a ray
    pivot_at = next((i for i, l in enumerate(lines) if dot(u, l) != 0), None)
    if pivot_at is not None:
        pivot = lines[pivot_at]
        d0 = dot(u, pivot)
        if d0 < 0:
            pivot = vec_scale(-1, pivot)
            d0 = -d0
        new_lines = []
        for i, l in enumerate(lines):
            if i != pivot_at:
                new_lines.append(primitive(vec_sub(vec_scale(d0, l), vec_scale(dot(u, l), pivot))))
        new_rays = [(primitive(vec_sub(vec_scale(d0, r), vec_scale(dot(u, r), pivot))), t | {idx}) for r, t in rays]
        new_rays.append((primitive(pivot), frozenset(range(idx))))
        return new_lines, new_rays
    plus = [(r, t) for r, t in rays if dot(u, r) > 0]
    zero = [(r, t | {idx}) for r, t in rays if dot(u, r) == 0]
    minus = [(r, t) for r, t in rays if dot(u, r) < 0]
    out = plus + zero
    for (rp, tp), (rm, tm) in itertools.product(plus, minus):
        common = tp & tm
        if any(t >= common for r, t in rays if r != rp and r != rm):
            continue  # rp, rm not adjacent
        w = vec_add(vec_scale(dot(u, rp), rm), vec_scale(-dot(u, rm), rp))
        if not is_zero_vec(w):
            out.append((primitive(w), common | {idx}))
    return lines, out


def oracle_dd_generators(n: int, ineqs) -> tuple[Vec, ...]:
    """Canonical generators of {x in R^n : <u,x> >= 0 for all u}, the pointed
    rays and both directions of each line, sorted: a double description on
    frozenset tight sets, with the inequalities inserted in the order given,
    repeats included, and no rank filter, so it shares no shortcut with
    ``cones._dd``."""
    lines: list[Vec] = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays: list = []
    for idx, u in enumerate(u for u in ineqs if not is_zero_vec(u)):
        lines, rays = _oracle_dd_insert(lines, rays, u, idx)
    return tuple(sorted({r for r, _ in rays} | set(lines) | {vec_scale(-1, l) for l in lines}))


def two_dd_cone(n: int, rays) -> Cone:
    """The cone generated by ``rays`` as two oracle double descriptions build
    it: the facets from the primitive rays, then the canonical rays from the
    facets.  ``cone_from_rays`` must agree with it field by field."""
    facets = oracle_dd_generators(n, [primitive(r) for r in rays if not is_zero_vec(r)])
    return Cone(n, oracle_dd_generators(n, facets), facets)


def two_dd_facets_cone(n: int, normals) -> Cone:
    """The cone cut out by ``normals`` as two oracle double descriptions build
    it: the rays from the normals, then the irredundant facets from the rays.
    ``cone_from_facets`` must agree with it field by field."""
    rays = oracle_dd_generators(n, list(normals))
    return Cone(n, rays, oracle_dd_generators(n, rays))


def count_dd_runs(monkeypatch) -> list[int]:
    """Wrap ``cones._dd``, the double description, with a counter: the
    returned list gains the ambient rank of each run from then on."""
    import logzeta.cones

    runs: list[int] = []
    real = logzeta.cones._dd

    def counting(n, ineqs):
        runs.append(n)
        return real(n, ineqs)

    monkeypatch.setattr(logzeta.cones, "_dd", counting)
    return runs


def count_calls(monkeypatch, name: str) -> list[tuple]:
    """Wrap the library function ``name`` with a counter in every ``logzeta``
    module that holds it (a ``from .intlin import ...`` binds its own name):
    the returned list gains the arguments of each call from then on."""
    import sys

    calls: list[tuple] = []
    mods = [m for k, m in sys.modules.items() if k.startswith("logzeta.")]
    real = next(vars(m)[name] for m in mods if name in vars(m))

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for m in mods:
        if vars(m).get(name) is real:
            monkeypatch.setattr(m, name, counting)
    return calls


def brute_complex_problems(k: ConeComplex) -> list[str]:
    """The diagnostics of ``k.validate()``, from the definition: every face of
    every cell is a cell, and every pair of cells meets in a common face."""
    problems = []
    cellset = set(k.cells)
    for c in k.cells:
        for f in brute_faces(c):
            if f not in cellset:
                problems.append(f"missing face {f} of {c}")
    for c1, c2 in itertools.combinations(k.cells, 2):
        inter = brute_intersection(c1, c2)
        if not (brute_is_face(inter, c1) and brute_is_face(inter, c2)):
            problems.append(f"{c1} and {c2} do not meet in a common face")
    return problems


def uncertified(k: ConeComplex) -> ConeComplex:
    """An equal copy of ``k`` with no verdict or carriers handed down by
    ``star_subdivision``: checks on it run the general path."""
    return ConeComplex(k.ambient_rank, k.cells)


def random_subdivided_cone(rng: random.Random, rank: int) -> ConeComplex:
    """A random cone star-subdivided up to twice, without a certificate."""
    k = complex_from_cones(rank, [random_cone(rng, rank, max_entry=3)])
    for _ in range(rng.randint(0, 2)):
        v = tuple(rng.randint(0, 3) for _ in range(rank))
        if not is_zero_vec(v) and k.support_cell(v) is not None:
            k = star_subdivision(k, v)
    return uncertified(k)


def brute_incidence(k: ConeComplex) -> tuple[list[Cone], dict[Cone, list[Cone]]]:
    """The maximal cells of ``k`` and, for each cell, the maximal cells
    containing it, both in cell order, from the facet inequalities: ``c``
    lies in ``o`` when every ray of ``c`` satisfies every inequality of ``o``."""

    def inside(c: Cone, o: Cone) -> bool:
        return all(dot(u, r) >= 0 for u in o.facets for r in c.rays)

    maximal = [c for c in k.cells if not any(o != c and inside(c, o) for o in k.cells)]
    return maximal, {c: [m for m in maximal if inside(c, m)] for c in k.cells}


def witness_flags(c: Cone, region: str) -> list[tuple[bool, ...]]:
    """The openness flags of each piece of ``_triangulate`` on ``c``, from
    inward wall normals and a symbolically perturbed witness point.

    The wall opposite generator ``g_j`` is open when the witness ``base +
    eps*d1 + eps^2*d2 + ...`` lies strictly on its outer side; ``base`` is
    the sum of the rays and the ``d_i`` are the rays, all negated for
    ``relint``.  The inward normal of a wall is the primitive functional in
    ``span(c)`` vanishing on the other generators and positive on ``g_j``: a
    column of the scaled inverse of the generators padded with functionals
    vanishing on ``span(c)``.
    """
    from logzeta.cones import _triangulate
    from logzeta.intlin import columns, content_primitive, scaled_inverse, span_lattice

    s = 1 if region == "closed" else -1
    base = vec_scale(s, tuple(map(sum, zip(*c.rays))))
    directions = [vec_scale(s, r) for r in c.rays]
    comp = tuple(span_lattice(c.rays, c.ambient_rank)[2])
    out = []
    for gens in _triangulate(c.rays, c.incidence, c.dim):
        inv, _ = scaled_inverse(gens + comp)
        flags = []
        for col in columns(inv)[: len(gens)]:
            u = content_primitive(col)[1]
            side = next(x for x in (dot(u, v) for v in (base, *directions)) if x)
            flags.append(side < 0)
        out.append(tuple(flags))
    return out


def fresh_box_points(h: HalfOpenCone) -> list[Vec]:
    """The box points of ``h`` from a Smith normal form taken on this call,
    by the divisor-box enumeration of ``cones.box_points``, with nothing
    kept between calls."""
    from logzeta.intlin import from_columns, smith_normal_form

    k = len(h.gens)
    if k == 0:
        return [(0,) * h.ambient_rank]
    s, _, v = smith_normal_form(from_columns(h.gens))
    divisors = [s[i][i] for i in range(k)]
    big = divisors[-1]
    steps = [tuple(x * (big // d) for x, d in zip(row, divisors)) for row in v]
    points = []
    for combo in itertools.product(*[range(d) for d in divisors]):
        lam = []
        for row, strict in zip(steps, h.strict):
            x = dot(row, combo) % big
            lam.append(big if strict and x == 0 else x)
        points.append(tuple(dot(col, lam) // big for col in zip(*h.gens)))
    return points


def per_call_relint_cone_sum(cone: Cone, e: Vec, a: Vec, weight: MClass) -> ZSeries:
    """``weight`` times the sum of ``L^{-<u,a>} T^{<u,e>}`` over the lattice
    points ``u`` in the relative interior of ``cone``, as a one-cone call of
    the kernel ``series._relint_buckets``, weighted by
    ``series._weighted_sum``, computes it, but in the series ring and with
    nothing kept between calls: a fresh half-open decomposition of ``cone``
    and a fresh Smith normal form per piece on every call, and one class
    product per bucket, the factor ``(L/(L-1))^h`` of the ``h`` generators
    that ``e`` pairs to zero among them, where the kernel puts ``L^h`` in
    its exponents and ``(L-1)^h`` in its key."""
    from logzeta.cones import triangulate_half_open
    from logzeta.mring import UNIT_SYMBOL, LaurentPoly, MCoeff
    from logzeta.series import _canon_denoms

    for v in cone.rays:
        if dot(v, e) == 0 and dot(v, a) != 1:
            raise ValueError(
                f"horizontal ray {v} must pair to 1 with the divisor, got {dot(v, a)}"
            )
    pairs = []
    for piece in triangulate_half_open(cone, "relint"):
        denoms = []
        horiz = 0
        for g in piece.gens:
            b = dot(g, e)
            if b == 0:
                horiz += 1
            else:
                denoms.append((-dot(g, a), b))
        key_denoms = _canon_denoms(denoms)
        coeff = weight * MClass.l_power(horiz).mul_l1_pow(-horiz) if horiz else weight
        numerators: dict[int, dict[int, int]] = {}
        for u0 in fresh_box_points(piece):
            bucket = numerators.setdefault(dot(u0, e), {})
            lexp = -dot(u0, a)
            bucket[lexp] = bucket.get(lexp, 0) + 1
        for beta, bucket in numerators.items():
            poly = MClass({UNIT_SYMBOL: MCoeff.make(LaurentPoly.from_dict(bucket))})
            pairs.append(ZSeries.term(coeff * poly, beta, key_denoms))
    return ZSeries.sum(pairs)


# ---------------------------------------------------------------------------
# Random series and pairs of them whose equality is known by construction.

DENOM_FACTORS = [(0, 1), (-1, 1), (1, 1), (-2, 2), (1, 2)]


def random_class(rng: random.Random, symbols: Sequence[str], max_den_pow: int = 2) -> MClass:
    """A nonzero class on some of ``symbols`` and the unit, each coefficient
    a random Laurent polynomial over ``(L-1)^k``, k in 0..max_den_pow."""
    while True:
        parts = {}
        for sym in rng.sample(["1", *symbols], rng.randint(1, len(symbols) + 1)):
            num: dict[int, int] = {}
            for _ in range(rng.randint(1, 3)):
                e = rng.randint(-2, 2)
                num[e] = num.get(e, 0) + rng.choice([-2, -1, 1, 2])
            parts[sym] = MCoeff.make(LaurentPoly.from_dict(num), rng.randint(0, max_den_pow))
        c = MClass(parts)
        if not c.is_zero():
            return c


def random_terms(rng: random.Random, symbols: Sequence[str], max_terms: int = 3) -> list:
    """One to ``max_terms`` ``((beta, denominators), class)`` terms, each over
    up to three factors of ``DENOM_FACTORS``, repeats allowed."""
    out = []
    for _ in range(rng.randint(1, max_terms)):
        c = random_class(rng, symbols)
        out.append(((rng.randint(0, 3), rng.choices(DENOM_FACTORS, k=rng.randint(0, 3))), c))
    return out


def random_series(rng: random.Random, symbols: Sequence[str], max_terms: int = 3) -> ZSeries:
    """The sum of :func:`random_terms`."""
    return ZSeries.sum(ZSeries.term(c, *key) for key, c in random_terms(rng, symbols, max_terms))


def nested_view(terms) -> list[tuple[tuple, MClass]]:
    """The sum of ``((beta, denominators), class)`` terms, kept with one class
    per key: the classes of a key merged as classes, zero ones dropped, in
    key order."""
    merged = merge(((beta, tuple(sorted(ds))), c) for (beta, ds), c in terms)
    return sorted(merged.items(), key=lambda kv: kv[0])


def nested_text(view) -> str:
    """The text of a series from its :func:`nested_view`, printed class by
    class."""
    from logzeta.series import _denom_str

    parts = []
    for (beta, ds), c in view:
        body = f"({c})" if len(c.terms) > 1 else str(c)
        body += "" if beta == 0 else "*T" if beta == 1 else f"*T^{beta}"
        factors = [_denom_str(a, b) for a, b in sorted(ds, key=lambda ab: (ab[1], ab[0]))]
        if factors:
            body += f"/{factors[0]}" if len(factors) == 1 else "/(" + "*".join(factors) + ")"
        parts.append(body)
    return " + ".join(parts) or "0"


def nested_json(view) -> dict:
    """``cli.series_to_json`` of a series from its :func:`nested_view`."""
    from logzeta.cli import mclass_to_json

    return {
        "terms": [
            {"coeff": mclass_to_json(c), "T_exp": beta, "denominators": [[a, b] for a, b in ds]}
            for (beta, ds), c in view
        ]
    }


def expansion_case(rng: random.Random) -> tuple[ZSeries, int]:
    """A series and an expansion degree in 0..6.

    Terms sit on up to three symbols with ``(L-1)``-powers up to 3, over
    factors ``1 - L^a T^b`` with ``a`` in -3..3 (repeats allowed), and some
    have a T-exponent above the degree.  Two kinds of term cancel in the
    expansion though not in the series: ``c/(1-T) - c/(1-LT)`` (times
    ``T^beta``) vanishes at ``T^beta`` and sums to ``c(1-L^k)`` at
    ``T^(beta+k)``, one power of ``(L-1)`` lower; and ``t`` against ``t``
    re-grouped over a wider denominator, which vanishes at every degree."""
    symbols = rng.sample(["A", "B", "C", "A*B"], rng.randint(1, 3))
    parts = []
    for _ in range(rng.randint(1, 4)):
        ds = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        parts.append(ZSeries.term(random_class(rng, symbols, 3), rng.choice([0, 1, 2, 3, 7]), ds))
    for _ in range(rng.randint(0, 2)):
        c, beta = random_class(rng, symbols, 3), rng.randint(0, 3)
        ds = rng.choices(DENOM_FACTORS, k=rng.randint(0, 1))
        parts.append(ZSeries.term(c, beta, ds + [(0, 1)]) - ZSeries.term(c, beta, ds + [(1, 1)]))
    if rng.random() < 0.5:
        ds = rng.choices(DENOM_FACTORS, k=rng.randint(0, 2))
        t = ZSeries.term(random_class(rng, symbols, 3), rng.randint(0, 3), ds)
        parts.append(t - regroup(t, rng))
    return ZSeries.sum(parts), rng.randint(0, 6)


def regroup(s: ZSeries, rng: random.Random) -> ZSeries:
    """``s`` with one or more terms written over one more denominator factor:
    ``c T^beta / D = (c T^beta - c L^a T^(beta+b)) / (D (1 - L^a T^b))``.
    The zero series has no term to re-group and is returned as it is."""
    if s.is_zero():
        return s
    parts = []
    terms = list(s.sorted_terms())
    first = rng.randrange(len(terms))
    for i, ((beta, ds), c) in enumerate(terms):
        if i != first and rng.random() < 0.5:
            parts.append(ZSeries.term(c, beta, ds))
            continue
        a, b = rng.choice(DENOM_FACTORS)
        wider = ds + ((a, b),)
        parts.append(ZSeries.term(c, beta, wider) - ZSeries.term(c.scale_l(a), beta + b, wider))
    return ZSeries.sum(parts)


def mutate(s: ZSeries, rng: random.Random) -> ZSeries:
    """``s`` with one coefficient of one term changed, so no longer equal to
    ``s``: one L-exponent moved up by one, the term's sign flipped, or one
    denominator power moved by one."""
    (beta, ds), c = rng.choice(list(s.sorted_terms()))
    sym, cf = rng.choice(c.sorted_terms())
    kind = rng.choice(["exponent", "sign", "den_pow"])
    if kind == "sign":
        return s - ZSeries.term(c + c, beta, ds)
    if kind == "exponent":
        num = dict(cf.num.coeffs)
        e = rng.choice(sorted(num))
        n = num.pop(e)
        num[e + 1] = num.get(e + 1, 0) + n
        changed = MCoeff.make(LaurentPoly.from_dict(num), cf.den_pow)
    else:
        step = 1 if cf.den_pow == 0 or rng.random() < 0.5 else -1
        changed = MCoeff.make(cf.num, cf.den_pow + step)
    delta = MClass({sym: changed}) - MClass({sym: cf})
    return s + ZSeries.term(delta, beta, ds)


def series_pair(rng: random.Random) -> tuple[ZSeries, ZSeries, bool]:
    """Two series on one to three symbols and whether they are equal.

    Equal pairs re-group one side, or add and take away a series; unequal
    ones re-group a mutated copy.  Both sides often share terms."""
    atoms = rng.sample(["A", "B", "C"], rng.randint(1, 3))
    symbols = atoms + (["*".join(atoms[:2])] if len(atoms) > 1 and rng.random() < 0.5 else [])
    s = random_series(rng, symbols)
    shared = random_series(rng, symbols) if rng.random() < 0.7 else ZSeries.zero()
    if rng.random() < 0.5:
        if rng.random() < 0.25:
            t = random_series(rng, symbols)
            return s + t - t, s, True
        return regroup(s, rng) + shared, s + shared, True
    return regroup(mutate(s, rng), rng) + shared, s + shared, False


# ---------------------------------------------------------------------------
# Random sncd data and fan models.


def random_sncd(
    rng: random.Random,
    max_components: int = 4,
    all_strata: bool = True,
    with_nu: bool = False,
) -> SncdData:
    k = rng.randint(1, max_components)
    comps = []
    for i in range(k):
        comps.append(
            SncdComponent(
                id=f"c{i}",
                N=rng.randint(1, 4),
                mu=rng.randint(-3, 3),
                nu=rng.randint(1, 5) if with_nu else None,
            )
        )
    ids = [c.id for c in comps]
    subsets = []
    for mask in range(1, 2**k):
        subsets.append(frozenset(ids[i] for i in range(k) if mask >> i & 1))
    if not all_strata:
        keep = [s for s in subsets if rng.random() < 0.7]
        subsets = keep or subsets[:1]
    strata = tuple((s, "E" + "".join(sorted(x[1:] for x in s))) for s in subsets)
    return SncdData(rng.randint(0, 3), tuple(comps), strata)


def random_fan_model(rng: random.Random, rank: int, horizontals: bool = False) -> FanModel:
    """Random validated fan model on a subdivision of the orthant.

    Weights carry an explicit (L-1)^(dim-1) factor so that expansion
    coefficients stay pole-free at L = 1.  With ``horizontals`` the last
    coordinate's e-entry is zero and its a-entry one.
    """
    n = rank
    orthant = cone_from_rays(n, [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)])
    k = complex_from_cones(n, [orthant])
    for _ in range(rng.randint(0, 2)):
        v = tuple(rng.randint(0, 2) for _ in range(n))
        if is_zero_vec(v) or k.support_cell(v) is None:
            continue
        k = star_subdivision(k, v)
    if horizontals:
        e_vec = tuple(rng.randint(1, 4) for _ in range(n - 1)) + (0,)
        a_vec = tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (1,)
    else:
        e_vec = tuple(rng.randint(1, 4) for _ in range(n))
        a_vec = tuple(rng.randint(-3, 3) for _ in range(n))
    weights = {}
    for i, cell in enumerate(k.cells):
        if cell.dim == 0:
            continue
        if rng.random() < 0.85:
            weights[cell] = MClass.symbol(f"U{i}").mul_l1_pow(cell.dim - 1)
    e_vecs = {mc: e_vec for mc in k.maximal_cells()}
    a_vecs = {mc: a_vec for mc in k.maximal_cells()}
    return FanModel(k, e_vecs, a_vecs, weights)


def brute_fan_sum(model: FanModel, m: int, degree: int) -> list[MClass]:
    """Coefficients T^1..T^degree of ``fan_poincare(model, m)``, by enumeration.

    Every lattice point ``u`` of each maximal cell with ``1 <= e(u) <= degree``
    is assigned to the cell whose relative interior contains it and adds that
    cell's weight times ``L^{-a(u)}`` at ``T^{e(u)}``, with ``e`` and ``a``
    read from a maximal cell whose facet inequalities enumerated ``u``.  Needs
    ``e`` positive off the origin (no horizontal rays), so the enumeration is
    finite.
    """
    n = model.complex.ambient_rank
    owner = {}
    for mc in model.complex.maximal_cells():
        e = model.e_vecs[mc]
        ineqs = [(0, f) for f in mc.facets] + [(degree, vec_scale(-1, e))]
        for u in affine_lattice_points(n, ineqs):
            owner.setdefault(u, mc)
    out = [MClass.zero() for _ in range(degree)]
    for u, mc in owner.items():
        cell = next(c for c in model.complex.cells if c.relint_contains(u))
        d = dot(model.e_vecs[mc], u)
        if d >= 1:
            out[d - 1] = out[d - 1] + model.weight(cell).scale_l(-dot(model.a_vecs[mc], u))
    return [c.scale_l(-m) for c in out]


# ---------------------------------------------------------------------------
# Newton oracles.


def random_support(rng: random.Random, n: int, max_points: int = 6, max_coord: int = 5):
    pts = set()
    for _ in range(rng.randint(1, max_points)):
        w = tuple(rng.randint(0, max_coord) for _ in range(n))
        if not is_zero_vec(w):
            pts.add(w)
    if not pts:
        pts.add(tuple(1 for _ in range(n)))
    return NewtonInput(n, tuple(sorted(pts)))


def support_box_points(inp: NewtonInput) -> int:
    """The box points the face table of ``inp`` enumerates, which count
    against ``series.CONE_SUM_MAX_BOX_POINTS``: those of the pieces of the
    relative interior of every record's normal cone."""
    return sum(
        p.box_count()
        for rec in newton_polyhedron(inp)
        for p in _relint_pieces(inp.n, rec.normal_rays, rec.normal_incidence, inp.n - rec.dim_face)
    )


def _minimised_face(support, u: Vec) -> tuple[frozenset, frozenset]:
    """The face of the Newton polyhedron on which ``<u, .>`` is least, for
    ``u >= 0``: conv(A) + cone(e_i : u_i = 0), with A the support points of
    least value.  Returned as (A, {i : u_i = 0})."""
    values = [dot(u, w) for w in support]
    low = min(values)
    return (
        frozenset(w for w, v in zip(support, values) if v == low),
        frozenset(i for i, x in enumerate(u) if x == 0),
    )


def brute_newton_faces(inp: NewtonInput, records, box: int) -> list[str]:
    """Problems with the face records of a Newton polyhedron, from the
    definition and without the cone kernel.

    A form ``u >= 0`` lies in the relative interior of the normal cone of the
    face it minimises, and of no other.  A record's face is read off the sum
    of its normal-cone rays, which lies in that relative interior; it must
    have the record's support points and dimension.  Then every test point
    (the box {0..box}^n, every normal ray, every ray sum) must minimise the
    face of exactly one record.
    """
    n, support = inp.n, list(inp.support)
    problems: list[str] = []
    owner: dict[tuple[frozenset, frozenset], list[str]] = {}
    points: list[Vec] = list(itertools.product(range(box + 1), repeat=n))
    for rec in records:
        rays = rec.normal_cone_closure.rays
        total = tuple(sum(col) for col in zip(*rays)) if rays else (0,) * n
        face = _minimised_face(support, total)
        owner.setdefault(face, []).append(rec.face_id)
        points += [total, *rays]
        if face[0] != rec.argmin_support:
            problems.append(f"{rec.face_id}: ray sum {total} minimises {sorted(face[0])}")
        a0 = min(face[0])
        span = [vec_add(w, vec_scale(-1, a0)) for w in face[0] if w != a0]
        span += [tuple(1 if j == i else 0 for j in range(n)) for i in face[1]]
        dim = rank(span) if span else 0
        if dim != rec.dim_face:
            problems.append(f"{rec.face_id}: face of dimension {dim}, recorded {rec.dim_face}")
    for u in points:
        ids = owner.get(_minimised_face(support, u), [])
        if len(ids) != 1:
            problems.append(f"{u} is in the relative interior of {len(ids)} normal cones {ids}")
    return problems


def section_product_terms(inp: NewtonInput) -> list[ZSeries]:
    """The per-face terms of the Newton zeta function, each built as the
    product of the kernel's series with the face's section
    ``[X_tau(0)]·L^{-1}T/(1-L^{-1}T) + [X_tau(1)]`` in the series ring."""
    sigma = (1,) * inp.n
    jet_factor = ZSeries.term(MClass.l_power(-1), 1, [(-1, 1)])
    out = []
    for rec in newton_polyhedron(inp):
        section = jet_factor * ZSeries.term(MClass.symbol(f"X_tau(0)@{rec.face_id}"), 0)
        if any(rec.m_of(r) != 0 for r in rec.normal_cone_closure.rays):
            section = section + ZSeries.term(MClass.symbol(f"X_tau(1)@{rec.face_id}"), 0)
        out.append(per_call_relint_cone_sum(rec.normal_cone_closure, rec.m_witness, sigma, MClass.one()) * section)
    return out


def newton_expand_oracle(inp: NewtonInput, degree: int, lcut: int) -> list[MClass]:
    """Coefficients T^1..T^degree of the zeta function by direct enumeration,
    exact for Laurent monomials of L-degree >= -lcut.

    Every u in the orthant with sigma(u) <= lcut is assigned to its face (the
    record whose normal cone's relative interior contains it); it contributes
    the unit-section class at T^{m(u)} and the jet classes at T^{m(u)+k}.
    Points beyond the sigma cut only touch L-degrees below -lcut.
    """
    records = newton_polyhedron(inp)
    out = [MClass.zero() for _ in range(degree)]
    n = inp.n
    ineqs = [
        (0, tuple(1 if j == i else 0 for j in range(n))) for i in range(n)
    ] + [(lcut, tuple(-1 for _ in range(n)))]
    for u in affine_lattice_points(n, ineqs):
        rec = next(
            r for r in records if r.normal_cone_closure.relint_contains(u)
        )
        m = rec.m_of(u)
        sigma = sum(u)
        if 1 <= m <= degree:
            out[m - 1] = out[m - 1] + MClass.symbol(f"X_tau(1)@{rec.face_id}").scale_l(-sigma)
        k = 1
        while m + k <= degree:
            out[m + k - 1] = out[m + k - 1] + MClass.symbol(
                f"X_tau(0)@{rec.face_id}"
            ).scale_l(-sigma - k)
            k += 1
    return [truncate_l_below(c, -lcut) for c in out]
