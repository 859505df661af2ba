"""Rational polyhedral cones and cone complexes, exact over the integers.

A :class:`Cone` carries both descriptions at once: a canonical list of
primitive generators (``rays``) and a canonical list of primitive inward
normals (``facets``).  A cone whose lineality space is nonzero lists a pair
``v, -v`` of generators for each line direction; likewise a cone that is not
full dimensional lists complementary ``u, -u`` pairs among its facets, so
``dual_cone`` is literally the swap of the two lists.

The double description computation is done from scratch with incremental
halfspace insertion; everything downstream (faces, subdivision, resolution,
half-open simplicial decomposition, fundamental-parallelepiped enumeration)
is built on it.  :func:`cone_from_rays` runs it once, for the facets, and
reads the canonical rays of a pointed cone off the incidence of its input
rays with those facets: an input ray is extreme exactly when no other one
is tight on every facet it is tight on.  That rests on two facts: a face is
generated by the generators it contains, so a cone with lines has an input
ray that lies on every facet; and the facets tight at a point cut out the
smallest face containing it.  Only a cone with lines takes a second run,
since its line basis is not fixed by the input.  :func:`cone_from_facets`
is the dual of :func:`cone_from_rays` on the normals.  Faces and the
pulling triangulation are read off the ray/facet incidence as bitmasks
(:func:`_face_lattice`); only :func:`faces` turns masks back into cones.  A
:class:`ConeComplex` answers every containment question from one table of
masks over its cells, one per vector asked about: a cone lies in a cell
exactly when each of its rays does, so the cells containing a cone are the
meet of its rays' masks.  Its cells are sorted when it is built, so the
lowest cell of a mask is a smallest one, however the cells were given.
The half-open pieces of a cone's relative interior depend on the cone
alone, so a bounded table keeps them per cone (:func:`_relint_pieces`), and
each piece takes the Smith form its box points are enumerated from once,
when built, never keeping the points themselves.  Intended scale is small
ambient rank and a few dozen rays.

A star subdivision of a valid complex is a valid complex refining it with
the same support, so :func:`star_subdivision`, and through it
:func:`resolve_complex`, certifies what it builds from a valid complex: the
result's verdict is set clean, and it holds its root complex (the first
uncertified one of the chain) and the carrier of each of its cells there.
:func:`_carriers`, behind :func:`check_subdivision` and
``transport_subdivide``, reads those carriers only when asked about that
very root object; a complex built any other way, or an equal copy, is
checked in full.  The carriers read are the cells the general path returns,
so no printed output depends on which path ran.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Literal, Optional, Sequence

from .intlin import (
    Mat,
    Vec,
    _gauss_jordan,
    content_primitive,
    det,
    dot,
    from_columns,
    is_zero_vec,
    mat_vec,
    smith_normal_form,
    span_lattice,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)


class LinealityError(ValueError):
    """Raised when an operation requires a strictly convex cone."""


def primitive(v: Vec) -> Vec:
    g, p = content_primitive(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return p


# ---------------------------------------------------------------------------
# Double description.

_Ray = tuple[Vec, frozenset]


def _dd_insert(lines: list[Vec], rays: list[_Ray], u: Vec, idx: int) -> tuple[list[Vec], list[_Ray]]:
    """Intersect the cone generated by (lines, rays) with {x : <u,x> >= 0}.

    Each ray carries the set of previously inserted inequality indices it is
    tight on; lines are tight on all of them by construction.
    """
    # Case A: some line pairs nontrivially with u; that line folds into a ray.
    pivot_at = next((i for i, l in enumerate(lines) if dot(u, l) != 0), None)
    if pivot_at is not None:
        pivot = lines[pivot_at]
        d0 = dot(u, pivot)
        if d0 < 0:
            pivot = vec_scale(-1, pivot)
            d0 = -d0
        new_lines = []
        for i, l in enumerate(lines):
            if i == pivot_at:
                continue
            dl = dot(u, l)
            new_lines.append(primitive(vec_sub(vec_scale(d0, l), vec_scale(dl, pivot))))
        new_rays: list[_Ray] = []
        for r, tight in rays:
            dr = dot(u, r)
            rr = vec_sub(vec_scale(d0, r), vec_scale(dr, pivot))
            new_rays.append((primitive(rr), tight | {idx}))
        new_rays.append((primitive(pivot), frozenset(range(idx))))
        return new_lines, new_rays

    plus = [(r, t) for r, t in rays if dot(u, r) > 0]
    zero = [(r, t | {idx}) for r, t in rays if dot(u, r) == 0]
    minus = [(r, t) for r, t in rays if dot(u, r) < 0]
    if not minus:
        return lines, plus + zero
    out = plus + zero
    for (rp, tp), (rm, tm) in itertools.product(plus, minus):
        common = tp & tm
        if any(t >= common for r, t in rays if r != rp and r != rm):
            continue  # rp, rm not adjacent
        w = vec_add(vec_scale(dot(u, rp), rm), vec_scale(-dot(u, rm), rp))
        if not is_zero_vec(w):
            out.append((primitive(w), common | {idx}))
    return lines, out


def _dd_generators(n: int, ineqs: Sequence[Vec]) -> tuple[Vec, ...]:
    """Canonical generators of {x in R^n : <u,x> >= 0 for all u}: the pointed
    rays and both directions of each line, sorted."""
    lines: list[Vec] = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays: list[_Ray] = []
    clean = [u for u in ineqs if not is_zero_vec(u)]
    for idx, u in enumerate(clean):
        lines, rays = _dd_insert(lines, rays, u, idx)
    return tuple(sorted({r for r, _ in rays} | set(lines) | {vec_scale(-1, l) for l in lines}))


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone with canonical ray and facet descriptions."""

    ambient_rank: int
    rays: tuple[Vec, ...]
    facets: tuple[Vec, ...]

    def __post_init__(self):
        # the generated hash, taken once: cones key the face cache and every
        # incidence table, and a frozen cone's fields never change
        object.__setattr__(self, "_hash", hash((self.ambient_rank, self.rays, self.facets)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        """The ambient rank minus the codimension, which is the number of
        span-cutting ``u, -u`` facet pairs."""
        facetset = set(self.facets)
        pairs = sum(1 for u in self.facets if vec_scale(-1, u) in facetset) // 2
        return self.ambient_rank - pairs

    def lineality(self) -> list[Vec]:
        """One representative per line direction contained in the cone."""
        rayset = set(self.rays)
        return [r for r in self.rays if vec_scale(-1, r) in rayset and r > vec_scale(-1, r)]

    def pointed_rays(self) -> list[Vec]:
        rayset = set(self.rays)
        return [r for r in self.rays if vec_scale(-1, r) not in rayset]

    def is_strictly_convex(self) -> bool:
        return not self.lineality()

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        return all(dot(u, v) >= 0 for u in self.facets)

    def relint_contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        facetset = set(self.facets)
        for u in self.facets:
            val = dot(u, v)
            if vec_scale(-1, u) in facetset:
                if val != 0:  # span-cutting pair: v must lie on the hyperplane
                    return False
            elif val <= 0:
                return False
        return True

    def is_smooth(self) -> bool:
        """Rays form part of a basis of the ambient lattice."""
        if not self.is_strictly_convex():
            return False
        rays = self.pointed_rays()
        if len(rays) != self.dim:
            return False
        if not rays:
            return True
        s, _, _ = smith_normal_form(from_columns(rays))
        return all(s[i][i] == 1 for i in range(min(len(s), len(s[0]))))

    def _key(self) -> tuple:
        return (self.dim, self.rays, self.facets)

    def __str__(self) -> str:
        return f"Cone(rank {self.ambient_rank}, rays {list(self.rays)})"


def cone_from_rays(ambient_rank: int, rays: Sequence[Vec]) -> Cone:
    """Canonical cone generated by ``rays`` (possibly redundant, any sign).

    One double description gives the facets; the canonical rays are then
    read off the ray/facet incidence of the input.  Two facts make that
    exact.  A face of a cone is generated by the generators it contains, so
    a nonzero lineality space (the minimal face) contains a generator, and
    that generator is tight on every facet.  When none is, the cone is
    pointed, and a generator ``r`` spans an extreme ray exactly when no other
    primitive generator is tight on all the facets ``r`` is tight on: those
    facets cut out the smallest face containing ``r``, and a face of
    dimension two or more holds a second generator (Ziegler, *Lectures on
    Polytopes*, §1-2; Fukuda & Prodon, "Double description method
    revisited", 1996).  A cone with lines takes a second double description,
    because its line basis is not fixed by the input.
    """
    for r in rays:
        if len(r) != ambient_rank:
            raise ValueError("dimension mismatch")
    prims = [primitive(r) for r in rays if not is_zero_vec(r)]
    facets = _dd_generators(ambient_rank, prims)
    tight = {r: sum(1 << j for j, u in enumerate(facets) if dot(u, r) == 0) for r in prims}
    if (1 << len(facets)) - 1 in tight.values():
        return Cone(ambient_rank, _dd_generators(ambient_rank, facets), facets)
    extreme = [
        r for r, m in tight.items() if not any(o != r and mo & m == m for o, mo in tight.items())
    ]
    return Cone(ambient_rank, tuple(sorted(extreme)), facets)


def cone_from_facets(ambient_rank: int, facets: Sequence[Vec]) -> Cone:
    """Canonical cone cut out by the inward normals ``facets`` (possibly
    redundant): the dual of the cone they generate (Fukuda & Prodon, "Double
    description method revisited", 1996)."""
    return dual_cone(cone_from_rays(ambient_rank, facets))


def dual_cone(c: Cone) -> Cone:
    return Cone(c.ambient_rank, c.facets, c.rays)


def cone_intersection(c1: Cone, c2: Cone) -> Cone:
    if c1.ambient_rank != c2.ambient_rank:
        raise ValueError("dimension mismatch")
    return cone_from_facets(c1.ambient_rank, list(c1.facets) + list(c2.facets))


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, increasing."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _incidence(c: Cone) -> tuple[int, ...]:
    """One ray mask per facet of ``c``: bit ``i`` is set when ``c.rays[i]``
    lies on the facet (lines lie on all; a span-cutting facet holds all)."""
    return tuple(sum(1 << i for i, r in enumerate(c.rays) if dot(u, r) == 0) for u in c.facets)


def _face_lattice(c: Cone) -> tuple[tuple[int, ...], set[int]]:
    """The incidence of ``c`` and the ray masks of all its faces: the closure
    of the facet masks under intersection, from all rays (``c`` itself) down
    (Ziegler, *Lectures on Polytopes*, §2.1)."""
    on_facet = _incidence(c)
    seen: set[int] = set()
    queue = [(1 << len(c.rays)) - 1]
    while queue:
        g = queue.pop()
        if g in seen:
            continue
        seen.add(g)
        queue.extend(g & m for m in on_facet if g & m not in seen)
    return on_facet, seen


@lru_cache(maxsize=None)
def faces(c: Cone) -> tuple[Cone, ...]:
    """All faces of ``c``, including ``c`` itself and the minimal face."""
    _, lattice = _face_lattice(c)
    out = [cone_from_rays(c.ambient_rank, [c.rays[i] for i in _bits(g)]) for g in lattice]
    return tuple(sorted(out, key=Cone._key))


# ---------------------------------------------------------------------------
# Cone complexes.


@dataclass(frozen=True)
class ConeComplex:
    """Finite collection of cones closed under taking faces.

    The constructor sorts ``cells`` by :meth:`Cone._key`, dimension first,
    so the first cell in order that contains a vector or a cone is a
    smallest one, however the cells were given.  It rejects a cell of
    another ambient rank; the complex axioms are :meth:`validate`'s verdict.
    """

    ambient_rank: int
    cells: tuple[Cone, ...]

    def __post_init__(self):
        if any(c.ambient_rank != self.ambient_rank for c in self.cells):
            raise ValueError("dimension mismatch")
        object.__setattr__(self, "cells", tuple(sorted(self.cells, key=Cone._key)))

    # Set by star_subdivision on the refinements it builds of a valid
    # complex: (root, carriers), the carrier of each cell in the root
    # complex, in cell order.  Not a field, so not part of == or hash.
    _certificate = None

    @cached_property
    def _masks(self) -> dict[Vec, int]:
        """Each vector asked about so far -> the cells containing it, bit
        ``i`` standing for ``cells[i]``; filled by :meth:`_mask`."""
        return {}

    def _mask(self, v: Vec) -> int:
        """The cells containing the vector ``v``, as a bitmask."""
        masks = self._masks
        if v not in masks:
            masks[v] = sum(1 << i for i, c in enumerate(self.cells) if c.contains(v))
        return masks[v]

    def _containing(self, cone: Cone) -> int:
        """The cells containing ``cone``, as a bitmask: a cone lies in a cell
        exactly when each of its rays does, and the zero cone lies in all."""
        mask = (1 << len(self.cells)) - 1
        for r in cone.rays:
            mask &= self._mask(r)
        return mask

    def maximal_cells(self) -> tuple[Cone, ...]:
        """Cells contained in no other cell, in cell order."""
        return self._maximal_cells

    @cached_property
    def _maximal_cells(self) -> tuple[Cone, ...]:
        # A cell is maximal when every cell containing it equals it, so a
        # cell given twice keeps both copies.
        copies: dict[Cone, int] = {}
        for i, c in enumerate(self.cells):
            copies[c] = copies.get(c, 0) | 1 << i
        return tuple(c for c in self.cells if not self._containing(c) & ~copies[c])

    def owners(self, cell: Cone) -> tuple[Cone, ...]:
        """The maximal cells containing ``cell``, a cell of the complex, in
        cell order."""
        return self._owners[cell]

    @cached_property
    def _owners(self) -> dict[Cone, tuple[Cone, ...]]:
        maximal = set(self.maximal_cells())
        top = sum(1 << i for i, c in enumerate(self.cells) if c in maximal)
        return {c: tuple(self.cells[i] for i in _bits(self._containing(c) & top)) for c in self.cells}

    def support_cell(self, v: Vec) -> Optional[Cone]:
        """A smallest cell containing ``v``, or None if outside the support."""
        return self._first(self._mask(v))

    def smallest_containing(self, other: Cone) -> Optional[Cone]:
        """A smallest cell containing ``other`` (the first in cell order), or None."""
        return self._first(self._containing(other))

    def _first(self, mask: int) -> Optional[Cone]:
        """The first cell in ``mask``, or None when it is empty."""
        return self.cells[(mask & -mask).bit_length() - 1] if mask else None

    def validate(self) -> list[str]:
        """Diagnostics for the complex axioms (empty list when valid).

        Every pair of cells meets in a common face as soon as every cell is a
        face of a maximal cell and the maximal cells meet pairwise in common
        faces: for faces c1 of M1 and c2 of M2, both c1 ∩ F and c2 ∩ F are
        faces of F = M1 ∩ M2, and c1 ∩ c2 is their intersection, hence a face
        of each.  Only when that certificate fails is every pair of cells
        intersected, to list each offending pair.  The complex and its cells
        are immutable, so the diagnostics are worked out once per complex.
        """
        return list(self._problems)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        problems = []
        cellset = set(self.cells)
        for c in self.cells:
            for f in faces(c):
                if f not in cellset:
                    problems.append(f"missing face {f} of {c}")
        maximal = self.maximal_cells()
        if cellset <= {f for m in maximal for f in faces(m)} and all(
            _meet_in_common_face(m1, m2) for m1, m2 in itertools.combinations(maximal, 2)
        ):
            return tuple(problems)
        for c1, c2 in itertools.combinations(self.cells, 2):
            if not _meet_in_common_face(c1, c2):
                problems.append(f"{c1} and {c2} do not meet in a common face")
        return tuple(problems)


def _meet_in_common_face(c1: Cone, c2: Cone) -> bool:
    """Whether ``c1 ∩ c2`` is a face of both, by one double description: every
    shared face lies in the meet, and a meet that is a common face contains
    them all, so it is one exactly when its generators lie in the largest."""
    shared = set(faces(c1)) & set(faces(c2))
    if not shared:
        return False
    top = max(shared, key=Cone._key)
    return all(top.contains(g) for g in _dd_generators(c1.ambient_rank, c1.facets + c2.facets))


def complex_from_cones(ambient_rank: int, cones: Sequence[Cone]) -> ConeComplex:
    """The cones and all their faces, as cells; whether they make up a
    complex is :meth:`ConeComplex.validate`'s verdict."""
    return ConeComplex(ambient_rank, tuple({f for c in cones for f in faces(c)}))


def star_subdivision(k: ConeComplex, rho: Vec) -> ConeComplex:
    """Star subdivision of the complex at the primitive lattice point ``rho``.

    Raises :class:`LinealityError` when ``rho`` lies in the lineality space of
    a cell: every face of that cell contains ``rho``, so nothing would
    replace it.

    When ``k`` is a valid complex, so is the result, refining ``k`` with the
    same support (Cox, Little & Schenck, *Toric Varieties*, §11.1): its
    verdict is set clean and it is certified with the carrier of each cell
    in the root complex, ``k`` or the root of ``k``'s own certificate.  A
    cell that misses ``rho`` is its own carrier.  A new cell ``g + rho`` is
    carried by the first cell of ``k`` it is built in: in a valid complex
    every cell containing it holds ``rho`` and has ``g`` as a face, so it
    builds ``g + rho`` too.  The cells are closed under faces already: a
    face of ``g + rho`` is a face ``g'`` of ``g``, or ``g' + rho``, since
    ``rho`` lies outside the span of the face ``g`` of a cell holding it.
    """
    rho = primitive(rho)
    if k.support_cell(rho) is None:
        raise ValueError("subdivision point outside the support")
    holding = k._mask(rho)
    built_in: dict[Cone, Cone] = {}  # each new cell -> the first old cell it is built in
    for i, c in enumerate(k.cells):
        if not holding >> i & 1:
            built_in[c] = c
            continue
        if c.contains(vec_scale(-1, rho)):
            raise LinealityError("subdivision point in the lineality space of a cell")
        for g in faces(c):
            if not g.contains(rho):
                built_in.setdefault(cone_from_rays(k.ambient_rank, list(g.rays) + [rho]), c)
    if k._problems:
        return complex_from_cones(k.ambient_rank, list(built_in))
    kp = ConeComplex(k.ambient_rank, tuple(built_in))
    root, carriers = k, tuple(built_in[c] for c in kp.cells)
    if k._certificate is not None:
        root, through = k._certificate
        up = dict(zip(k.cells, through))
        carriers = tuple(up[c] for c in carriers)
    vars(kp).update(_problems=(), _certificate=(root, carriers))
    return kp


def _interior_dual(c: Cone) -> Vec:
    """A lattice functional strictly positive on ``c`` minus the origin."""
    if not c.is_strictly_convex():
        raise LinealityError("strictly convex cone required")
    total = zero_vec(c.ambient_rank)
    for r in dual_cone(c).pointed_rays():
        total = vec_add(total, r)
    return total


def _volume_sum(cells: Sequence[Cone], ell: Vec, proj: Sequence[Vec]) -> Fraction:
    """Sum of normalized volumes of ``cell ∩ {<ell,x> <= 1}`` over ``cells``.

    ``proj`` maps the saturated span lattice all cells live in onto Z^r.
    """
    total = Fraction(0)
    for c in cells:
        for piece in _triangulate(c):
            vol = Fraction(abs(det(tuple(mat_vec(proj, r) for r in piece))))
            for r in piece:
                vol /= dot(ell, r)
            total += vol
    return total


def check_subdivision(kp: ConeComplex, k: ConeComplex) -> bool:
    """Whether ``kp`` refines ``k`` with identical support."""
    return _carriers(kp, k) is not None


def _carriers(kp: ConeComplex, k: ConeComplex) -> Optional[list[Cone]]:
    """The carrier of each cell of ``kp`` in cell order, the smallest cell of
    ``k`` containing it, when ``kp`` refines ``k`` with identical support;
    None otherwise.

    A refinement :func:`star_subdivision` built from ``k`` itself (by
    identity) reads its certificate, and a valid ``k`` carries itself; any
    other pair, an equal copy too, takes the mask meets and the volume test."""
    if kp.ambient_rank != k.ambient_rank:
        raise ValueError("dimension mismatch")
    if kp._certificate is not None and kp._certificate[0] is k:
        return list(kp._certificate[1])
    if kp is k and not k._problems:
        return list(k.cells)
    carriers = [k.smallest_containing(c) for c in kp.cells]
    if None in carriers:
        return None
    # Supports agree iff every maximal cell of k is exactly filled by the
    # kp-cells inside it; containment plus exact volume equality decides it.
    # In a complex, the kp-cells of its dimension inside it are those it
    # carries.
    for big in k.maximal_cells():
        if big.dim == 0:
            continue
        ell = _interior_dual(big)
        _, proj, _ = span_lattice(big.rays, big.ambient_rank)
        inside = [c for c, o in zip(kp.cells, carriers) if o == big and c.dim == big.dim]
        if _volume_sum(inside, ell, proj) != _volume_sum([big], ell, proj):
            return None
    return carriers


# ---------------------------------------------------------------------------
# Triangulation and resolution.


def _triangulate(c: Cone) -> tuple[tuple[Vec, ...], ...]:
    """Pulling triangulation into simplicial pieces using existing rays only.

    On ray masks: a face ``g`` with as many rays as its dimension is a piece;
    otherwise its first ray is pulled over each facet of ``g`` missing it, in
    ray-tuple order (De Loera, Rambau & Santos, *Triangulations*, §4.3).  The
    facets of ``g`` are the maximal proper ``g & m`` over ``c``'s facets ``m``.
    """
    if not c.is_strictly_convex():
        raise LinealityError("strictly convex cone required")
    on_facet = _incidence(c)

    def pull(g: int, dim: int) -> list[tuple[Vec, ...]]:
        idx = _bits(g)
        if len(idx) == dim:
            return [tuple(c.rays[i] for i in idx)]
        meets = {g & m for m in on_facet} - {g}
        walls = [f for f in meets if not any(f != o and f | o == o for o in meets)]
        v = c.rays[idx[0]]
        return [
            (v,) + sub
            for f in sorted((f for f in walls if not f >> idx[0] & 1), key=_bits)
            for sub in pull(f, dim - 1)
        ]

    return tuple(pull((1 << len(c.rays)) - 1, c.dim))


def _is_pyramid_apex(c: Cone, ray: Vec) -> bool:
    """Whether the rays of ``c`` other than ``ray`` make up a facet of ``c``."""
    return ((1 << len(c.rays)) - 1) ^ (1 << c.rays.index(ray)) in _incidence(c)


# Most box points one resolution may enumerate, summed over its phase-2
# steps.  Each step enumerates at least two, so this bounds the number of
# subdivisions as well.  Every seed 0-3 fan-invariance benchmark resolution
# takes at most 14; the rank-4 index-166 cone (-1,-3,-1,-2), (-1,2,2,3),
# (1,-3,-2,3), (1,-2,3,0) takes 414 over 86 subdivisions and resolves to
# 1,340 cells.  The two-ray cell [[1,0],[1,N]] takes N(N+1)/2 - 1, so it is
# refused from N = 100 on; at N = 1,000 it took 18.8 s before the bound.
RESOLVE_MAX_BOX_POINTS = 5_000


def resolve_complex(k: ConeComplex) -> ConeComplex:
    """Refine ``k`` to a complex all of whose cells are smooth.

    Cells that are smooth together with all their faces are never touched;
    the refinement has the same support and ``check_subdivision`` holds.
    Raises ``ValueError`` once the box points enumerated would pass
    :data:`RESOLVE_MAX_BOX_POINTS`.
    """
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
    singular = {c for c in k.cells if not c.is_smooth()}
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
        singular = {c for c in k.cells if c in singular or c not in old and not c.is_smooth()}


# ---------------------------------------------------------------------------
# Half-open decompositions and box points.


@dataclass(frozen=True)
class HalfOpenCone:
    """Simplicial cone with per-generator openness flags.

    The lattice point set is ``{u0 + sum_j k_j g_j : k_j >= 0}`` where ``u0``
    runs over the fundamental parallelepiped with coordinate ``j`` ranging in
    ``(0, 1]`` when ``strict[j]`` and in ``[0, 1)`` otherwise.

    The constructor's one Smith normal form of the generators decides their
    independence (as many nonzero divisors as generators) and is kept as the
    frame :func:`box_points` enumerates: the divisors ``d_j`` and the step
    rows ``V @ diag(D/d_j)``, ``D`` the last divisor.
    """

    ambient_rank: int
    gens: tuple[Vec, ...]
    strict: tuple[bool, ...]

    def __post_init__(self):
        if len(self.gens) != len(self.strict):
            raise ValueError("one openness flag per generator required")
        if not self.gens:
            return
        s, _, v = smith_normal_form(from_columns(self.gens))
        divisors = tuple(row[i] for i, row in enumerate(s[: len(self.gens)]))
        if len(divisors) < len(self.gens) or 0 in divisors:
            raise ValueError("generators must be linearly independent")
        big = divisors[-1]
        steps = tuple(tuple(x * (big // d) for x, d in zip(row, divisors)) for row in v)
        object.__setattr__(self, "_frame", (divisors, steps))

    def box_count(self) -> int:
        """The number of box points: the product of the Smith divisors, and
        1 for a piece without generators."""
        return math.prod(self._frame[0]) if self.gens else 1


def triangulate_half_open(
    c: Cone, region: Literal["relint", "closed"] = "relint"
) -> list[HalfOpenCone]:
    """Partition the lattice points of a region of ``c`` into half-open cones.

    ``region`` selects the relative interior or the closed cone.  Generators
    of every piece are rays of ``c``; the openness flags implement the
    disjointness (walls counted once, boundary excluded for ``relint``).
    The construction is deterministic: pulling triangulation on the
    canonically ordered rays, and the wall opposite generator ``g_j`` open
    exactly when the witness ``s*(r1 + ... + rm) + eps*s*r1 + eps^2*s*r2 +
    ...`` (``s = 1`` for ``closed``, ``-1`` for ``relint``; ``eps > 0``
    infinitesimal) has a negative ``g_j``-coordinate (Köppe & Verdoolaege,
    Electron. J. Combin. 15, 2008, Thm. 3).  Row ``j`` of one fraction-free
    elimination of ``[gens | rays of c]`` holds ``d * x_j(r)`` for each ray
    ``r``, ``d`` the last pivot.  A wall in a facet of ``c`` has every
    ``x_j(r) >= 0``, so it is open for ``relint`` and closed for ``closed``.
    """
    if region not in ("relint", "closed"):
        raise ValueError("region must be 'relint' or 'closed'")
    if not c.is_strictly_convex():
        raise LinealityError("strictly convex cone required")
    s = 1 if region == "closed" else -1
    out = []
    for gens in _triangulate(c):
        k = len(gens)
        rows, _, d, _ = _gauss_jordan(list(zip(*gens, *c.rays)), k)
        flags = []
        for row in rows[:k]:
            x = next(v for v in (sum(row[k:]), *row[k:]) if v)
            flags.append(s * x * d < 0)
        out.append(HalfOpenCone(c.ambient_rank, gens, tuple(flags)))
    return out


# Distinct cells kept by _reduce_to_span, set by measurement: a model, its
# star subdivision and its resolution share most cells, and over the 400
# seed-0 fan-invariance inputs (689 distinct cells) 256 entries miss 986 of
# 8,968 lookups, 128 entries 1,580, at a peak RSS of 31.0 MB against 30.7
# MB keeping none.
_SPAN_TABLE_SIZE = 256


@lru_cache(maxsize=_SPAN_TABLE_SIZE)
def _reduce_to_span(cone: Cone) -> tuple[Cone, tuple[Vec, ...], Mat]:
    """Express a pointed cone in coordinates of its saturated span lattice.

    Returns the full-dimensional cone, the lattice basis and the projection
    (d rows of the ambient rank's length, integer on the span lattice and
    surjective onto Z^d).  The
    projection is a lattice isomorphism of the span, so the reduced cone
    needs no double description: its rays are the coordinates of the cone's
    rays, and its facets the primitive restrictions to the basis of the
    cone's facets that do not vanish on the span.  The result is kept per
    cone and is made of tuples, so a caller cannot change a kept value.
    """
    span, proj, _ = span_lattice(cone.rays, cone.ambient_rank)
    rays = tuple(sorted(mat_vec(proj, r) for r in cone.rays))
    restricted = (tuple(dot(u, b) for b in span) for u in cone.facets)
    facets = tuple(sorted(primitive(u) for u in restricted if not is_zero_vec(u)))
    return Cone(len(span), rays, facets), tuple(span), proj


# Distinct cones kept by _relint_pieces, set by measurement on the seed-0
# benchmark inputs: 256 entries hold all 127 distinct reduced cells of the
# 400 fan-invariance inputs, and on the 600 newton-small inputs (2,963
# distinct normal cones) miss 5,305 of 10,364 lookups with peak RSS at
# 22.2 MB; keeping every cone misses 2,963 at 27.1 MB.  An entry holds the
# pieces and their Smith frames, never their box points.
_PIECE_TABLE_SIZE = 256


@lru_cache(maxsize=_PIECE_TABLE_SIZE)
def _relint_pieces(c: Cone) -> tuple[HalfOpenCone, ...]:
    """``triangulate_half_open(c, "relint")``, kept per cone, so each piece's
    elimination and Smith frame are worked out once however often ``c`` is
    summed over.  An exception is raised again on every call,
    since ``lru_cache`` keeps only returned values."""
    return tuple(triangulate_half_open(c, "relint"))


def box_points(h: HalfOpenCone) -> list[Vec]:
    """Lattice points of the half-open fundamental parallelepiped of ``h``.

    The count always equals the index of the generator lattice inside the
    saturated lattice of its span.  With ``G`` the generators as columns,
    ``S = U @ G @ V`` its Smith normal form and ``D`` the last divisor, the
    columns of ``G @ V`` are ``d_j`` times a basis of that saturated lattice,
    so the divisor-box vector ``c`` gives the point with parallelepiped
    coordinates ``((V @ diag(D/d_j) @ c) mod D) / D``, where a strict
    generator takes residue ``D`` in place of 0.  The divisors and the step
    rows ``V @ diag(D/d_j)`` are the piece's frame, worked out when ``h``
    is built.
    """
    if not h.gens:
        return [zero_vec(h.ambient_rank)]
    divisors, steps = h._frame
    big = divisors[-1]
    points: list[Vec] = []
    for combo in itertools.product(*[range(d) for d in divisors]):
        lam = []
        for row, strict in zip(steps, h.strict):
            x = dot(row, combo) % big
            lam.append(big if strict and x == 0 else x)
        points.append(tuple(dot(col, lam) // big for col in zip(*h.gens)))
    return points
