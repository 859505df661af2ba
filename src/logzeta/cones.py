"""Rational polyhedral cones and cone complexes, exact over the integers.

A :class:`Cone` carries both descriptions at once: a canonical list of
primitive generators (``rays``) and a canonical list of primitive inward
normals (``facets``).  A cone whose lineality space is nonzero lists a pair
``v, -v`` of generators for each line direction; likewise a cone that is not
full dimensional lists complementary ``u, -u`` pairs among its facets, so
``dual_cone`` is literally the swap of the two lists.

A cone over independent rays is simplicial, and :func:`cone_from_rays`
reads it off one fraction-free elimination of its rays: the pointed facets
are the columns of the inverse on the pivot columns, and the lines of the
facet list the reduced echelon kernel basis, which is exactly the
canonical form the double description gives.  Every other cone takes one
double description (:func:`_dd`), by incremental halfspace insertion with
no outside library, for its facets.  It keeps each ray's tight set as a
bitmask over the sorted distinct inputs and skips by rank the pairs that
cannot be adjacent, so each facet comes with the inputs lying on it, and
the canonical rays of a pointed cone are read off those masks: the cone has
lines exactly when some input lies on every facet, and an input ray is
extreme exactly when it alone lies on every facet it lies on.  That rests
on two facts: a face is generated by the generators it contains, so a cone
with lines has an input ray that lies on every facet; and the facets tight
at a point cut out the smallest face containing it.  Only a cone with lines
takes a second run, since its line basis is not fixed by the input.  The
double description and the face lattice are bounded by
:data:`DD_MAX_PAIR_TESTS` and :data:`FACE_LATTICE_MAX_FACES`, past which
they raise ``ValueError``.  :func:`cone_from_facets` is the dual of
:func:`cone_from_rays` on the normals.  What is worked out from a cone is
kept on it as a cached property, so it lives as long as the cone and needs
no table of its own: its dimension, its smoothness (one elimination for a
simplicial cone, and a Smith normal form only when the last pivot is not
±1), its ray/facet incidence and its coordinates in its saturated span
lattice.  :func:`cone_from_rays` reads a bounded table keyed by the rays as
given, so equal input returns the same immutable cone: a parsed fan model,
its face closure, its star subdivision and its resolution share one object
per cell, whose values and faces are each worked out once.  Over the
seed-0 fan-invariance pool, 8,342 calls ask for 803 distinct ray lists.
:func:`_relint_pieces` builds no cone and takes no double description: it
triangulates a non-simplicial ray tuple from the incidence and dimension
every caller hands in, the Newton face table from its face lattice, a fan
cell from its span coordinates and a monoid from its dual cone.
Faces and the pulling triangulation are read off the cone's incidence as
bitmasks (:func:`_face_lattice`, which hands each face back with the
facets holding it); only :func:`faces` turns masks back into cones.  A
:class:`ConeComplex` answers every containment question from masks over
its cells, one per vector: a cone lies in a cell exactly when each of its
rays does, so the cells containing a cone are the meet of its rays' masks.
The masks of the complex's own rays come from one table, which pairs each
distinct facet normal among the cells once with each ray; any other
vector, such as a subdivision point, takes one scan of the cells.  Its
cells are sorted when it is built, so the lowest cell of a mask is a
smallest one, however the cells were given.  :func:`complex_from_cones`
reads a bounded table keyed by the rank and the set of cells, so the
models that list equal cells share one complex, with its verdict, maximal
cells, masks and owners.  The half-open pieces of a pointed cone's
relative interior depend on its extreme rays alone, so a bounded table
keeps them per sorted ray tuple (:func:`_relint_pieces`), with the
incidence and dimension its caller hands in, which those rays fix.  A simplicial cone is one piece
with every generator strict, so it takes no triangulation.  Each piece
takes its openness flags and the Smith frame its box points are
enumerated from in one elimination, when built, never
keeping the points themselves; a piece whose elimination shows minors of
gcd 1 takes no Smith normal form at all, and its frame holds no step rows.
The cone-sum kernel pairs the points' residues on the frame, so only
:func:`resolve_complex` asks for the points as vectors (:func:`box_points`).
The resolution is one loop of star subdivisions: at a ray of the first
non-simplicial cell while there is one, then at a smallest box point of
the first cell that is not smooth.  Smoothness is a cached property of the
cone, which the cone table shares, so a cell left in place keeps its
verdict and the loop keeps no set of singular cells.
Intended scale is small ambient rank and a few dozen rays.

A star subdivision of a valid complex is a valid complex refining it with
the same support, so :func:`star_subdivision`, and through it
:func:`resolve_complex`, certifies what it builds from a valid complex: the
result's verdict is set clean, and it holds its root complex (the first
uncertified one of the chain) and the carrier of each of its cells there.
:func:`_carriers`, behind :func:`check_subdivision` and
``transport_subdivide``, reads those carriers only when asked about that
very root object; a complex built any other way, or an equal copy, is
checked in full.  The carriers read are the cells the general path
returns, so no printed output depends on which path ran.  Being certified
proves a complex valid, so ``transport_subdivide`` hands a model's verdict
on along any certified refinement whose carriers it finds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import and_
from typing import Iterator, Literal, Optional, Sequence

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

# Most plus/minus ray pairs one double description may weigh, summed over
# its insertions; each pair costs about 0.26 us when the rank skips it
# (2-vCPU Xeon, Python 3.11).  In one run the seed-0 benchmark pools weigh
# at most 47 pairs, scripts/data 2, the Tier-1 suite (its bound tests
# aside) 8,699, and 40 random points of N^6 with coordinates 0-4 (a lifted
# cone of 46 generators in rank 7) 5,437.  k points of N^6 near a sphere,
# round(30 - 30 v/|v|) for v a vector of absolute Gaussians, weigh 152,892
# at k = 20, 2,093,285 at k = 40 (0.6 s) and 15,526,984 at k = 80 (4.0 s),
# which is refused after about 1.3 s.
DD_MAX_PAIR_TESTS = 5_000_000


def _dd(n: int, ineqs: Sequence[Vec]) -> tuple[list[Vec], list[tuple[Vec, int]]]:
    """The cone ``{x in R^n : <u,x> >= 0 for all u in ineqs}`` as its lines
    and its rays, by incremental halfspace insertion (Fukuda & Prodon,
    "Double description method revisited", 1996).

    The distinct nonzero inequalities are inserted in sorted order, and each
    ray carries its tight set as a bitmask: bit ``i`` is set exactly when the
    ray lies on the ``i``-th of them; the lines lie on all.  A line that
    pairs nontrivially with the next inequality folds into a ray.  Otherwise
    the rays on its negative side are dropped, and each adjacent plus/minus
    pair gives a new ray on its hyperplane.  Two rays are adjacent when no
    third ray is tight wherever both are.  Adjacent rays span a face of
    dimension two over the lineality space, whose tight inequalities have
    rank ``n - #lines - 2``, so a pair with fewer common bits is skipped
    first.  Raises ``ValueError`` once the pairs weighed would pass
    :data:`DD_MAX_PAIR_TESTS`.
    """
    lines: list[Vec] = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays: list[tuple[Vec, int]] = []
    tests = 0
    for idx, u in enumerate(sorted({u for u in ineqs if not is_zero_vec(u)})):
        bit = 1 << idx
        # some line pairs nontrivially with u: that line folds into a ray
        at = next((i for i, l in enumerate(lines) if dot(u, l) != 0), None)
        if at is not None:
            pivot = lines.pop(at)
            d0 = dot(u, pivot)
            if d0 < 0:
                pivot, d0 = vec_scale(-1, pivot), -d0
            lines = [primitive(vec_sub(vec_scale(d0, l), vec_scale(dot(u, l), pivot))) for l in lines]
            rays = [(primitive(vec_sub(vec_scale(d0, r), vec_scale(dot(u, r), pivot))), t | bit) for r, t in rays]
            rays.append((primitive(pivot), bit - 1))
            continue
        signed = [(r, t, dot(u, r)) for r, t in rays]
        plus = [p for p in signed if p[2] > 0]
        minus = [p for p in signed if p[2] < 0]
        out = [(r, t if s > 0 else t | bit) for r, t, s in signed if s >= 0]
        tests += len(plus) * len(minus)
        if tests > DD_MAX_PAIR_TESTS:
            raise ValueError(
                f"double description weighs more than {DD_MAX_PAIR_TESTS} ray pairs; the input is too large"
            )
        need = n - len(lines) - 2
        masks = [t for _, t in rays]
        for (rp, tp, sp), (rm, tm, sm) in itertools.product(plus, minus):
            common = tp & tm
            if common.bit_count() < need or sum(t & common == common for t in masks) > 2:
                continue  # rp, rm not adjacent
            out.append((primitive(vec_sub(vec_scale(sp, rm), vec_scale(sm, rp))), common | bit))
        rays = out
    return lines, rays


def _dd_generators(n: int, ineqs: Sequence[Vec]) -> tuple[Vec, ...]:
    """Canonical generators of {x in R^n : <u,x> >= 0 for all u}: the pointed
    rays and both directions of each line, sorted."""
    lines, rays = _dd(n, ineqs)
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

    @cached_property
    def dim(self) -> int:
        """The ambient rank minus the codimension, which is the number of
        span-cutting ``u, -u`` facet pairs; worked out once per cone."""
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

    @cached_property
    def closed_piece(self) -> Optional[HalfOpenCone]:
        """The closed piece over the rays of a pointed simplicial cone, and
        None for any other cone, built once per cone: :attr:`is_smooth`
        counts its box points and :func:`resolve_complex` enumerates them,
        so a cell the resolution subdivides takes one Smith normal form."""
        if not self.is_strictly_convex() or len(self.rays) != self.dim:
            return None
        return HalfOpenCone(self.ambient_rank, self.rays, (False,) * self.dim)

    @cached_property
    def is_smooth(self) -> bool:
        """Whether the rays form part of a basis of the ambient lattice,
        worked out once per cone.

        A pointed cone with as many rays as its dimension is smooth exactly
        when the ``k × k`` minors of its rays have gcd 1 (Cox, Little &
        Schenck, *Toric Varieties*, §11.1), that is when its
        :attr:`closed_piece` has one box point.  The entries of the piece's
        elimination are such minors, so entries of gcd 1 settle it; only
        other rays take a Smith normal form.
        """
        return self.closed_piece is not None and self.closed_piece.box_count() == 1

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """One ray mask per facet, worked out once per cone: bit ``i`` is set
        when ``rays[i]`` lies on the facet (lines lie on all; a span-cutting
        facet holds all)."""
        return tuple(sum(1 << i for i, r in enumerate(self.rays) if dot(u, r) == 0) for u in self.facets)

    @cached_property
    def span_coordinates(self) -> tuple[tuple[Vec, ...], tuple[int, ...], tuple[Vec, ...], Mat]:
        """The cone in coordinates of its saturated span lattice, worked out
        once per cone: its rays there, sorted, the ray masks of its pointed
        facets over those sorted rays, sorted, the lattice basis and the
        projection (``dim`` rows of the ambient rank's length, integer on
        the span lattice and surjective onto ``Z^dim``).

        The projection is a lattice isomorphism of the span, so for a
        pointed cone the projected rays are the extreme rays of the reduced,
        full-dimensional cone, and the masks are its incidence, which the
        cone-sum kernel triangulates from.  A simplicial cone's facet ``j``
        holds every ray but the ``j``-th, in any order, so only another
        cone's masks are read off :attr:`incidence`, where a span-cutting
        facet holds every ray and a pointed one does not.  The value is
        made of tuples, so a caller cannot change it.
        """
        span, proj, _ = span_lattice(self.rays, self.ambient_rank)
        reduced = [mat_vec(proj, r) for r in self.rays]
        k = len(reduced)
        order = sorted(range(k), key=reduced.__getitem__)
        full = (1 << k) - 1
        if k == self.dim:
            on_facet = sorted(full ^ 1 << j for j in range(k))
        else:
            at = {i: 1 << j for j, i in enumerate(order)}  # ray i's bit in the sorted order
            on_facet = sorted(sum(at[i] for i in _bits(m)) for m in self.incidence if m != full)
        return tuple(reduced[i] for i in order), tuple(on_facet), tuple(span), proj

    def _key(self) -> tuple:
        return (self.dim, self.rays, self.facets)

    def __str__(self) -> str:
        return f"Cone(rank {self.ambient_rank}, rays {list(self.rays)})"


def cone_from_rays(ambient_rank: int, rays: Sequence[Vec]) -> Cone:
    """Canonical cone generated by ``rays`` (possibly redundant, any sign),
    read from the cone table keyed by the rays as given: equal input returns
    the same immutable cone, which :func:`_build_cone` builds on a miss.  A
    refused input is never kept, so it raises again on every call."""
    return _cone_table(ambient_rank, tuple(map(tuple, rays)))


def _build_cone(ambient_rank: int, rays: Sequence[Vec]) -> Cone:
    """The cone :func:`cone_from_rays` returns, built afresh.

    Independent rays span a simplicial cone, read off one fraction-free
    elimination of ``[R | I_k]``, the ``k`` distinct primitive rays as the
    rows of ``R`` in sorted order, with pivots ``p_j`` in the first ``n``
    columns (Cox, Little & Schenck, *Toric Varieties*, §1.2).  Row ``j``
    ends as ``d`` times row ``j`` of the reduced row echelon form, ``d``
    the last pivot, so its last ``k`` entries are ``d`` times row ``j`` of
    the inverse of ``R``'s pivot columns.  The pointed facet dual to ray
    ``i`` therefore carries ``sign(d) * rows[j][n + i]`` at ``p_j`` and 0
    elsewhere, and each free column ``f`` gives the line ``x_f = d``,
    ``x_{p_j} = -rows[j][f]`` of the span's orthogonal complement, listed
    with both signs.  That is the double description's canonical form: its
    line basis is the reduced echelon kernel basis of ``R``, whatever the
    input order, and its pointed facets vanish on the free columns.

    Other rays take one double description (:func:`_dd`) of the distinct
    primitive inputs for the facets, which hands each pointed facet back
    with the mask of the inputs lying on it (the facets' lines hold them
    all), and the canonical rays are read off those masks, with no further
    pairing.  Two facts make that exact.  A face of a cone is generated by
    the generators it contains, so a nonzero lineality space (the minimal
    face) contains a generator, and that generator lies on every facet: the
    cone has lines exactly when the AND of all facet masks is nonzero.
    When it is zero, the cone is pointed, and input ``i`` spans an extreme
    ray exactly when the AND of the masks of the facets it lies on is
    ``1 << i``: those facets cut out the smallest face containing it, and a
    face of dimension two or more holds a second generator (Ziegler,
    *Lectures on Polytopes*, §1-2; Fukuda & Prodon, "Double description
    method revisited", 1996).  A cone with lines takes a second double
    description, because its line basis is not fixed by the input.
    """
    for r in rays:
        if len(r) != ambient_rank:
            raise ValueError("dimension mismatch")
    prims = [primitive(r) for r in rays if not is_zero_vec(r)]
    distinct = sorted(set(prims))
    k = len(distinct)
    if k <= ambient_rank:
        augmented = [[*r, *(int(i == j) for j in range(k))] for i, r in enumerate(distinct)]
        rows, pivots, d, _ = _gauss_jordan(augmented, ambient_rank)
        if len(pivots) == k:
            s = 1 if d > 0 else -1
            facets = set()
            for i in range(k):
                u = [0] * ambient_rank
                for row, p in zip(rows, pivots):
                    u[p] = s * row[ambient_rank + i]
                facets.add(primitive(tuple(u)))
            for f in sorted(set(range(ambient_rank)) - set(pivots)):
                x = [0] * ambient_rank
                x[f] = d
                for row, p in zip(rows, pivots):
                    x[p] = -row[f]
                line = primitive(tuple(x))
                facets.update((line, vec_scale(-1, line)))
            return Cone(ambient_rank, tuple(distinct), tuple(sorted(facets)))
    lines, rays = _dd(ambient_rank, distinct)
    facets = tuple(sorted([r for r, _ in rays] + lines + [vec_scale(-1, l) for l in lines]))
    masks, full = [m for _, m in rays], (1 << k) - 1  # the facets' lines hold every input
    if reduce(and_, masks, full):
        return Cone(ambient_rank, _dd_generators(ambient_rank, facets), facets)
    extreme = [r for i, r in enumerate(distinct) if reduce(and_, (m for m in masks if m >> i & 1), full) == 1 << i]
    return Cone(ambient_rank, tuple(extreme), facets)


# Ray lists kept by cone_from_rays, set by measurement (Python 3.11), with
# the parse and one pass of the ops in one process: the seed-0
# fan-invariance pool makes 8,342 calls over 803 distinct keys, newton-large
# 1,803 over 402 and newton-small none.  On fan-invariance 512 entries miss
# 899 times, 1,024 and 2,048 entries 803, and peak RSS reads 27.8, 28.0 and
# 27.8 MB against 30.7 MB keeping none, since the cells a model shares with
# its subdivision and its resolution are one object each.  Parsing the
# 1,340-cell resolution of the rank-4 index-166 cone, with every cache
# empty, makes 12,305 calls, which miss 4,255, 2,890 and 1,340 times (every
# cell once at 2,048), taking 0.46, 0.41 and 0.33-0.43 s of CPU and 27.0,
# 25.6 and 24.5-24.8 MB of peak RSS, against 0.65 s and 34.7 MB keeping
# none.
_CONE_TABLE_SIZE = 2048
_cone_table = lru_cache(maxsize=_CONE_TABLE_SIZE)(_build_cone)


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
    """The indices of the set bits of ``mask``, increasing, found by
    clearing the lowest set bit, so a sparse wide mask costs its set bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# Most faces _face_lattice lists for one cone.  The seed-0 benchmark pools
# reach 64, scripts/data 10, the Tier-1 suite (its bound tests aside) fewer
# than 100, and the lifted cone of 40 random points of N^6 with coordinates
# 0-4 has 1,864.  Of the near-sphere supports of N^6 that the double
# description's bound describes, k = 20 has 5,288 faces and newton-poles
# takes 0.5-0.9 s of CPU with the face table's covers; k = 40 has 15,226
# faces over 1,609 facets, whose poles would take 4.9 s of CPU, most of it
# listing the faces with their facet masks, and is refused after 2.1-2.9 s.
FACE_LATTICE_MAX_FACES = 10_000


def _face_lattice(on_facet: Sequence[int], top: int) -> dict[int, int]:
    """The faces of a cone whose facets hold the inputs ``on_facet`` (one
    input mask per facet) out of ``top`` (all of them), each with the mask
    of the facets holding it: the closure of the facet masks under
    intersection, from ``top`` down (Ziegler, *Lectures on Polytopes*,
    §2.1).  The one AND of a face with each facet finds both the faces
    below it and the facets it lies on (Kaibel & Pfetsch, Comput. Geom. 23,
    2002).  Raises ``ValueError`` once it would list more than
    :data:`FACE_LATTICE_MAX_FACES` faces."""
    lattice: dict[int, int] = {}
    queue = [top]
    while queue:
        g = queue.pop()
        if g in lattice:
            continue
        if len(lattice) == FACE_LATTICE_MAX_FACES:
            raise ValueError(f"cone has more than {FACE_LATTICE_MAX_FACES} faces; the input is too large")
        tight = 0
        for j, m in enumerate(on_facet):
            meet = g & m
            if meet == g:
                tight |= 1 << j
            elif meet not in lattice:
                queue.append(meet)
        lattice[g] = tight
    return lattice


@lru_cache(maxsize=None)
def faces(c: Cone) -> tuple[Cone, ...]:
    """All faces of ``c``, including ``c`` itself and the minimal face."""
    lattice = _face_lattice(c.incidence, (1 << len(c.rays)) - 1)
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
    def _ray_masks(self) -> dict[Vec, int]:
        """Each ray of a cell -> the cells containing it, bit ``i`` standing
        for ``cells[i]``, worked out once per complex.

        Each distinct facet normal among the cells is paired once with each
        ray, giving the mask of the rays on its nonnegative side, and a cell
        contains exactly the rays in the AND of its facets' masks.  That is
        :meth:`Cone.contains` itself, so it holds for a complex that is not
        valid too."""
        rays = list(dict.fromkeys(r for c in self.cells for r in c.rays))
        every = (1 << len(rays)) - 1
        side: dict[Vec, int] = {}  # facet normal -> the rays on its nonnegative side
        holders = [0] * len(rays)
        for i, c in enumerate(self.cells):
            held = every
            for u in c.facets:
                if u not in side:
                    side[u] = sum(1 << j for j, r in enumerate(rays) if dot(u, r) >= 0)
                held &= side[u]
            for j in _bits(held):
                holders[j] |= 1 << i
        return dict(zip(rays, holders))

    @cached_property
    def _masks(self) -> dict[Vec, int]:
        """Each other vector asked about so far -> the cells containing it,
        as :attr:`_ray_masks` holds them; filled by :meth:`_mask`."""
        return {}

    def _mask(self, v: Vec) -> int:
        """The cells containing the vector ``v``, as a bitmask, by one scan
        of the cells, kept per vector: a resolution asks this for one
        subdivision point of each complex it builds, where
        :attr:`_ray_masks` would pair every facet with every ray."""
        masks = self._masks
        if v not in masks:
            masks[v] = sum(1 << i for i, c in enumerate(self.cells) if c.contains(v))
        return masks[v]

    def _containing(self, cone: Cone) -> int:
        """The cells containing ``cone``, as a bitmask: a cone lies in a cell
        exactly when each of its rays does, and the zero cone lies in all.
        A ray of a cell is read off :attr:`_ray_masks`; any other is
        scanned by :meth:`_mask`."""
        mask = (1 << len(self.cells)) - 1
        table = self._ray_masks
        for r in cone.rays:
            held = table.get(r)
            mask &= self._mask(r) if held is None else held
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
    complex is :meth:`ConeComplex.validate`'s verdict.

    Read from the complex table keyed by the rank and the set of cells, so
    equal cell lists, in any order and with or without their faces listed,
    return the same immutable complex, whose verdict, maximal cells, masks
    and owners are each worked out once.  A refused input is never kept.
    Nothing writes a verdict or a certificate into a complex the table
    holds: :func:`star_subdivision` builds its certified refinements
    afresh."""
    return _complex_table(ambient_rank, frozenset(f for c in cones for f in faces(c)))


# Cell sets kept by complex_from_cones, set by measurement (Python 3.11),
# with the parse and one pass of the ops in one process: the fan-invariance
# pool makes 400 calls over 82 distinct cell sets, all of them in the parse,
# at seed 0 and at seed 1 alike, newton-large 200 calls over 200 and
# newton-small none.  On seed-0 fan-invariance 16, 32 and 64 entries miss
# 150, 106 and 85 times, and 128 only the 82 first calls; peak RSS reads
# 28.1-28.3 MB against 28.7 MB keeping none, and on newton-large 27.6
# against 27.4 MB, where no entry is read twice.
_COMPLEX_TABLE_SIZE = 128
_complex_table = lru_cache(maxsize=_COMPLEX_TABLE_SIZE)(ConeComplex)


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
    builds ``g + rho`` too.  ``g`` is the one facet of ``g + rho`` that
    misses ``rho``, so each ``g`` is joined once, by the first cell holding
    it.  The cells are closed under faces already: a
    face of ``g + rho`` is a face ``g'`` of ``g``, or ``g' + rho``, since
    ``rho`` lies outside the span of the face ``g`` of a cell holding it.
    So the rays of ``g + rho`` are those of ``g`` and ``rho``, asked for
    sorted, as :func:`faces` asks for a face: a join equal to a face met
    before is read from the cone table as that very cone.
    """
    rho = primitive(rho)
    if k.support_cell(rho) is None:
        raise ValueError("subdivision point outside the support")
    holding = k._mask(rho)
    built_in: dict[Cone, Cone] = {}  # each new cell -> the first old cell it is built in
    joined: set[Cone] = set()  # the faces g whose g + rho is built
    for i, c in enumerate(k.cells):
        if not holding >> i & 1:
            built_in[c] = c
            continue
        if c.contains(vec_scale(-1, rho)):
            raise LinealityError("subdivision point in the lineality space of a cell")
        for g in faces(c):
            if g not in joined and not g.contains(rho):
                joined.add(g)
                built_in[cone_from_rays(k.ambient_rank, sorted((*g.rays, rho)))] = c
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
        for piece in _triangulate(c.rays, c.incidence, c.dim):
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
        proj = big.span_coordinates[3]
        inside = [c for c, o in zip(kp.cells, carriers) if o == big and c.dim == big.dim]
        if _volume_sum(inside, ell, proj) != _volume_sum([big], ell, proj):
            return None
    return carriers


# ---------------------------------------------------------------------------
# Triangulation and resolution.


def _triangulate(rays: Sequence[Vec], on_facet: Sequence[int], dim: int) -> tuple[tuple[Vec, ...], ...]:
    """Pulling triangulation into simplicial pieces using existing rays only,
    of the pointed cone of dimension ``dim`` whose extreme rays are ``rays``
    and whose facets hold the rays ``on_facet`` (one ray mask per facet).

    On ray masks: a face ``g`` with as many rays as its dimension is a piece;
    otherwise its first ray is pulled over each facet of ``g`` missing it, in
    ray-tuple order (De Loera, Rambau & Santos, *Triangulations*, §4.3).  The
    facets of ``g`` are the maximal proper ``g & m`` over the facet masks ``m``.
    """

    def pull(g: int, dim: int) -> list[tuple[Vec, ...]]:
        idx = _bits(g)
        if len(idx) == dim:
            return [tuple(rays[i] for i in idx)]
        meets = {g & m for m in on_facet} - {g}
        walls = [f for f in meets if not any(f != o and f | o == o for o in meets)]
        v = rays[idx[0]]
        return [
            (v,) + sub
            for f in sorted((f for f in walls if not f >> idx[0] & 1), key=_bits)
            for sub in pull(f, dim - 1)
        ]

    return tuple(pull((1 << len(rays)) - 1, dim))


def _is_pyramid_apex(c: Cone, ray: Vec) -> bool:
    """Whether the rays of ``c`` other than ``ray`` make up a facet of ``c``."""
    return ((1 << len(c.rays)) - 1) ^ (1 << c.rays.index(ray)) in c.incidence


# Most box points one resolution may enumerate, summed over its subdivisions
# at box points.  Each of them enumerates at least two, so this bounds their
# number as well.  Every seed 0-3 fan-invariance benchmark resolution
# takes at most 14; the rank-4 index-166 cone (-1,-3,-1,-2), (-1,2,2,3),
# (1,-3,-2,3), (1,-2,3,0) takes 414 over 86 subdivisions and resolves to
# 1,340 cells.  The two-ray cell [[1,0],[1,N]] takes N(N+1)/2 - 1, so it is
# refused from N = 100 on; at N = 1,000 it took 18.8 s before the bound.
RESOLVE_MAX_BOX_POINTS = 5_000


def resolve_complex(k: ConeComplex) -> ConeComplex:
    """Refine ``k`` to a complex all of whose cells are smooth (Cox, Little
    & Schenck, *Toric Varieties*, §11.1).

    Cells that are smooth together with all their faces are never touched;
    the refinement has the same support and ``check_subdivision`` holds.
    Raises ``ValueError`` once the box points enumerated would pass
    :data:`RESOLVE_MAX_BOX_POINTS`, and ``RuntimeError`` rather than make
    more than 10,000 subdivisions at rays.
    """
    for c in k.cells:
        if not c.is_strictly_convex():
            raise LinealityError("strictly convex cells required")

    # Non-simplicial cells go first: a star subdivision of a simplicial
    # complex is simplicial, so none comes back once they are gone.  The
    # cells are pointed, so a cell is simplicial when it has as many rays as
    # its dimension.  A box holds as many points as the product of its
    # cell's Smith divisors, so the running total is checked before each
    # enumeration.
    guard = work = 0
    while True:
        bad = next((c for c in k.cells if len(c.rays) > c.dim), None)
        if bad is not None:
            # a strictly convex cone whose every ray is a pyramid apex is simplicial
            pivot = next(r for r in bad.rays if not _is_pyramid_apex(bad, r))
            guard += 1
            if guard > 10_000:
                raise RuntimeError("simplicialization did not terminate")
        else:
            bad = next((c for c in k.cells if not c.is_smooth), None)
            if bad is None:
                return k
            piece = bad.closed_piece
            index = piece.box_count()
            work += index
            if work > RESOLVE_MAX_BOX_POINTS:
                raise ValueError(
                    f"resolution needs more than {RESOLVE_MAX_BOX_POINTS} box points "
                    f"(at a cell of index {index}); the model is too singular"
                )
            candidates = [primitive(p) for p in box_points(piece) if not is_zero_vec(p)]
            pivot = min(candidates, key=lambda p: (sum(abs(x) for x in p), p))
        k = star_subdivision(k, pivot)


# ---------------------------------------------------------------------------
# Half-open decompositions and box points.


@dataclass(frozen=True)
class HalfOpenCone:
    """Simplicial cone with per-generator openness flags.

    The lattice point set is ``{u0 + sum_j k_j g_j : k_j >= 0}`` where ``u0``
    runs over the fundamental parallelepiped with coordinate ``j`` ranging in
    ``(0, 1]`` when ``strict[j]`` and in ``[0, 1)`` otherwise.

    The piece keeps the frame its box points are enumerated from,
    :func:`_smith_frame`: the Smith divisors ``d_j`` and the step rows
    ``V @ diag(D/d_j)``, ``D`` the last divisor.  The constructor works it
    out from one fraction-free elimination of the generators, whose pivots
    decide their independence and whose rows hold ``k × k`` minors of them;
    minors of gcd 1 make the piece unimodular with no Smith normal form.
    ``walls = (rays, s)``, with ``strict`` given as None and only then,
    asks for :func:`_half_open`'s flags, read off that same elimination,
    which then runs on ``[G | I_k]``.  Every piece is built here, so its
    frame is always its own.
    """

    ambient_rank: int
    gens: tuple[Vec, ...]
    strict: tuple[bool, ...]
    walls: InitVar[Optional[tuple[tuple[Vec, ...], int]]] = None
    _frame: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self, walls):
        n, k = self.ambient_rank, len(self.gens)
        if walls is None:
            if self.strict is None or len(self.strict) != k:
                raise ValueError("one openness flag per generator required")
        elif self.strict is not None:
            raise ValueError("openness flags and walls are exclusive")
        rows = self.gens
        if walls is not None:
            rows = [[*g, *(int(i == j) for j in range(k))] for i, g in enumerate(self.gens)]
        rows, pivots, d, _ = _gauss_jordan(rows, n)
        if len(pivots) < k:
            raise ValueError("generators must be linearly independent")
        if walls is not None:
            object.__setattr__(self, "strict", _wall_flags(rows, pivots, d, n, *walls))
        minors = math.gcd(*(x for row in rows for x in row[:n]))
        object.__setattr__(self, "_frame", _smith_frame(self.gens, minors))

    def box_count(self) -> int:
        """The number of box points: the product of the Smith divisors, and
        1 for a piece without generators."""
        return math.prod(self._frame[0])

    def _residues(self) -> tuple[int, Iterator[list[int]]]:
        """``D``, the last Smith divisor (1 without generators), and per box
        point its parallelepiped coordinates times ``D``: the residues
        ``lambda_j`` in ``[0, D)``, or ``(0, D]`` for a strict generator, of
        the point ``sum_j lambda_j g_j / D``.  Nothing is kept."""
        divisors, steps = self._frame
        big = divisors[-1] if divisors else 1
        if big == 1:  # one box point: a strict generator at D, the others at 0
            return 1, iter(([int(s) for s in self.strict],))

        def residues():
            for combo in itertools.product(*map(range, divisors)):
                lam = []
                for row, strict in zip(steps, self.strict):
                    x = dot(row, combo) % big
                    lam.append(big if strict and x == 0 else x)
                yield lam

        return big, residues()


def _wall_flags(
    rows: list[list[int]], pivots: list[int], d: int, n: int, rays: Sequence[Vec], s: int
) -> tuple[bool, ...]:
    """The openness flags of :func:`_half_open`, read off the rows of one
    fraction-free elimination of ``[G | I_k]`` with pivots ``p_i`` in the
    first ``n`` columns and last pivot ``d``.

    The rows are ``d`` times ``[R | E]``, ``R = E @ G`` the reduced row
    echelon form, whose pivot columns are the identity.  A ray ``r`` in the
    span of the generators is ``sum_i r[p_i] R_i``, so its coordinate on
    ``g_j`` is ``sum_i r[p_i] E[i][j]``: ``d`` times it is
    ``sum_i r[p_i] rows[i][n + j]``.  The wall opposite ``g_j`` is open when
    the first nonzero of ``x_j(r_1 + ... + r_m), x_j(r_1), x_j(r_2), ...``
    has the sign of ``-s``.
    """
    coords = [[sum(r[p] * row[n + j] for p, row in zip(pivots, rows)) for j in range(len(pivots))] for r in rays]
    flags = []
    for column in zip(*coords):
        x = next(v for v in (sum(column), *column) if v)
        flags.append(s * x * d < 0)
    return tuple(flags)


def _smith_frame(gens: Sequence[Vec], minors: int) -> tuple[tuple[int, ...], Mat]:
    """The divisors and step rows of independent ``gens``, given the gcd
    ``minors`` of some of their ``k × k`` minors (0 without generators).

    Every entry of the first ``n`` columns of a fraction-free elimination
    of the gens is such a minor (Bareiss, Math. Comp. 22, 1968), and the
    gcd of all of them is the product of the Smith divisors.  So at
    ``minors == 1`` the gens span a saturated lattice: every divisor is 1,
    the box holds one point, whose residues read no step rows, so the frame
    is ``((1,) * k, ())``.  Other gens take a Smith normal form, and one whose
    divisors all come out 1 takes that frame too, so the frame depends on
    the gens alone.
    """
    k = len(gens)
    if minors > 1:
        s, _, v = smith_normal_form(from_columns(gens))
        divisors = tuple(s[i][i] for i in range(k))
        big = divisors[-1]
        if big != 1:
            return divisors, tuple(tuple(x * (big // dj) for x, dj in zip(row, divisors)) for row in v)
    return (1,) * k, ()


def triangulate_half_open(
    c: Cone, region: Literal["relint", "closed"] = "relint"
) -> list[HalfOpenCone]:
    """Partition the lattice points of a region of ``c`` into half-open cones.

    ``region`` selects the relative interior or the closed cone; the pieces
    are :func:`_half_open`'s, from the cone's own incidence.
    """
    if region not in ("relint", "closed"):
        raise ValueError("region must be 'relint' or 'closed'")
    if not c.is_strictly_convex():
        raise LinealityError("strictly convex cone required")
    return _half_open(c.ambient_rank, c.rays, c.incidence, c.dim, 1 if region == "closed" else -1)


def _half_open(
    ambient_rank: int, rays: tuple[Vec, ...], on_facet: Sequence[int], dim: int, s: int
) -> list[HalfOpenCone]:
    """The half-open pieces of the pointed cone :func:`_triangulate` reads
    off ``rays``, ``on_facet`` and ``dim``: of the closed cone for ``s = 1``
    and of its relative interior for ``s = -1``.

    Generators of every piece are rays of the cone; the openness flags
    implement the disjointness (walls counted once, boundary excluded for
    the relative interior).  The construction is deterministic: pulling
    triangulation on the canonically ordered rays, and the wall opposite
    generator ``g_j`` open exactly when the witness ``s*(r1 + ... + rm) +
    eps*s*r1 + eps^2*s*r2 + ...`` (``eps > 0`` infinitesimal) has a negative
    ``g_j``-coordinate (Köppe & Verdoolaege, Electron. J. Combin. 15, 2008,
    Thm. 3).  Each piece reads the coordinates from its constructor's own
    elimination (:func:`_wall_flags`), so it takes one elimination in all.
    A wall in a facet of the cone has every coordinate ``x_j(r) >= 0``, so
    it is open for the relative interior and closed for the closed cone.
    """
    return [HalfOpenCone(ambient_rank, gens, None, (rays, s)) for gens in _triangulate(rays, on_facet, dim)]


# Distinct cones kept by _relint_pieces, set by measurement on the seed-0
# benchmark pools, one pass of the parsed inputs' ops in one process
# (Python 3.11), keyed by rays, incidence and dimension.  fan-invariance
# misses 127 of 8,968 lookups, once per distinct reduced cell, all of them
# simplicial.  newton-small misses 5,305 of 10,364 over 2,963 distinct
# normal cones, 2,963 keeping every cone, with peak RSS at 25.0 against
# 26.5 MB; 4,328 of the misses are simplicial and take one elimination, the
# other 977 are triangulated from the handed incidence, and 2,727 pieces
# take a Smith form, only those whose minors have a gcd other than 1.
# newton-large misses 933 of 2,372 over 749, all simplicial.  No miss takes
# a double description.  An entry holds the pieces and their Smith frames,
# never their box points.
_PIECE_TABLE_SIZE = 256


@lru_cache(maxsize=_PIECE_TABLE_SIZE)
def _relint_pieces(
    ambient_rank: int, rays: tuple[Vec, ...], on_facet: tuple[int, ...], dim: int
) -> tuple[HalfOpenCone, ...]:
    """``triangulate_half_open(c, "relint")`` of the pointed cone ``c`` of
    dimension ``dim`` whose sorted extreme rays are ``rays`` and whose
    pointed facets hold the rays ``on_facet`` (one ray mask per facet),
    kept per call; no :class:`Cone` is built.

    A simplicial cone, ``dim == len(rays)``, is one piece with every
    generator strict (Köppe & Verdoolaege, Electron. J. Combin. 15, 2008);
    any other is triangulated from its incidence (:func:`_half_open`).  The
    rays fix the incidence and the dimension, so they split no entry.
    Pointedness is held where the input enters, not here.
    """
    if dim == len(rays):
        return (HalfOpenCone(ambient_rank, rays, (True,) * dim),)
    return tuple(_half_open(ambient_rank, rays, on_facet, dim, -1))


def box_points(h: HalfOpenCone) -> list[Vec]:
    """Lattice points of the half-open fundamental parallelepiped of ``h``,
    as vectors; only :func:`resolve_complex` asks for them, since the
    cone-sum kernel pairs the residues with its functionals directly.

    The count always equals the index of the generator lattice inside the
    saturated lattice of its span.  With ``G`` the generators as columns,
    ``S = U @ G @ V`` its Smith normal form and ``D`` the last divisor, the
    columns of ``G @ V`` are ``d_j`` times a basis of that saturated lattice,
    so the divisor-box vector ``c`` gives the point with parallelepiped
    coordinates ``((V @ diag(D/d_j) @ c) mod D) / D``, where a strict
    generator takes residue ``D`` in place of 0 (:meth:`HalfOpenCone._residues`).
    The divisors and the step rows ``V @ diag(D/d_j)`` are the piece's
    frame, worked out when ``h`` is built.
    """
    if not h.gens:
        return [zero_vec(h.ambient_rank)]
    big, residues = h._residues()
    cols = list(zip(*h.gens))
    return [tuple(dot(col, lam) // big for col in cols) for lam in residues]
