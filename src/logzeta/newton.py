"""Newton-polyhedron pipeline.

From the support of a polynomial vanishing at the origin we compute the
Newton polyhedron (as its normal complex inside the dual orthant), the face
records, the global and local motivic zeta functions of a nondegenerate
polynomial, the corresponding fan model, candidate poles, and a finite-field
nondegeneracy probe.

The polyhedron is never built as a vertex/facet hull: we take the cone over
the lifted support points together with the recession orthant, and read
faces, normal cones and witnesses from the incidence of its rays and facets.
That keeps all computations inside the exact cone kernel and takes one
double description per support, and nothing more per face: a face's normal
cone is kept as its rays, the projected facets through the face, and its
incidence and dimension are read off the face lattice's cover relation, so
the cone-sum kernel triangulates it with no double description and no rank
is taken.  The faces and their per-face zeta terms are computed once per
support (a small cache keyed on ``(n, support)``); the global and local
zeta functions are one sum each over the same terms, the local one over the
compact faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Optional

from . import cones
from .cones import Cone, complex_from_cones, cone_from_rays
from .intlin import Vec, dot, is_zero_vec, vec_add, zero_vec
from .mring import LaurentPoly, MClass, MCoeff
from .series import ZSeries, _relint_buckets
from .zeta import FanModel


@dataclass(frozen=True)
class NewtonInput:
    n: int
    support: tuple[Vec, ...]
    coeffs: Optional[dict[Vec, Fraction]] = None

    def __post_init__(self):
        if not self.support:
            raise ValueError("empty support")
        seen = set()
        for w in self.support:
            if len(w) != self.n or any(x < 0 for x in w):
                raise ValueError(f"support point {w} not in N^{self.n}")
            if is_zero_vec(w):
                raise ValueError("support contains the origin (f(0) must vanish)")
            if w in seen:
                raise ValueError(f"duplicate support point {w}")
            seen.add(w)
        if self.coeffs is not None:
            for w in self.coeffs:
                if w not in seen:
                    raise ValueError(f"coefficient for non-support point {w}")


@dataclass(frozen=True)
class FaceRecord:
    """One face of the Newton polyhedron.

    ``normal_rays`` are the sorted extreme rays of the closed cone of linear
    forms minimized on the face, ``normal_cone_closure``; its relative
    interior is the locus where the minimizing set is exactly
    ``argmin_support``.  The cone lies in the dual orthant, so it is
    pointed, and it is built from its rays only when asked for.
    ``m_witness`` is a support point on the face, so the minimum value
    function is u -> <u, m_witness> there.  ``normal_incidence`` holds one
    mask over ``normal_rays`` per pointed facet of the normal cone, sorted:
    bit ``i`` is set when ``normal_rays[i]`` lies on the facet.
    """

    face_id: str
    argmin_support: frozenset
    normal_rays: tuple[Vec, ...]
    dim_face: int
    is_compact: bool
    m_witness: Vec
    normal_incidence: tuple[int, ...]

    @cached_property
    def normal_cone_closure(self) -> Cone:
        return cone_from_rays(len(self.m_witness), self.normal_rays)

    def m_of(self, u: Vec) -> int:
        return dot(u, self.m_witness)


def _lift(w: Vec, last: int) -> Vec:
    return tuple(w) + (last,)


def _newton_faces(n: int, support: tuple[Vec, ...]) -> tuple[FaceRecord, ...]:
    """The face records of the Newton polyhedron of ``support``, sorted.

    ``c`` is the cone over the lifted support points and the recession
    orthant.  Its generators are nonnegative and span R^{n+1}, so ``c`` is
    pointed and full dimensional: one double description (``cones._dd``) of
    the sorted generators gives its facets, each with the mask of the
    generators on it, extreme or not.  A face of ``c`` is fixed by the
    generators it holds, so the faces are the closure of those masks under
    intersection (``cones._face_lattice``), each handed back with the
    facets holding it; no cone is built per face.

    A face holding some lifted point ``(w, 1)`` is the cone over a face of
    the polyhedron, whose support points are the lifted points it holds;
    the others are at infinity.  Its normal cone is spanned by the
    projections ``u`` of the facets ``(u, t)`` holding it (Ziegler,
    *Lectures on Polytopes*, §7.1).  These are its extreme rays, primitive
    because ``t = -<u, w>`` gives ``gcd(u) = gcd(u, t) = 1``, and distinct
    because ``t`` is fixed by ``u``; they come out sorted, as the facets
    are.  So the record keeps them as they are.

    The normal cone of a face F is the dual face of F, and faces and dual
    faces correspond one to one, reversing inclusion (Cox, Little &
    Schenck, *Toric Varieties*, Prop. 1.2.10).  So its facets are the duals
    of the faces G that cover F, that is, of which F is a facet, and normal
    ray ``j`` lies on the facet dual to G exactly when facet ``j`` of ``c``
    holds G: the normal cone's incidence is the covers' tight masks,
    restricted to F's and re-indexed to the sorted normal rays.  The covers
    are found as Kaibel & Pfetsch do (Comput. Geom. 23, 2002): the smallest
    face holding F and one generator ``i`` more is tight at the facets of F
    that hold ``i``, and such a face G covers F exactly when the ``i``
    leading to it are all of its generators outside F.  Only ``c`` itself
    covers a facet of ``c``; any other cover of F lies on a facet of F,
    and so do all of its generators, so only the generators on F's facets
    are tried, a few per face where trying all would cost the generators
    times the faces.  The normal cone's dimension then comes from the
    grading, one more than a cover's, with the polyhedron itself at 0; no
    rank is taken.
    """
    gens = sorted([_lift(w, 1) for w in support] + [tuple(int(j == i) for j in range(n + 1)) for i in range(n)])
    _, facets = cones._dd(n + 1, gens)
    facets.sort()
    on_facet = [m for _, m in facets]
    top = (1 << len(gens)) - 1
    lattice = cones._face_lattice(on_facet, top)
    by_tight = {tight: face for face, tight in lattice.items()}
    holding = [0] * len(gens)  # per generator, the facets holding it
    for j, m in enumerate(on_facet):
        for i in cones._bits(m):
            holding[i] |= 1 << j
    lifted = sum(1 << i for i, g in enumerate(gens) if g[n])
    normal_dim: dict[int, int] = {}
    found = []
    # a cover holds more generators than the face, so it comes first
    for face in sorted((f for f in lattice if f & lifted), key=int.bit_count, reverse=True):
        tight = lattice[face]
        if tight & (tight - 1) == 0:  # c itself, or a facet of c, which c covers
            covers = [0] if tight else []
        else:
            near = 0
            for j in cones._bits(tight):
                near |= on_facet[j]
            joins: dict[int, int] = {}
            for i in cones._bits(near & ~face):
                t = tight & holding[i]
                joins[t] = joins.get(t, 0) + 1
            covers = [t for t, count in joins.items() if count == (by_tight[t] & ~face).bit_count()]
        normal_dim[face] = normal_dim[by_tight[covers[0]]] + 1 if covers else 0
        rows = cones._bits(tight)
        incidence = tuple(sorted(sum(1 << r for r, j in enumerate(rows) if t >> j & 1) for t in covers))
        argmin = frozenset(gens[i][:n] for i in cones._bits(face & lifted))
        normal = tuple(facets[j][0][:n] for j in rows)
        found.append((n - normal_dim[face], argmin, normal, incidence))
    found.sort(key=lambda t: (t[0], sorted(t[1]), t[2]))
    return tuple(
        FaceRecord(
            face_id=f"tau{k}",
            argmin_support=argmin,
            normal_rays=normal,
            dim_face=dim_face,
            is_compact=_compact(normal, n),
            m_witness=min(argmin),
            normal_incidence=incidence,
        )
        for k, (dim_face, argmin, normal, incidence) in enumerate(found)
    )


_JET_DENOM = ((-1, 1),)  # the factor 1 - L^{-1}T of the jet sum


@dataclass(frozen=True)
class _FaceTable:
    """The faces of one Newton support and, once asked for, their terms."""

    n: int
    records: tuple[FaceRecord, ...]

    @cached_property
    def terms(self) -> tuple[ZSeries, ...]:
        """Per face, ``S·([X_tau(0)]·L^{-1}T/(1-L^{-1}T) + [X_tau(1)])`` with
        ``S`` the sum of L^{-sigma(u)} T^{m(u)} over the relative interior of
        the normal cone (sigma = 1 on the coordinate vectors, where m = 0).

        Written out per bucket ``(beta, D, h)`` of the kernel, which makes one
        coefficient ``c``: ``[X_tau(0)]·L^{-1}c·T^{beta+1}/(D·(1-L^{-1}T))`` and,
        when m does not vanish on the whole normal cone, ``[X_tau(1)]·c·T^beta/D``
        (of positive T-degree then); ``c`` is canonical and L a unit, so both are."""
        sigma = (1,) * self.n
        out = []
        spent = 0  # box points, counted against one bound for the table
        for rec in self.records:
            # one-atom symbols are canonical as they stand
            jet = f"X_tau(0)@{rec.face_id}"
            unit = f"X_tau(1)@{rec.face_id}" if any(rec.m_of(r) != 0 for r in rec.normal_rays) else None
            pairs = []
            buckets, spent = _relint_buckets(
                rec.normal_rays, rec.m_witness, sigma, spent, rec.normal_incidence, self.n - rec.dim_face
            )
            for (beta, ds, h), bucket in buckets.items():
                c = MCoeff.make(LaurentPoly.from_dict(bucket).shift(h), h)
                pairs.append(((beta + 1, tuple(sorted(ds + _JET_DENOM)), jet), c.scale_l(-1)))
                if unit is not None:
                    pairs.append(((beta, ds, unit), c))
            out.append(ZSeries._sum_pairs(pairs))
        return tuple(out)


# Supports kept, set by measurement (Python 3.11, one pass of the seed-0
# pools' ops in one process).  A newton-small op reads its support three
# times and a newton-large op twice, so one entry already takes 1,200 hits
# of newton-small's 1,800 reads and 200 of newton-large's 400; four entries
# take 202 there, as do eight, and fan-invariance reads none.  Peak RSS
# reads 23.8, 24.0 and 24.3 MB on newton-small and 26.8, 27.4 and 28.3 MB on
# newton-large at one, four and eight entries, against 51.7 and 59.3 MB
# keeping every support.  Over the Tier-1 suite 979 of 2,984 reads miss at
# one entry and 969 of 2,985 at four.  The CLI reads one support per process.
@lru_cache(maxsize=4)
def _face_table(n: int, support: tuple[Vec, ...]) -> _FaceTable:
    """The face table of a support; coefficients do not change the faces."""
    return _FaceTable(n, _newton_faces(n, support))


def _table(inp: NewtonInput) -> _FaceTable:
    return _face_table(inp.n, tuple(inp.support))


def newton_polyhedron(inp: NewtonInput) -> list[FaceRecord]:
    """All faces of the Newton polyhedron with their normal-cone data.

    The returned records cover the polyhedron itself (zero normal cone) down
    to the vertices (full-dimensional normal cones); their normal cones form
    a complete complex subdividing the dual orthant.
    """
    return list(_table(inp).records)


def _compact(normal_rays: tuple[Vec, ...], n: int) -> bool:
    """Whether the relative interior of the normal cone meets the open orthant.

    Rays of normal cones are nonnegative, so this holds exactly when every
    coordinate is positive on the sum of the rays.
    """
    total = zero_vec(n)
    for r in normal_rays:
        total = vec_add(total, r)
    return all(x > 0 for x in total)


# ---------------------------------------------------------------------------
# Zeta functions.


def _sigma(u: Vec) -> int:
    return sum(u)


def newton_zeta(inp: NewtonInput) -> ZSeries:
    """Motivic zeta function of a polynomial nondegenerate for its Newton
    polyhedron, summed over all faces."""
    return ZSeries.sum(_table(inp).terms)


def newton_zeta_local(inp: NewtonInput) -> ZSeries:
    """Local motivic zeta function at the origin: compact faces only."""
    table = _table(inp)
    return ZSeries.sum(term for rec, term in zip(table.records, table.terms) if rec.is_compact)


def newton_poles(inp: NewtonInput) -> frozenset[Fraction]:
    """Candidate poles {-1} ∪ {-sigma(v)/m(v) : v facet normal, m(v) > 0}."""
    out = {Fraction(-1)}
    for rec in newton_polyhedron(inp):
        if rec.dim_face == inp.n - 1:
            (v,) = rec.normal_rays
            if rec.m_of(v) > 0:
                out.add(Fraction(-_sigma(v), rec.m_of(v)))
    return frozenset(out)


def newton_to_fanmodel(inp: NewtonInput) -> FanModel:
    """Fan model of the toric log model attached to the Newton polyhedron.

    Rank n+1: each face contributes its normal cone at level zero and the
    prism over it in the extra coordinate.  The uniformizer vector on a cell
    over face tau is (witness, 1), the divisor vector ((1,...,1) - witness, 0);
    face consistency holds because all witnesses of a face pair equally
    against its normal cone.
    """
    n = inp.n
    records = newton_polyhedron(inp)
    cells: dict[Cone, MClass] = {}
    vertical: dict[Cone, FaceRecord] = {}
    for rec in records:
        base_rays = [_lift(r, 0) for r in rec.normal_rays]
        flat = cone_from_rays(n + 1, base_rays)
        prism = cone_from_rays(n + 1, base_rays + [_lift(zero_vec(n), 1)])
        cells[flat] = MClass.symbol(f"X_tau(1)@{rec.face_id}")
        cells[prism] = MClass.symbol(f"X_tau(0)@{rec.face_id}")
        vertical[prism] = rec
    complex_ = complex_from_cones(n + 1, list(cells.keys()))
    e_vecs: dict[Cone, Vec] = {}
    a_vecs: dict[Cone, Vec] = {}
    ones = (1,) * n
    for mc in complex_.maximal_cells():
        rec = vertical[mc]
        e_vecs[mc] = _lift(rec.m_witness, 1)
        a_vecs[mc] = _lift(tuple(o - w for o, w in zip(ones, rec.m_witness)), 0)
    return FanModel(complex_, e_vecs, a_vecs, cells)


def face_report(inp: NewtonInput) -> list[dict]:
    """JSON-ready summary of the polyhedron's faces and normal data."""
    out = []
    for rec in newton_polyhedron(inp):
        rays = rec.normal_rays
        out.append(
            {
                "id": rec.face_id,
                "dim": rec.dim_face,
                "compact": rec.is_compact,
                "support_points": [list(w) for w in sorted(rec.argmin_support)],
                "normal_rays": [list(r) for r in rays],
                "m_values": [rec.m_of(r) for r in rays],
                "sigma_values": [_sigma(r) for r in rays],
            }
        )
    return out


# ---------------------------------------------------------------------------
# Nondegeneracy probe.


ProbeResult = tuple[str, Optional[str], Optional[Vec]]  # (status, face_id, witness)

# Most torus points the probe visits, summed over faces: (faces) * (p-1)^n.
# A larger search is refused up front; a million points take seconds.
PROBE_MAX_POINTS = 1_000_000


def nondegeneracy_probe(inp: NewtonInput, p: int) -> ProbeResult:
    """Search (F_p^x)^n for singular points of the face polynomials.

    Returns ("pass", None, None) when no modular witness exists (which is
    not a proof of nondegeneracy), ("fail", face_id, point) for a witness
    where the face polynomial and all its torus partials vanish, and
    ("inconclusive", None, None) when p < 3 or the coefficients do not
    reduce faithfully mod p.  Raises ``ValueError`` when p is not prime or
    the search would exceed :data:`PROBE_MAX_POINTS`.
    """
    if inp.coeffs is None:
        raise ValueError("probe needs coefficients")
    if len(inp.coeffs) != len(inp.support):
        raise ValueError("probe needs a coefficient for every support point")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    records = newton_polyhedron(inp)
    points = len(records) * (p - 1) ** inp.n
    if points > PROBE_MAX_POINTS:
        raise ValueError(
            f"probe would visit {points} torus points ({len(records)} faces, (p-1)^{inp.n} each),"
            f" more than {PROBE_MAX_POINTS}; use a smaller prime"
        )
    if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")
    if p < 3:
        return ("inconclusive", None, None)
    red: dict[Vec, int] = {}
    for w, c in inp.coeffs.items():
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError(f"coefficient {c} has denominator divisible by {p}")
        num = c.numerator % p
        den_inv = pow(c.denominator % p, -1, p)
        val = num * den_inv % p
        if val == 0:
            return ("inconclusive", None, None)  # support degenerates mod p
        red[w] = val
    # The answer is the first face (in record order) with a witness, and its
    # first witness in product order.  Points run outermost, so each point's
    # powers are computed once for all faces; once a face has a witness, only
    # the faces before it are still searched.
    faces = [sorted(rec.argmin_support) for rec in records]
    exponents = [{w[i] for w in inp.support} for i in range(inp.n)]
    best: Optional[tuple[int, Vec]] = None
    for x in product(range(1, p), repeat=inp.n):
        powers = [{k: pow(xi, k, p) for k in exps} for xi, exps in zip(x, exponents)]
        for f, pts in enumerate(faces[: len(faces) if best is None else best[0]]):
            val = 0
            partials = [0] * inp.n
            for w in pts:
                mono = red[w]
                for i in range(inp.n):
                    mono = mono * powers[i][w[i]] % p
                val = (val + mono) % p
                for i in range(inp.n):
                    partials[i] = (partials[i] + w[i] * mono) % p
            if val == 0 and all(pi == 0 for pi in partials):
                best = (f, tuple(x))
                break
        if best is not None and best[0] == 0:
            break
    if best is None:
        return ("pass", None, None)
    return ("fail", records[best[0]].face_id, best[1])
