"""Sharp fine saturated monoids as (lattice, cone) pairs.

A monoid is stored in normalized coordinates: its group of differences is
``Z^rank`` and the monoid is ``cone ∩ Z^rank`` for a full-dimensional
strictly convex cone.  The ``lattice`` field records the embedding of the
normalized basis into the coordinates the monoid was constructed from
(identity unless a construction changed basis), so callers can map back.

A :class:`MarkedMonoid` adds the distinguished element ``e_pi`` (image of the
base uniformizer, a monoid element) and ``a_div`` (a locally principal
divisor generator, an arbitrary lattice element).  These are exactly the data
the generating-function machinery consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .cones import (
    Cone,
    LinealityError,
    cone_from_rays,
    dual_cone,
    faces,
    primitive,
)
from .intlin import (
    Mat,
    Vec,
    content_primitive,
    dot,
    from_columns,
    hermite_normal_form,
    identity,
    is_zero_vec,
    mat_mul,
    mat_vec,
    rank as mat_rank,
    saturation_basis,
    scaled_inverse,
    smith_normal_form,
    solve_integer,
    transpose,
    vec_scale,
)


@dataclass(frozen=True)
class SharpFsMonoid:
    """Sharp fs monoid ``cone ∩ Z^rank`` in normalized coordinates."""

    rank: int
    cone: Cone
    lattice: Mat = None

    def __post_init__(self):
        if self.lattice is None:
            object.__setattr__(self, "lattice", identity(self.rank))
        if self.cone.ambient_rank != self.rank:
            raise ValueError("cone must live in rank-many coordinates")
        if not self.cone.is_strictly_convex():
            raise LinealityError("monoid has units; sharpify first")
        if self.cone.dim != self.rank:
            raise ValueError("cone must be full dimensional")

    def contains(self, v: Vec) -> bool:
        return self.cone.contains(v)

    def dual(self) -> Cone:
        """The dual cone, the same object on every call, so the incidence it
        caches is worked out once per monoid."""
        return self._dual

    @cached_property
    def _dual(self) -> Cone:
        return dual_cone(self.cone)

    def __str__(self) -> str:
        return f"SharpFsMonoid(rank {self.rank}, rays {list(self.cone.rays)})"


@dataclass(frozen=True)
class MarkedMonoid:
    base: SharpFsMonoid
    e_pi: Vec
    a_div: Vec

    def __post_init__(self):
        if len(self.e_pi) != self.base.rank or len(self.a_div) != self.base.rank:
            raise ValueError("marking dimension mismatch")
        if not self.base.contains(self.e_pi):
            raise ValueError("e_pi must belong to the monoid")

    def is_local(self) -> bool:
        return not is_zero_vec(self.e_pi)


@dataclass(frozen=True)
class MonoidDivisor:
    """Integer tuple indexed by the height-one primes (facet normals)."""

    values: tuple[tuple[Vec, int], ...]

    @staticmethod
    def make(d: dict[Vec, int]) -> "MonoidDivisor":
        return MonoidDivisor(tuple(sorted(d.items())))

    def as_dict(self) -> dict[Vec, int]:
        return dict(self.values)


def monoid_from_generators(ambient_rank: int, gens: Sequence[Vec]) -> SharpFsMonoid:
    """Saturation of the monoid generated by ``gens``.

    The lattice is the group generated by the generators; the result is in
    normalized coordinates with the change of basis recorded in ``lattice``
    (columns give the basis in the original coordinates).
    """
    gens = [tuple(g) for g in gens]
    for g in gens:
        if len(g) != ambient_rank:
            raise ValueError("dimension mismatch")
    nonzero = [g for g in gens if not is_zero_vec(g)]
    if not nonzero:
        raise ValueError("need at least one nonzero generator")
    r = mat_rank(tuple(nonzero))
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


def _rays_in_basis(rays: Sequence[Vec], bmat: Mat) -> list[Vec]:
    inv, _ = scaled_inverse(bmat)
    return [primitive(mat_vec(inv, ray)) for ray in rays]


def sharpify(lattice: Mat, cone: Cone) -> tuple[SharpFsMonoid, int, Mat]:
    """Quotient a (lattice, cone) pair by the unit group of its monoid.

    ``lattice`` is a square invertible basis matrix in the cone's ambient
    coordinates (identity for the standard lattice).  Returns the sharp
    quotient, the rank of the unit group, and the quotient map as a matrix
    acting on lattice-basis coordinates.
    """
    r = len(lattice)
    if cone.ambient_rank != r:
        raise ValueError("dimension mismatch")
    cone_l = cone_from_rays(r, _rays_in_basis(cone.rays, lattice))
    lines = cone_l.lineality()
    u = len(lines)
    if u == 0:
        proj = identity(r)
        pointed = cone_l
    else:
        # the unit lattice is the saturation of the line span in Z^r
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


def height1_primes(m: SharpFsMonoid) -> list[Vec]:
    """Height-one primes, identified by their primitive facet normals."""
    return list(m.cone.facets)


def valuation(m: SharpFsMonoid, facet: Vec) -> Vec:
    """Valuation at the height-one prime labelled by ``facet``.

    Returned in normalized (dual-basis) coordinates; its kernel on the
    monoid is the facet's face.
    """
    if tuple(facet) not in set(m.cone.facets):
        raise KeyError(f"unknown facet {facet}")
    return tuple(facet)


def face_lattice(m: SharpFsMonoid) -> list[tuple[Cone, int]]:
    """Faces of the monoid's cone, each with the height of the matching prime
    (the complement of the face); height equals the face's codimension.
    """
    return [(f, m.rank - f.dim) for f in faces(m.cone)]


def root_index(mm: MarkedMonoid) -> int:
    """Largest ``k`` with ``e_pi = k * x`` for a lattice point ``x``."""
    if not mm.is_local():
        raise ValueError("root index needs a local marking (e_pi != 0)")
    g, _ = content_primitive(mm.e_pi)
    return g


def base_change(mm: MarkedMonoid, d: int) -> MarkedMonoid:
    """Ramified base change of degree ``d``: adjoin ``e_pi / d`` and saturate.

    Implemented by rescaling the ambient coordinates by ``d`` (making the new
    generator integral), reducing to a Hermite basis and renormalizing; the
    cone is unchanged up to the recorded change of basis.
    """
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
    newcone = cone_from_rays(r, _rays_in_basis(mm.base.cone.rays, bmat))
    new_e = solve_integer(bmat, mm.e_pi)  # old e_pi is d * (e_pi/d) in scaled coords
    new_a = solve_integer(bmat, vec_scale(d, mm.a_div))
    if new_e is None or new_a is None:
        raise RuntimeError("marking outside the base-changed lattice")
    embed = mat_mul(mm.base.lattice, bmat)
    return MarkedMonoid(SharpFsMonoid(r, newcone, embed), new_e, new_a)


def divisor_from_element(m: SharpFsMonoid, a: Vec) -> MonoidDivisor:
    """Divisor of the principal fractional ideal generated by ``a``."""
    if len(a) != m.rank:
        raise ValueError("dimension mismatch")
    return MonoidDivisor.make({f: dot(f, a) for f in m.cone.facets})


def divisor_add(d1: MonoidDivisor, d2: MonoidDivisor) -> MonoidDivisor:
    a, b = d1.as_dict(), d2.as_dict()
    if set(a) != set(b):
        raise ValueError("divisors live on different monoids")
    return MonoidDivisor.make({k: a[k] + b[k] for k in a})
