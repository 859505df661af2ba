"""Rational generating functions in T over the symbolic Grothendieck ring.

A :class:`ZSeries` is a finite sum of terms

    c * [s] * T^beta / prod_j (1 - L^{a_j} T^{b_j}),        b_j >= 1,

with ``c`` an :class:`~logzeta.mring.MCoeff` and ``[s]`` a class symbol,
kept as one map ``(beta, denominators, s) -> c``.  Terms of one entry are
merged and zero coefficients dropped, giving a canonical form, grouped into
classes per ``(beta, denominators)`` to print.  Mathematical equality is decided
exactly by clearing the denominators of the difference, in plain integers:
the coefficients are lifted to one power of ``(L-1)`` and the numerator over
the common denominator is a table of integers keyed by T-degree, class
symbol and L-exponent.  The symbols are free generators and the lift is by a
nonzero factor, so the difference is zero exactly when the table is; see
:func:`equal`.  The power-series expansion works the same way: each distinct
denominator is expanded once into a table of integers, whose rows are
weighted by the terms' coefficients and summed by :func:`_weighted_sum`, the
integer product of the cone sums; see :meth:`ZSeries.expand`.
Both lifts, and every other ``(L-1)``-power or unit shift of a coefficient,
are the ring layer's (:mod:`~logzeta.mring`); this module builds no
coefficient from its fields.

The heart of the module is :func:`_relint_buckets`, the one cone-sum kernel
shared by the fan-model, Newton and monoid pipelines: the closed form of the
sum of ``L^{-<u,a>} T^{<u,e>}`` over the lattice points ``u`` in the
relative interior of a pointed rational cone, given by its sorted extreme
rays, the ray masks of its pointed facets and its dimension, by half-open
simplicial decomposition read from a bounded table in :mod:`~logzeta.cones`
keyed by them.  Every caller hands in the incidence its own tables hold:
the Newton face table its face lattice's, a fan cell its span
coordinates', a monoid its dual cone's.  Each pipeline calls the kernel
once, with all of its cones, and the kernel counts their box points
against one bound itself.  Per cone it pairs each piece's generators with
``e`` and ``a`` once and counts the box points into integer buckets from
their residues on the piece's Smith frame, building no point as a vector.
Rays paired to zero by ``e`` each contribute ``L/(L-1)``, legal only when
``a`` pairs them to one, which each pipeline makes sure of at its entry:
the kernel adds their ``L`` to the exponents and keys their ``(L-1)`` in
the bucket, so a bucket ``(beta, D, h)`` stands for its L-monomials times
``T^beta/((L-1)^h D)``.
Callers attach their classes: the Newton face table makes one coefficient
per bucket, and :func:`_weighted_sum` multiplies by weights in integers,
one normalisation per output entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator, Mapping

from .cones import _relint_pieces
from .intlin import Vec, dot
from .mring import MClass, MCoeff, _add_lifted, _lifted_sum, _symbol_product, merge
from .monoids import MarkedMonoid

Denoms = tuple[tuple[int, int], ...]  # sorted multiset of (a, b), b >= 1
Key = tuple[int, Denoms]
Buckets = dict[tuple[int, Denoms, int], dict[int, int]]  # see _relint_buckets


def _canon_denoms(denoms: Iterable[tuple[int, int]]) -> Denoms:
    ds = tuple(sorted((int(a), int(b)) for a, b in denoms))
    if any(b < 1 for _, b in ds):
        raise ValueError("denominator T-exponent must be positive")
    return ds


class ZSeries:
    """Finite sum of terms in T: ``terms`` maps ``(beta, denoms, symbol)``
    to a nonzero coefficient.  Only the public constructors check and sort
    keys, one class per key; ring operations go through :meth:`_sum_pairs`
    with entries already canonical.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, MClass] | None = None):
        self.terms = ZSeries.sum(ZSeries.term(c, *k) for k, c in (terms or {}).items()).terms

    @classmethod
    def _sum_pairs(cls, pairs: Iterable[tuple[tuple[int, Denoms, str], MCoeff]]) -> "ZSeries":
        """Series of the merged ``(entry, coefficient)`` pairs, unchecked."""
        out = object.__new__(cls)
        out.terms = merge(pairs)
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "ZSeries":
        return ZSeries()

    @staticmethod
    def term(c: MClass, beta: int, denoms: Iterable[tuple[int, int]] = ()) -> "ZSeries":
        if beta < 0:
            raise ValueError("T-exponent must be nonnegative")
        ds = _canon_denoms(denoms)
        return ZSeries._sum_pairs(((beta, ds, sym), cf) for sym, cf in c.terms.items())

    @staticmethod
    def one() -> "ZSeries":
        return ZSeries.term(MClass.one(), 0)

    @staticmethod
    def sum(parts: Iterable["ZSeries"]) -> "ZSeries":
        """The sum of ``parts``, merged in one pass."""
        return ZSeries._sum_pairs(kv for p in parts for kv in p.terms.items())

    # -- ring operations ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ZSeries") -> "ZSeries":
        return ZSeries.sum((self, other))

    def __neg__(self) -> "ZSeries":
        return ZSeries._sum_pairs((k, -c) for k, c in self.terms.items())

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self + (-other)

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        return ZSeries._sum_pairs(
            ((b1 + b2, tuple(sorted(ds1 + ds2)), _symbol_product(s1, s2)), c1 * c2)
            for (b1, ds1, s1), c1 in self.terms.items()
            for (b2, ds2, s2), c2 in other.terms.items()
        )

    def subst_T_L(self, k: int) -> "ZSeries":
        """Substitute T -> L^k T; a power of L is a unit, so shifts stay canonical."""
        return ZSeries._sum_pairs(
            ((beta, tuple(sorted((a + k * b, b) for a, b in ds)), s), c.scale_l(k * beta))
            for (beta, ds, s), c in self.terms.items()
        )

    # -- expansion, limits, poles -------------------------------------------

    def expand(self, degree: int) -> list[MClass]:
        """Coefficients of T^1 ... T^degree of the power-series expansion.

        Worked in plain integers, as :func:`equal` is.  ``1/prod(1 - L^a T^b)``
        depends on the denominators alone, so it is expanded once per distinct
        tuple into a table ``m -> {L-exponent: count}``.  Row ``m`` of a term's
        table is a bucket at T-degree ``beta + m`` weighted by the term's
        coefficient, and :func:`_weighted_sum` adds them up in integers,
        normalising each coefficient once, as for the cone sums.  Canonical
        coefficients are unique, so the result equals the sum of the terms'
        expansions in classes.
        """
        if degree < 0:
            raise ValueError(f"expansion degree must be nonnegative, not {degree}")
        if degree > EXPAND_MAX_ENTRIES:
            raise ValueError(f"expansion degree {degree} is over {EXPAND_MAX_ENTRIES}")
        live = {k: c for k, c in self.terms.items() if k[0] <= degree}
        reach: dict[Denoms, int] = {}  # the highest T-power each tuple needs
        for beta, ds, _ in live:
            reach[ds] = max(reach.get(ds, 0), degree - beta)
        tables = {ds: _geometric_table(ds, m) for ds, m in reach.items()}
        parts = []
        for (beta, ds, sym), cf in live.items():
            rows = enumerate(tables[ds][: degree + 1 - beta], beta)  # (T-degree, row)
            parts.append(({(t, (), 0): row for t, row in rows if t and row}, MClass._of({sym: cf})))
        out: list[dict[str, MCoeff]] = [{} for _ in range(degree)]
        for (t, _, sym), cf in _weighted_sum(parts).terms.items():
            out[t - 1][sym] = cf
        return [MClass._of(terms) for terms in out]

    def limit_T_inf(self) -> MClass:
        """Value of the series as T grows without bound.

        Substituting T = 1/S and letting S -> 0, a term contributes nothing
        when beta < sum(b_j), and c * (-1)^{#denoms} L^{-sum(a_j)} when equal;
        beta > sum(b_j) has no limit and raises.
        """
        pairs = []
        for (beta, ds, sym), c in self.terms.items():
            bsum = sum(b for _, b in ds)
            if beta > bsum:
                raise ValueError(
                    f"term with T-exponent {beta} exceeding denominator degree {bsum} has no limit"
                )
            if beta == bsum:
                cf = c.scale_l(-sum(a for a, _ in ds))
                pairs.append((sym, -cf if len(ds) % 2 else cf))
        return MClass._sum_pairs(pairs)

    def candidate_poles(self) -> frozenset[Fraction]:
        """``a/b`` for each distinct denominator factor ``1 - L^a T^b``."""
        factors = {d for (_, ds, _) in self.terms for d in ds}
        return frozenset(Fraction(a, b) for a, b in factors)

    # -- exact equality ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        return equal(self, other)

    # equality is mathematical, not structural, so series are not hashable
    __hash__ = None

    # -- presentation --------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Key, MClass]]:
        """The terms in key order, the symbols of each key as one class.  The
        entries are distinct, so the sort never compares two coefficients."""
        for key, group in groupby(sorted(self.terms.items()), key=lambda kv: kv[0][:2]):
            yield key, MClass._of({sym: c for (_, _, sym), c in group})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        below: dict[Denoms, str] = {(): ""}  # the text of each denominator
        for (beta, ds), c in self.sorted_terms():
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            body = cs
            if beta == 1:
                body += "*T"
            elif beta > 1:
                body += f"*T^{beta}"
            if ds not in below:
                factors = [_denom_str(a, b) for a, b in sorted(ds, key=lambda ab: (ab[1], ab[0]))]
                below[ds] = f"/{factors[0]}" if len(factors) == 1 else "/(" + "*".join(factors) + ")"
            parts.append(body + below[ds])
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ZSeries({self})"


def _denom_str(a: int, b: int) -> str:
    t = "T" if b == 1 else f"T^{b}"
    if a == 0:
        return f"(1-{t})"
    l = "L" if a == 1 else f"L^{a}"
    return f"(1-{l}*{t})"


def equal(s1: ZSeries, s2: ZSeries) -> bool:
    """Exact equality in the ring: the difference has a zero numerator over
    the common denominator of its own terms.

    No class of the difference is built.  Coefficients are canonical, so
    the entries whose coefficients are structurally equal cancel, and the
    entries left are those of ``s1 - s2``.  Every live coefficient is lifted
    to the one denominator ``(L-1)^D``, ``D`` the largest power among them,
    which leaves integers on L-exponents; each term is multiplied by its
    missing factors ``1 - L^a T^b`` into one integer table keyed
    ``(T-degree, symbol, L-exponent)``.  The symbols are free generators and
    multiplying by the nonzero ``(L-1)^D`` is injective, so the difference
    vanishes exactly when every entry of the table does.
    """
    live = [(k, 1, c) for k, c in s1.terms.items() if s2.terms.get(k) != c]
    live += [(k, -1, c) for k, c in s2.terms.items() if s1.terms.get(k) != c]
    counts: dict[tuple[int, int], int] = {}
    for (_, ds, _), _, _ in live:
        for d in set(ds):
            counts[d] = max(counts.get(d, 0), ds.count(d))
    top = max((c.den_pow for _, _, c in live), default=0)
    total: dict[tuple[int, str, int], int] = {}
    for (beta, ds, sym), sign, c in live:
        lifted: dict[int, int] = {}
        _add_lifted(lifted, c.num.coeffs, top - c.den_pow)
        part = {(beta, e): sign * n for e, n in lifted.items()}
        for (a, b), k in counts.items():
            for _ in range(k - ds.count((a, b))):
                for (t, e), n in list(part.items()):
                    part[t + b, e + a] = part.get((t + b, e + a), 0) - n
        for (t, e), n in part.items():
            total[t, sym, e] = total.get((t, sym, e), 0) + n
    return not any(total.values())


# Most entries an expansion holds: coefficients, or (T-power, L-exponent)
# entries of one denominator's table.  The cusp's tables to T^2000 hold
# 336,000 entries and its expansion takes 1.5 s and 144 MB (2-vCPU Xeon,
# Python 3.11); the tables grow with the square of the degree, and T^10000
# took 3.1 GB.
EXPAND_MAX_ENTRIES = 500_000


def _geometric_table(ds: Denoms, degree: int) -> list[dict[int, int]]:
    """``1/prod(1 - L^a T^b)`` up to ``T^degree``: entry ``m`` maps each
    L-exponent to its count at ``T^m``.  Raises ``ValueError`` once the
    table holds more than :data:`EXPAND_MAX_ENTRIES` entries."""
    table: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(degree)]
    held = 1
    for a, b in ds:
        # times 1/(1 - L^a T^b): row m gains L^a times the updated row m - b
        for m in range(b, degree + 1):
            row = table[m]
            held -= len(row)
            for e, k in table[m - b].items():
                row[e + a] = row.get(e + a, 0) + k
            held += len(row)
            if held > EXPAND_MAX_ENTRIES:
                raise ValueError(
                    f"expansion needs a table of more than {EXPAND_MAX_ENTRIES} entries; use a smaller degree"
                )
    return table


def format_poles(poles: frozenset[Fraction]) -> str:
    return ", ".join(str(p) for p in sorted(poles))


# ---------------------------------------------------------------------------
# Cone sums in closed form.


# Most box points one pipeline call may enumerate.  Each fan_poincare, Newton
# face table and cone_series calls the kernel once, which counts the box
# points of the pieces of all the cones it is handed against this bound; a
# piece holds the product of its Smith divisors.  The seed-0 benchmark pools
# reach 1,494 per pipeline call, the Tier-1 suite 7,161 (a pinned Newton
# output), and the kernel's property test, whose cones have coordinates 0-3
# in a unimodular basis of rank at most 5, stays below 3^5 * 5! = 29,160 per
# call.  The Newton support {(N, 0), (0, 1)} has a cone of index N, and its
# table N + 5 box points: newton-zeta at N = 49,990 takes 1.7 s and 107 MB
# and prints 6.8 MB (2-vCPU Xeon, Python 3.11), and at N = 100,000 it took
# 2.6 s and 196 MB before the bound.  A bound per cone would let a model of
# 30 cells of index 40,000 each run 4.2 s.
CONE_SUM_MAX_BOX_POINTS = 50_000


def _relint_buckets(cones: Iterable[tuple[tuple[Vec, ...], tuple[int, ...], int, Vec, Vec]]) -> Iterator[Buckets]:
    """Closed forms of ``sum L^{-<u,a>} T^{<u,e>}`` over the lattice points
    ``u`` in the relative interiors of ``cones``, the cones of one pipeline
    call, yielded in order.  A cone ``(rays, on_facet, dim, e, a)`` is the
    pointed cone of dimension ``dim`` whose sorted extreme rays are ``rays``
    and whose pointed facets hold the rays ``on_facet``, in the ambient
    rank ``len(e)``.  Its sum comes as integer buckets: entry
    ``(beta, denominators, h) -> {L-exponent: count}`` stands for those
    L-monomials times ``T^beta / ((L-1)^h prod(1 - L^a T^b))``, ``h`` the
    number of the piece's generators ``g`` with ``<g,e> = 0``.  Each such
    generator contributes ``L/(L-1)``, whose ``L`` the exponents already
    hold, and must satisfy ``<g,a> = 1``.  The callers' trust boundaries see
    to that: a fan model's verdict holds the horizontal-divisor rule, a
    Newton normal ray with ``m = 0`` is a coordinate vector, on which
    ``sigma`` is 1, and :func:`cone_series` checks its marking on entry.
    The pieces and their Smith frames are read from
    ``cones._relint_pieces``, keyed by the cone.

    Per cone, each generator is paired with ``e`` and ``a`` once, and no
    box point is built as a vector: the point with residues ``lambda`` over
    the frame's last divisor ``D`` is ``sum_j lambda_j g_j / D``, so it
    falls in the bucket ``beta = sum_j lambda_j <g_j,e> / D`` at the
    L-exponent ``h - sum_j lambda_j <g_j,a> / D``, both exact.

    The box points of all the cones count against one bound: ``ValueError``
    is raised before enumerating the cone that would take the total past
    :data:`CONE_SUM_MAX_BOX_POINTS`.
    """
    spent = 0
    for rays, on_facet, dim, e, a in cones:
        pieces = _relint_pieces(len(e), rays, on_facet, dim)
        spent += sum(piece.box_count() for piece in pieces)
        if spent > CONE_SUM_MAX_BOX_POINTS:
            raise ValueError(
                f"cone sum needs {spent} box points, more than {CONE_SUM_MAX_BOX_POINTS}; the cone is too singular"
            )
        out: Buckets = {}
        for piece in pieces:
            on_e = [dot(g, e) for g in piece.gens]
            on_a = [dot(g, a) for g in piece.gens]
            # <g,a> == 1 where <g,e> == 0; factor 1/(1-L^{-1}) = L/(L-1),
            # its L added to every exponent and its L-1 keyed as horiz
            horiz = on_e.count(0)
            key_denoms = _canon_denoms((-ga, ge) for ge, ga in zip(on_e, on_a) if ge)
            big, residues = piece._residues()
            for lam in residues:
                bucket = out.setdefault((dot(lam, on_e) // big, key_denoms, horiz), {})
                lexp = horiz - dot(lam, on_a) // big
                bucket[lexp] = bucket.get(lexp, 0) + 1
        yield out


def _weighted_sum(parts: Iterable[tuple[Buckets, MClass]]) -> ZSeries:
    """The sum of the kernel's buckets times their weights, in integers: a
    bucket ``(beta, D, h)``, its L-monomials over ``(L-1)^h``, times
    ``p/(L-1)^k`` adds ``count·p`` to its entry's table under
    ``den_pow = k + h``; each entry is normalised once by ``_lifted_sum``."""
    tables: dict[tuple[int, Denoms, str], dict[int, dict[int, int]]] = {}
    for buckets, weight in parts:
        for (beta, ds, h), bucket in buckets.items():
            for sym, cf in weight.terms.items():
                cell = tables.setdefault((beta, ds, sym), {}).setdefault(cf.den_pow + h, {})
                for e, n in cf.num.coeffs:
                    for i, k in bucket.items():
                        cell[e + i] = cell.get(e + i, 0) + n * k
    return ZSeries._sum_pairs([(key, _lifted_sum(by_pow)) for key, by_pow in tables.items()])


def cone_series(mm: MarkedMonoid, weight: MClass) -> ZSeries:
    """Closed form of ``weight * sum L^{-<u,a>} T^{<u,e>}`` over interior dual
    points ``u`` of the marked monoid, its weight attached in integers.
    Raises ``ValueError`` when a ray of the dual cone that ``e`` pairs to
    zero does not pair to 1 with ``a``, the horizontal-divisor rule."""
    if not mm.is_local():
        raise ValueError("cone series needs a local marking (e_pi != 0)")
    dual = mm.base.dual()
    for v in dual.rays:
        if dot(v, mm.e_pi) == 0 and dot(v, mm.a_div) != 1:
            raise ValueError(f"horizontal ray {v} must pair to 1 with the divisor, got {dot(v, mm.a_div)}")
    # a sharp fs monoid's cone is strictly convex and full dimensional, so
    # its dual is pointed, and all of its facets are pointed ones
    return _weighted_sum(zip(_relint_buckets([(dual.rays, dual.incidence, dual.dim, mm.e_pi, mm.a_div)]), [weight]))
