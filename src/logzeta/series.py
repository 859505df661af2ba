"""Rational generating functions in T over the symbolic Grothendieck ring.

A :class:`ZSeries` is a finite sum of terms

    c * T^beta / prod_j (1 - L^{a_j} T^{b_j}),        b_j >= 1,

with ``c`` an :class:`~logzeta.mring.MClass`.  Terms with identical
``(beta, denominators)`` are merged and zero coefficients dropped, giving a
canonical form used for printing and golden tests.  Mathematical equality is
decided exactly by clearing the denominators of the difference, in plain
integers: the coefficients are lifted to one power of ``(L-1)`` and the
numerator over the common denominator is a table of integers keyed by
T-degree, class symbol and L-exponent.  The symbols are free generators and
the lift is by a nonzero factor, so the difference is zero exactly when the
table is; see :func:`equal`.  The power-series expansion works the same way:
each distinct denominator is expanded once into a table of integers, the
terms' numerators are summed against it per T-degree, symbol and
``(L-1)``-power, and each coefficient is lifted and normalised once; see
:meth:`ZSeries.expand`.

The heart of the module is :func:`relint_cone_sum`, the one cone-sum kernel
shared by the fan-model, Newton and monoid pipelines: the closed form of the
sum of ``L^{-<u,a>} T^{<u,e>}`` over the lattice points ``u`` in the
relative interior of a rational cone, computed by half-open simplicial
decomposition.  The decomposition depends on the cone alone and is read
from a bounded per-cone table in :mod:`~logzeta.cones`; a call pairs ``e``
and ``a`` with its box points and buckets them.  Rays paired to zero by
``e`` ("horizontal" directions) contribute pure-L geometric factors; they
are folded into the coefficient as ``L/(L-1)`` and are only legal when
``a`` pairs them to one, so the fold is exact.  The kernel returns pure
geometry, the unit-weight sum; callers attach their classes per term,
:func:`cone_series` for the interior dual points of a monoid.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

from .cones import Cone, _relint_pieces, box_points
from .intlin import Vec, dot
from .mring import UNIT_SYMBOL, LaurentPoly, MClass, MCoeff, merge
from .monoids import MarkedMonoid

Denoms = tuple[tuple[int, int], ...]  # sorted multiset of (a, b), b >= 1
Key = tuple[int, Denoms]


def _canon_denoms(denoms: Iterable[tuple[int, int]]) -> Denoms:
    ds = tuple(sorted((int(a), int(b)) for a, b in denoms))
    if any(b < 1 for _, b in ds):
        raise ValueError("denominator T-exponent must be positive")
    return ds


def _canon_key(beta: int, denoms: Iterable[tuple[int, int]]) -> Key:
    if beta < 0:
        raise ValueError("T-exponent must be nonnegative")
    return beta, _canon_denoms(denoms)


class ZSeries:
    """Finite sum of rational terms in T with MClass coefficients.

    Only the public constructors check and sort keys; ring operations go
    through :meth:`_sum_pairs` with keys that are already canonical.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, MClass] | None = None):
        self.terms = merge((_canon_key(*k), c) for k, c in (terms or {}).items())

    @classmethod
    def _sum_pairs(cls, pairs: Iterable[tuple[Key, MClass]]) -> "ZSeries":
        """Series of the merged ``(key, coefficient)`` pairs, unchecked."""
        out = object.__new__(cls)
        out.terms = merge(pairs)
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "ZSeries":
        return ZSeries()

    @staticmethod
    def term(c: MClass, beta: int, denoms: Iterable[tuple[int, int]] = ()) -> "ZSeries":
        return ZSeries._sum_pairs(((_canon_key(beta, denoms), c),))

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
            ((b1 + b2, tuple(sorted(ds1 + ds2))), c1 * c2)
            for (b1, ds1), c1 in self.terms.items()
            for (b2, ds2), c2 in other.terms.items()
        )

    def scale(self, c: MClass) -> "ZSeries":
        return ZSeries._sum_pairs((k, v * c) for k, v in self.terms.items())

    def subst_T_L(self, k: int) -> "ZSeries":
        """Substitute T -> L^k T."""
        return ZSeries._sum_pairs(
            ((beta, tuple(sorted((a + k * b, b) for a, b in ds))), c.scale_l(k * beta))
            for (beta, ds), c in self.terms.items()
        )

    # -- expansion, limits, poles -------------------------------------------

    def expand(self, degree: int) -> list[MClass]:
        """Coefficients of T^1 ... T^degree of the power-series expansion.

        Worked in plain integers, as :func:`equal` is.  ``1/prod(1 - L^a T^b)``
        depends on the denominators alone, so it is expanded once per distinct
        tuple into a table ``m -> {L-exponent: count}``.  The symbols are free
        generators, so each is expanded on its own: per T-degree, the terms
        add their numerators times one row of their tables into integer
        tables keyed by ``den_pow``, which are lifted to one power of ``(L-1)``
        and normalised once.  Canonical coefficients are unique, so the
        result equals the sum of the terms' expansions in classes.
        """
        if degree < 0:
            raise ValueError(f"expansion degree must be nonnegative, not {degree}")
        live = {k: c for k, c in self.terms.items() if k[0] <= degree}
        reach: dict[Denoms, int] = {}  # the highest T-power each tuple needs
        for beta, ds in live:
            reach[ds] = max(reach.get(ds, 0), degree - beta)
        tables = {ds: _geometric_table(ds, m) for ds, m in reach.items()}
        by_symbol: dict[str, list[tuple[int, list[dict[int, int]], MCoeff]]] = {}
        for (beta, ds), c in live.items():
            for sym, cf in c.terms.items():
                by_symbol.setdefault(sym, []).append((beta, tables[ds], cf))
        out: list[list[tuple[str, MCoeff]]] = [[] for _ in range(degree)]
        for sym, parts in by_symbol.items():
            for t in range(1, degree + 1):
                by_pow: dict[int, dict[int, int]] = {}  # den_pow -> {L-exponent: count}
                for beta, table, cf in parts:
                    row = table[t - beta] if beta <= t else None
                    if not row:
                        continue
                    cell = by_pow.setdefault(cf.den_pow, {})
                    for e, n in cf.num.coeffs:
                        for i, k in row.items():
                            cell[e + i] = cell.get(e + i, 0) + n * k
                if by_pow:
                    out[t - 1].append((sym, _lifted_sum(by_pow)))
        return [MClass._sum_pairs(pairs) for pairs in out]

    def limit_T_inf(self) -> MClass:
        """Value of the series as T grows without bound.

        Substituting T = 1/S and letting S -> 0, a term contributes nothing
        when beta < sum(b_j), and c * (-1)^{#denoms} L^{-sum(a_j)} when equal;
        beta > sum(b_j) has no limit and raises.
        """
        out = MClass.zero()
        for (beta, ds), c in self.terms.items():
            bsum = sum(b for _, b in ds)
            if beta > bsum:
                raise ValueError(
                    f"term with T-exponent {beta} exceeding denominator degree {bsum} has no limit"
                )
            if beta == bsum:
                sign = -1 if len(ds) % 2 else 1
                out = out + c.scale_l(-sum(a for a, _ in ds)) * MClass.from_int(sign)
        return out

    def candidate_poles(self) -> frozenset[Fraction]:
        """``a/b`` for each distinct denominator factor ``1 - L^a T^b``."""
        factors = {d for (_, ds) in self.terms for d in ds}
        return frozenset(Fraction(a, b) for a, b in factors)

    # -- exact equality ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        return equal(self, other)

    # equality is mathematical, not structural, so series are not hashable
    __hash__ = None

    # -- presentation --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, Denoms], MClass]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (beta, ds), c in self.sorted_terms():
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            body = cs
            if beta == 1:
                body += "*T"
            elif beta > 1:
                body += f"*T^{beta}"
            if ds:
                factors = [_denom_str(a, b) for a, b in sorted(ds, key=lambda ab: (ab[1], ab[0]))]
                if len(factors) == 1:
                    body += f"/{factors[0]}"
                else:
                    body += "/(" + "*".join(factors) + ")"
            parts.append(body)
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
    the keys whose coefficients are structurally equal cancel, and the keys
    left are those of ``s1 - s2``.  Every live coefficient is lifted to the
    one denominator ``(L-1)^D``, ``D`` the largest power among them, which
    leaves integers on ``(symbol, L-exponent)``; each term is multiplied by
    its missing factors ``1 - L^a T^b`` into one integer table keyed
    ``(T-degree, symbol, L-exponent)``.  The symbols are free generators and
    multiplying by the nonzero ``(L-1)^D`` is injective, so the difference
    vanishes exactly when every entry of the table does.
    """
    live = [(k, 1, c) for k, c in s1.terms.items() if s2.terms.get(k) != c]
    live += [(k, -1, c) for k, c in s2.terms.items() if s1.terms.get(k) != c]
    counts: dict[tuple[int, int], int] = {}
    for (_, ds), _, _ in live:
        for d in set(ds):
            counts[d] = max(counts.get(d, 0), ds.count(d))
    top = max((cf.den_pow for _, _, c in live for cf in c.terms.values()), default=0)
    lifts = [_l_minus_1_power(k) for k in range(top + 1)]
    total: dict[tuple[int, str, int], int] = {}
    for (beta, ds), sign, c in live:
        part: dict[tuple[int, str, int], int] = {}
        for sym, cf in c.terms.items():
            for e, n in cf.num.coeffs:
                for i, m in lifts[top - cf.den_pow]:
                    part[beta, sym, e + i] = part.get((beta, sym, e + i), 0) + sign * n * m
        for (a, b), k in counts.items():
            for _ in range(k - ds.count((a, b))):
                for (t, sym, e), n in list(part.items()):
                    part[t + b, sym, e + a] = part.get((t + b, sym, e + a), 0) - n
        for key, n in part.items():
            total[key] = total.get(key, 0) + n
    return not any(total.values())


def _geometric_table(ds: Denoms, degree: int) -> list[dict[int, int]]:
    """``1/prod(1 - L^a T^b)`` up to ``T^degree``: entry ``m`` maps each
    L-exponent to its count at ``T^m``."""
    table: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(degree)]
    for a, b in ds:
        # times 1/(1 - L^a T^b): row m gains L^a times the updated row m - b
        for m in range(b, degree + 1):
            row = table[m]
            for e, k in table[m - b].items():
                row[e + a] = row.get(e + a, 0) + k
    return table


def _lifted_sum(by_pow: Mapping[int, Mapping[int, int]]) -> MCoeff:
    """The normalised sum of ``num / (L-1)^den_pow`` over ``den_pow -> num``,
    each ``num`` a map from L-exponent to coefficient."""
    top = max(by_pow)
    num: dict[int, int] = {}
    for den_pow, cell in by_pow.items():
        for i, k in _l_minus_1_power(top - den_pow):
            for e, n in cell.items():
                num[e + i] = num.get(e + i, 0) + n * k
    return MCoeff.make(LaurentPoly.from_dict(num), top)


def _l_minus_1_power(k: int) -> list[tuple[int, int]]:
    """``(L-1)^k`` as ``(L-exponent, coefficient)`` pairs."""
    return [(i, comb(k, i) * (-1) ** (k - i)) for i in range(k + 1)]


def format_poles(poles: frozenset[Fraction]) -> str:
    return ", ".join(str(p) for p in sorted(poles))


# ---------------------------------------------------------------------------
# Cone sums in closed form.


def relint_cone_sum(cone: Cone, e: Vec, a: Vec) -> ZSeries:
    """Closed form, on the unit symbol, of ``sum L^{-<u,a>} T^{<u,e>}`` over
    the lattice points ``u`` in the relative interior of ``cone``.

    Uses the half-open simplicial decomposition of the cone and
    fundamental-parallelepiped enumeration.  Rays with ``<v,e> = 0`` must
    satisfy ``<v,a> = 1`` (checked on every call), and fold into the
    coefficient as a factor ``L/(L-1)`` each.  The decomposition and each
    piece's Smith frame depend on the cone alone, so they are read from
    ``cones._relint_pieces``; only the pairing of each box point with ``e``
    and ``a`` and the bucketing by T-exponent are done per call.  The pieces
    are the ones a fresh decomposition gives, so the result is too.  Bare
    coefficients are merged per term, then each is wrapped once.
    """
    for v in cone.rays:
        if dot(v, e) == 0 and dot(v, a) != 1:
            raise ValueError(
                f"horizontal ray {v} must pair to 1 with the divisor, got {dot(v, a)}"
            )
    unit: list[tuple[Key, MCoeff]] = []
    for piece in _relint_pieces(cone):
        denoms = []
        horiz = 0
        for g in piece.gens:
            b = dot(g, e)
            if b == 0:
                horiz += 1  # <g,a> == 1 here; factor 1/(1-L^{-1}) = L/(L-1)
            else:
                denoms.append((-dot(g, a), b))
        key_denoms = _canon_denoms(denoms)
        # group the parallelepiped points by T-exponent, summing L-monomials
        numerators: dict[int, dict[int, int]] = {}
        for u0 in box_points(piece):
            beta = dot(u0, e)
            lexp = -dot(u0, a)
            bucket = numerators.setdefault(beta, {})
            bucket[lexp] = bucket.get(lexp, 0) + 1
        for beta, bucket in numerators.items():
            coeff = MCoeff.make(LaurentPoly.from_dict(bucket).shift(horiz), horiz)
            unit.append(((beta, key_denoms), coeff))
    wrapped = ((k, MClass._sum_pairs(((UNIT_SYMBOL, c),))) for k, c in merge(unit).items())
    return ZSeries._sum_pairs(wrapped)


def cone_series(mm: MarkedMonoid, weight: MClass) -> ZSeries:
    """Closed form of ``weight * sum L^{-<u,a>} T^{<u,e>}`` over interior dual
    points ``u`` of the marked monoid; see :func:`relint_cone_sum`."""
    if not mm.is_local():
        raise ValueError("cone series needs a local marking (e_pi != 0)")
    return relint_cone_sum(mm.base.dual(), mm.e_pi, mm.a_div).scale(weight)
