"""Symbolic localized Grothendieck ring.

Elements are finite sums ``sum_s  c_s(L) * [s]`` where ``s`` runs over opaque
class symbols (the reserved symbol ``"1"`` stands for the constant part) and
each coefficient ``c_s`` is a Laurent polynomial in ``L`` divided by a power
of ``(L - 1)``.  Coefficients are kept normalized: either the denominator
power is zero or ``(L - 1)`` does not divide the numerator.

Every operation with a power of ``(L - 1)`` lives here.  One routine adds
a numerator times ``(L - 1)^k`` into a table of integers by binomial
coefficients; a sum over several denominator powers, of coefficients or of
the integer tables of :mod:`~logzeta.series`, is taken over the largest
power through it.  Normalizing divides by one exact quotient.  Multiplying
by the unit ``L^k`` (:meth:`MCoeff.scale_l`) keeps the normal form, so it
skips normalizing.

Products of symbols are formal: multiplying ``[A]`` and ``[B]`` yields the
symbol ``A*B`` (atom multisets merged and sorted), with no geometric meaning
attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Any, Hashable, Iterable, Mapping

UNIT_SYMBOL = "1"


def merge(pairs: Iterable[tuple[Hashable, Any]]) -> dict:
    """Sum the values of ``(key, value)`` pairs that share a key, in order,
    and drop the keys whose sum is zero.

    This is the one place where the canonical forms of :class:`MClass` and
    :class:`~logzeta.series.ZSeries` are built: values need ``+`` and
    ``is_zero()``, and the keys are taken as they come, already checked.
    """
    out: dict = {}
    for k, v in pairs:
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


class LPoleError(ValueError):
    """Raised when a coefficient retains a pole at L = 1."""


# ---------------------------------------------------------------------------
# Laurent polynomials in L over the integers.


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial in one variable, stored as exp -> coeff."""

    coeffs: tuple[tuple[int, int], ...]  # sorted by exponent, no zeros

    @staticmethod
    def from_dict(d: Mapping[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(((0, 1),))

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly.from_dict({exp: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return LaurentPoly.from_dict(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.coeffs))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(d)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by L^k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.coeffs))

    def evaluate(self, value: Fraction) -> Fraction:
        return sum((Fraction(c) * value**e for e, c in self.coeffs), Fraction(0))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in sorted(self.coeffs, reverse=True):
            if e == 0:
                body = str(abs(c))
            else:
                lpow = "L" if e == 1 else f"L^{e}"
                body = lpow if abs(c) == 1 else f"{abs(c)}*{lpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)


# ---------------------------------------------------------------------------
# Coefficients p(L) / (L-1)^k.


def _add_lifted(out: dict[int, int], coeffs: Iterable[tuple[int, int]], k: int) -> None:
    """Add ``p * (L-1)^k`` into ``out``, a table from L-exponent to integer
    coefficient, for ``p`` given by its ``(exponent, coefficient)`` pairs;
    ``(L-1)^k`` is expanded by the binomial theorem.  ``coeffs`` is read
    ``k + 1`` times."""
    m = (-1) ** k  # the coefficient of L^i in (L-1)^k
    for i in range(k + 1):
        for e, n in coeffs:
            out[e + i] = out.get(e + i, 0) + n * m
        m = -m * (k - i) // (i + 1)


def _exact_quotient(num: LaurentPoly) -> LaurentPoly:
    """``num / (L-1)`` for a numerator with ``num(1) = 0``.  The quotient's
    coefficient at ``L^j`` is minus the sum of those of ``num`` at ``L^i``,
    ``i <= j``, and vanishes from the top exponent of ``num`` on."""
    out = []
    acc = 0
    for (e, c), (nxt, _) in zip(num.coeffs, num.coeffs[1:]):
        acc -= c
        if acc:
            out += [(j, acc) for j in range(e, nxt)]
    return LaurentPoly(tuple(out))


# Widest numerator, from its lowest to its highest power of L, that is
# divided by (L-1): the quotient holds a term per power in between.  A fan
# model of 160 bytes whose weights cancel to (1 - L^-A)/(L-1) printed
# 9.9 MB in 1.0 s from `expand --degree 1` at A = 10^6, and ended in a
# MemoryError under a 2 GB address-space cap at A = 10^9.  Dividing a
# numerator of span 10,000 takes 0.8 ms, and its quotient prints as 79 KB
# (2-vCPU Xeon, Python 3.11).  The seed-0 benchmark pools and scripts/data
# divide spans of at most 2, the Tier-1 suite 142, and the coefficient
# parser admits 2,000.
COEFF_MAX_SPAN = 10_000


@dataclass(frozen=True)
class MCoeff:
    num: LaurentPoly
    den_pow: int  # >= 0

    @staticmethod
    def make(num: LaurentPoly, den_pow: int = 0) -> "MCoeff":
        """Normalize ``num / (L-1)^den_pow``.  ``(L-1)`` divides ``num``
        exactly when ``num(1)``, the sum of its coefficients, is zero, so
        that is tested before each division.  A numerator wider than
        :data:`COEFF_MAX_SPAN` raises ``ValueError`` before it is divided."""
        if den_pow < 0:
            raise ValueError("denominator power must be nonnegative")
        while den_pow > 0 and num.coeffs and sum(c for _, c in num.coeffs) == 0:
            span = num.coeffs[-1][0] - num.coeffs[0][0]
            if span > COEFF_MAX_SPAN:
                raise ValueError(
                    f"coefficient numerator spans {span} powers of L, more than {COEFF_MAX_SPAN};"
                    " its quotient by (L-1) is too long"
                )
            num = _exact_quotient(num)
            den_pow -= 1
        if num.is_zero():
            den_pow = 0
        return MCoeff(num, den_pow)

    @staticmethod
    def one() -> "MCoeff":
        return MCoeff(LaurentPoly.one(), 0)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "MCoeff") -> "MCoeff":
        k = max(self.den_pow, other.den_pow)
        num: dict[int, int] = {}
        _add_lifted(num, self.num.coeffs, k - self.den_pow)
        _add_lifted(num, other.num.coeffs, k - other.den_pow)
        return MCoeff.make(LaurentPoly.from_dict(num), k)

    def __neg__(self) -> "MCoeff":
        return MCoeff(-self.num, self.den_pow)

    def __mul__(self, other: "MCoeff") -> "MCoeff":
        # L-1 is prime, so it divides no product of two numerators it does
        # not divide, and a denominator-free product needs no normalizing.
        # A numerator without a denominator may be divisible, though.
        if (self.den_pow > 0) == (other.den_pow > 0):
            return MCoeff(self.num * other.num, self.den_pow + other.den_pow)
        return MCoeff.make(self.num * other.num, self.den_pow + other.den_pow)

    def mul_l1_pow(self, e: int) -> "MCoeff":
        """Multiply by (L-1)^e, e of any sign."""
        if e >= 0:
            num: dict[int, int] = {}
            _add_lifted(num, self.num.coeffs, e)
            return MCoeff.make(LaurentPoly.from_dict(num), self.den_pow)
        return MCoeff.make(self.num, self.den_pow - e)

    def scale_l(self, k: int) -> "MCoeff":
        """Multiply by the unit L^k, which keeps the normal form."""
        return MCoeff(self.num.shift(k), self.den_pow)

    def evaluate(self, value: Fraction) -> Fraction:
        if value == 1 and self.den_pow > 0:
            raise ZeroDivisionError("pole at L = 1")
        return self.num.evaluate(value) / (value - 1) ** self.den_pow

    def __str__(self) -> str:
        num = str(self.num)
        if self.den_pow == 0:
            return num
        den = "(L-1)" if self.den_pow == 1 else f"(L-1)^{self.den_pow}"
        if len(self.num.coeffs) > 1 or num.startswith("-"):
            num = f"({num})"
        return f"{num}/{den}"


def _lifted_sum(by_pow: Mapping[int, Mapping[int, int]]) -> MCoeff:
    """The normalised sum of ``num / (L-1)^den_pow`` over ``den_pow -> num``,
    each ``num`` a map from L-exponent to coefficient."""
    top = max(by_pow)
    num: dict[int, int] = {}
    for den_pow, cell in by_pow.items():
        _add_lifted(num, cell.items(), top - den_pow)
    return MCoeff.make(LaurentPoly.from_dict(num), top)


# ---------------------------------------------------------------------------
# Symbolic classes.


def _symbol_atoms(symbol: str) -> tuple[str, ...]:
    return tuple(symbol.split("*"))


def _check_symbol(symbol: str) -> str:
    if not symbol:
        raise ValueError("empty class symbol")
    if any(not atom or atom == UNIT_SYMBOL for atom in symbol.split("*")) and symbol != UNIT_SYMBOL:
        raise ValueError(f"bad class symbol {symbol!r}")
    return "*".join(sorted(_symbol_atoms(symbol)))


def _symbol_product(s1: str, s2: str) -> str:
    if s1 == UNIT_SYMBOL:
        return s2
    if s2 == UNIT_SYMBOL:
        return s1
    return "*".join(sorted(_symbol_atoms(s1) + _symbol_atoms(s2)))


class MClass:
    """Element of the symbolic localized Grothendieck ring.

    Only the public constructors check symbols; ring operations go through
    :meth:`_sum_pairs` with symbols that are already checked.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[str, MCoeff] | None = None):
        self.terms = merge((_check_symbol(sym), c) for sym, c in (terms or {}).items())

    @classmethod
    def _sum_pairs(cls, pairs: Iterable[tuple[str, MCoeff]]) -> "MClass":
        """Class of the merged ``(symbol, coefficient)`` pairs, unchecked."""
        return cls._of(merge(pairs))

    @classmethod
    def _of(cls, terms: dict[str, MCoeff]) -> "MClass":
        """Class of ``terms``, taken as they are: checked, merged, nonzero."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "MClass":
        return MClass()

    @staticmethod
    def one() -> "MClass":
        return MClass._sum_pairs(((UNIT_SYMBOL, MCoeff.one()),))

    @staticmethod
    def symbol(name: str) -> "MClass":
        return MClass({name: MCoeff.one()})

    @staticmethod
    def l_power(k: int) -> "MClass":
        return MClass._sum_pairs(((UNIT_SYMBOL, MCoeff.make(LaurentPoly.monomial(k))),))

    # -- ring operations ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "MClass") -> "MClass":
        return MClass._sum_pairs(chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "MClass":
        return MClass._sum_pairs((s, -c) for s, c in self.terms.items())

    def __sub__(self, other: "MClass") -> "MClass":
        return self + (-other)

    def __mul__(self, other: "MClass") -> "MClass":
        return MClass._sum_pairs(
            (_symbol_product(s1, s2), c1 * c2)
            for s1, c1 in self.terms.items()
            for s2, c2 in other.terms.items()
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MClass) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))

    def scale_l(self, k: int) -> "MClass":
        """Multiply by L^k; a unit keeps every coefficient normalized."""
        return MClass._sum_pairs(
            (s, c.scale_l(k)) for s, c in self.terms.items()
        )

    def mul_l1_pow(self, e: int) -> "MClass":
        """Multiply by (L-1)^e; negative ``e`` raises denominator powers."""
        return MClass._sum_pairs((s, c.mul_l1_pow(e)) for s, c in self.terms.items())

    # -- specializations ----------------------------------------------------

    def assert_no_l1_pole(self) -> "MClass":
        for sym, c in self.terms.items():
            if c.den_pow > 0:
                raise LPoleError(f"coefficient of [{sym}] has a pole at L = 1: {c}")
        return self

    def specialize(self, table: Mapping[str, Fraction], l_value: Fraction) -> Fraction:
        if l_value == 1:
            self.assert_no_l1_pole()
        total = Fraction(0)
        for sym, c in self.terms.items():
            factor = Fraction(1)
            if sym != UNIT_SYMBOL:
                for atom in _symbol_atoms(sym):
                    if atom not in table:
                        raise KeyError(f"no specialization for symbol {atom!r}")
                    factor *= Fraction(table[atom])
            total += c.evaluate(Fraction(l_value)) * factor
        return total

    # -- presentation -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[str, MCoeff]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for sym, c in self.sorted_terms():
            cs = str(c)
            if sym == UNIT_SYMBOL:
                parts.append(cs)
            elif cs == "1":
                parts.append(f"[{sym}]")
            else:
                if c.den_pow == 0 and (len(c.num.coeffs) > 1 or cs.startswith("-")):
                    cs = f"({cs})"
                parts.append(f"[{sym}]*{cs}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MClass({self})"
