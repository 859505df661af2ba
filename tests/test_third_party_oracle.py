"""Cross-checks against sympy's normal forms (independent implementation).

Sympy is a declared test dependency (``pip install -e .[test]``); the
module is skipped only when it is not importable.  Smith normal forms are
compared directly (the diagonal is unique); for Hermite forms we compare the
column span and the canonical shape, since conventions differ.  Rank,
determinant, inverse and rational solve, which share one fraction-free
elimination in ``intlin``, are checked against sympy's exact rational
arithmetic on matrices with forced dependent rows.  Series equality is
checked against sympy's normal form of rational functions in ``L``, ``T``
and one symbol per class atom.
"""

import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy import Matrix  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from logzeta.intlin import (
    det,
    hermite_normal_form,
    inverse_rational,
    mat,
    rank,
    smith_normal_form as our_snf,
    solve_integer,
    solve_rational,
)
from logzeta.series import ZSeries, equal

from genutil import series_pair


def random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_snf_diagonal_matches_sympy():
    rng = random.Random(99)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, m, n)
        ours, _, _ = our_snf(mat(rows))
        theirs = smith_normal_form(Matrix(rows))
        k = min(m, n)
        our_diag = [ours[i][i] for i in range(k)]
        their_diag = [abs(int(theirs[i, i])) for i in range(min(theirs.rows, theirs.cols))]
        their_diag += [0] * (k - len(their_diag))
        # sympy drops trailing zero rows in some versions; compare nonzero parts
        assert [d for d in our_diag if d] == [d for d in their_diag if d], rows


def test_hnf_column_spans_agree_with_input():
    rng = random.Random(100)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, m, n)
        a = mat(rows)
        h, _ = hermite_normal_form(a)
        # identical integer column spans, both directions
        for col in zip(*h):
            assert solve_integer(a, tuple(col)) is not None
        for col in zip(*a):
            assert solve_integer(h, tuple(col)) is not None


def dependent_matrix(rng, m, n, bound=6):
    """Random ``m x n`` matrix in which some rows combine earlier ones."""
    rows = random_matrix(rng, m, n, bound)
    for i in range(1, m):
        if rng.random() < 0.4:
            j, k = rng.randrange(i), rng.randrange(i)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


def as_fraction(q):
    return Fraction(int(q.p), int(q.q))


def test_rank_and_det_match_sympy():
    rng = random.Random(101)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = dependent_matrix(rng, m, n)
        assert rank(mat(rows)) == Matrix(rows).rank(), rows
        sq = dependent_matrix(rng, m, m)
        assert det(mat(sq)) == int(Matrix(sq).det()), sq


def test_inverse_rational_matches_sympy():
    rng = random.Random(102)
    singular = 0
    for _ in range(150):
        m = rng.randint(1, 6)
        rows = dependent_matrix(rng, m, m)
        theirs = Matrix(rows)
        if theirs.det() == 0:
            singular += 1
            with pytest.raises(ValueError):
                inverse_rational(mat(rows))
            continue
        inv = theirs.inv()
        expected = tuple(tuple(as_fraction(inv[i, j]) for j in range(m)) for i in range(m))
        assert inverse_rational(mat(rows)) == expected, rows
    assert singular  # the dependent rows must reach the singular branch


def test_solve_rational_matches_sympy():
    rng = random.Random(103)
    inconsistent = 0
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = dependent_matrix(rng, m, n)
        if rng.random() < 0.5:
            x0 = [rng.randint(-3, 3) for _ in range(n)]
            b = [sum(r[j] * x0[j] for j in range(n)) for r in rows]
        else:
            b = [rng.randint(-6, 6) for _ in range(m)]
        a = Matrix(rows)
        x = solve_rational(mat(rows), tuple(b))
        if a.rank() < a.row_join(Matrix(b)).rank():
            inconsistent += 1
            assert x is None, (rows, b)
            continue
        assert x is not None, (rows, b)
        assert all(sum(Fraction(r[j]) * x[j] for j in range(n)) == bi for r, bi in zip(rows, b))
        _, pivots = a.rref()
        assert all(x[j] == 0 for j in range(n) if j not in pivots), (rows, b, x)
    assert inconsistent


def as_rational_function(s: ZSeries):
    """``s`` as a sympy expression, read off its terms: each class atom is
    its own sympy symbol and each coefficient is ``p(L) / (L-1)^k``."""
    L, T = sympy.symbols("L T")
    total = sympy.Integer(0)
    for (beta, ds), c in s.sorted_terms():
        coeff = sympy.Integer(0)
        for symbol, cf in c.terms.items():
            atoms = [] if symbol == "1" else [sympy.Symbol(a) for a in symbol.split("*")]
            num = sum(n * L**e for e, n in cf.num.coeffs)
            coeff += math.prod(atoms, start=sympy.Integer(1)) * num / (L - 1) ** cf.den_pow
        denominator = math.prod((1 - L**a * T**b for a, b in ds), start=sympy.Integer(1))
        total += coeff * T**beta / denominator
    return total


def test_equal_matches_sympy():
    rng = random.Random(104)
    outcomes = []
    for _ in range(40):
        lhs, rhs, _ = series_pair(rng)
        # one fraction over a product of the denominators, then its expanded
        # numerator: exact, and much faster here than cancel's gcds
        diff = sympy.together(as_rational_function(lhs) - as_rational_function(rhs))
        verdict = sympy.expand(sympy.numer(diff)) == 0
        assert equal(lhs, rhs) == verdict, (lhs, rhs)
        outcomes.append(verdict)
    assert 10 <= sum(outcomes) <= 30  # both verdicts are drawn
