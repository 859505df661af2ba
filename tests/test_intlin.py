import random
import unittest.mock

import pytest
from hypothesis import given, settings, strategies as st

import logzeta.intlin

from logzeta.intlin import (
    content_primitive,
    det,
    from_columns,
    hermite_normal_form,
    identity,
    kernel_basis,
    mat,
    mat_mul,
    mat_vec,
    rank as mat_rank,
    saturation_basis,
    smith_normal_form,
    solve_integer,
    solve_rational,
    span_lattice,
)

from genutil import oracle_smith_normal_form, torsion_order

small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


# Most pivot reads the Smith forms of one test may make.  The seeded
# identity test makes about 11,000, so a pivot loop that stops making
# progress fails within a second instead of hanging.
MAX_PIVOT_READS = 100_000


@pytest.fixture(autouse=True)
def bounded_pivot_reads(monkeypatch):
    real = logzeta.intlin._min_nonzero_pos
    reads = 0

    def read(rows, k):
        nonlocal reads
        reads += 1
        assert reads <= MAX_PIVOT_READS, "the pivot loop makes no progress"
        return real(rows, k)

    monkeypatch.setattr(logzeta.intlin, "_min_nonzero_pos", read)


def is_unimodular(u):
    return abs(det(u)) == 1


def test_content_primitive_examples():
    assert content_primitive((2, 4, 6)) == (2, (1, 2, 3))
    assert content_primitive((0, 0)) == (0, (0, 0))
    assert content_primitive((3, 5)) == (1, (3, 5))
    assert content_primitive((-2, 4)) == (2, (-1, 2))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_content_primitive_roundtrip(entries):
    v = tuple(entries)
    g, p = content_primitive(v)
    assert tuple(g * x for x in p) == v
    if g:
        assert content_primitive(p)[0] == 1


def test_hnf_examples():
    i2 = identity(2)
    h, u = hermite_normal_form(i2)
    assert h == i2 and u == i2
    z = mat([[0, 0], [0, 0]])
    h, u = hermite_normal_form(z)
    assert h == z and u == identity(2)


@settings(max_examples=150)
@given(small_matrices)
def test_hnf_defining_equations(rows):
    a = mat(rows)
    h, u = hermite_normal_form(a)
    assert is_unimodular(u)
    assert mat_mul(a, u) == h
    # echelon: pivots positive, zeros right of each pivot, reduced left
    pivot_cols = []
    for j in range(len(h[0])):
        col = [h[i][j] for i in range(len(h))]
        if any(col):
            pivot_cols.append(j)
    prev_row = -1
    for j in pivot_cols:
        i = next(i for i in range(len(h)) if h[i][j] != 0)
        assert i > prev_row
        prev_row = i
        assert h[i][j] > 0
        assert all(h[i][jj] == 0 for jj in range(j + 1, len(h[0])))
        assert all(0 <= h[i][jj] < h[i][j] for jj in range(j))


def test_snf_examples():
    s, u, v = smith_normal_form(mat([[6, 0], [0, 4]]))
    assert (s[0][0], s[1][1]) == (2, 12)
    assert smith_normal_form(identity(3))[0] == identity(3)
    assert smith_normal_form(mat([[0]]))[0] == mat([[0]])


@settings(max_examples=150)
@given(small_matrices)
def test_snf_defining_equations(rows):
    a = mat(rows)
    s, u, v = smith_normal_form(a)
    assert is_unimodular(u) and is_unimodular(v)
    assert mat_mul(mat_mul(u, a), v) == s
    k = min(len(s), len(s[0]))
    for i in range(k):
        for j in range(len(s[0])):
            if i != j and j < len(s[0]):
                assert s[i][j] == 0 or i == j
    diag = [s[i][i] for i in range(k)]
    assert all(d >= 0 for d in diag)
    for i in range(k - 1):
        if diag[i] != 0:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0


def test_smith_form_matches_the_two_phase_oracle():
    # the one pivot loop makes the old routine's moves in the old order, so
    # (S, U, V) is the same; the fix-up is the only step that adds a column
    # into an earlier one, and over 50 of these matrices reach it
    rng = random.Random(45)
    entries = (-3, -2, -1, 0, 0, 0, 1, 2, 3, 4, 6)
    cases = [(), ((), ()), ((0, 0, 0),)]
    for _ in range(3_000):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        cases.append(tuple(tuple(rng.choice(entries) for _ in range(n)) for _ in range(m)))
    real = logzeta.intlin._addmul_col
    fix_ups = 0

    def addmul(rows, dst, src, k):
        nonlocal fix_ups
        fix_ups += dst < src
        real(rows, dst, src, k)

    def reaches_fix_up(a):
        before = fix_ups
        assert smith_normal_form(a) == oracle_smith_normal_form(a), a
        return fix_ups > before

    with unittest.mock.patch.object(logzeta.intlin, "_addmul_col", addmul):
        assert reaches_fix_up(((2, 0), (0, 3)))
        assert sum(map(reaches_fix_up, cases)) > 50


def test_torsion_order_examples():
    assert torsion_order(from_columns([(2, 0), (0, 3)])) == 6
    assert torsion_order(from_columns([(1, 0)])) == 1
    assert torsion_order(from_columns([(2, 4)])) == 2


@settings(max_examples=60)
@given(small_matrices, st.randoms(use_true_random=False))
def test_torsion_invariant_under_unimodular(rows, rnd):
    a = mat(rows)
    m, n = len(a), len(a[0])
    # random unimodular via elementary operations
    u = [list(r) for r in identity(m)]
    v = [list(r) for r in identity(n)]
    for _ in range(4):
        i, j = rnd.randrange(m), rnd.randrange(m)
        if i != j:
            c = rnd.choice([-1, 1])
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i != j:
            c = rnd.choice([-1, 1])
            v[i] = [x + c * y for x, y in zip(v[i], v[j])]
    b = mat_mul(mat_mul(mat(u), a), mat(v))
    assert torsion_order(a) == torsion_order(b)


def test_solve_integer_and_lattice_membership():
    l = mat([[2, 0], [0, 2]])
    assert solve_integer(l, (2, 4)) is not None
    assert solve_integer(l, (1, 0)) is None
    assert solve_integer(mat([[2]]), (3,)) is None
    x = solve_integer(mat([[2, 1], [0, 3]]), (3, 3))
    assert x is not None
    assert mat_vec(mat([[2, 1], [0, 3]]), x) == (3, 3)


@settings(max_examples=100)
@given(small_matrices, st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_solve_integer_sound(rows, xs):
    a = mat(rows)
    n = len(a[0])
    x = tuple((xs * n)[:n])
    b = mat_vec(a, x)
    sol = solve_integer(a, b)
    assert sol is not None
    assert mat_vec(a, sol) == b


def test_kernel_and_saturation():
    a = mat([[1, 2, 3]])
    for k in kernel_basis(a):
        assert mat_vec(a, k) == (0,)
    assert len(kernel_basis(a)) == 2
    sat = saturation_basis([(2, 4)], 2)
    assert len(sat) == 1
    g, p = content_primitive(sat[0])
    assert g == 1 and p in [(1, 2), (-1, -2)]


# Up to five vectors in Z^1..Z^5; each later vector may be an integer
# combination of the earlier ones, so dependent sets are common.
span_inputs = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            st.lists(st.integers(-2, 2), min_size=5, max_size=5),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ).map(lambda draws: (n, _span_vectors(draws)))
)


def _span_vectors(draws):
    out = []
    for fresh, coeffs, combine in draws:
        if combine and out:
            v = tuple(sum(c * w[i] for c, w in zip(coeffs, out)) for i in range(len(fresh)))
        else:
            v = tuple(fresh)
        out.append(v)
    return out


@settings(max_examples=150, deadline=None)
@given(span_inputs)
def test_span_lattice_coordinates(data):
    n, vectors = data
    basis, proj, annihilator = span_lattice(vectors, n)
    r = mat_rank(tuple(vectors))
    assert len(basis) == len(proj) == r and len(annihilator) == n - r
    if r:
        assert mat_mul(proj, from_columns(basis)) == identity(r)
    for v in vectors:
        coords = mat_vec(proj, v)
        assert tuple(sum(c * b[i] for c, b in zip(coords, basis)) for i in range(n)) == v
        assert all(x == 0 for x in mat_vec(annihilator, v))
    assert abs(det(tuple(proj) + tuple(annihilator))) == 1
    assert saturation_basis(vectors, n) == basis


def test_solve_rational():
    sol = solve_rational(mat([[2, 0], [0, 2]]), (1, 1))
    assert sol is not None and [str(x) for x in sol] == ["1/2", "1/2"]
    assert solve_rational(mat([[1, 1], [1, 1]]), (0, 1)) is None
