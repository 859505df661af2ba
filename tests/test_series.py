import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import logzeta.series
from logzeta.cli import series_to_json
from logzeta.cones import (
    Cone,
    _relint_pieces,
    box_points,
    complex_from_cones,
    cone_from_rays,
    star_subdivision,
)
from logzeta.intlin import dot, solve_integer
from logzeta.mring import UNIT_SYMBOL, LaurentPoly, MClass, MCoeff
from logzeta.monoids import MarkedMonoid, SharpFsMonoid
from logzeta.series import ZSeries, _relint_buckets, _weighted_sum, cone_series, equal, format_poles
from logzeta.zeta import (
    FanModel,
    SncdComponent,
    SncdData,
    _cell_in_span,
    fan_poincare,
    sncd_to_fanmodel,
    transport_subdivide,
    validate_model,
)

from genutil import (
    brute_cone_sum,
    count_calls,
    count_dd_runs,
    expansion_case,
    fresh_box_points,
    kernel_cone,
    merge_expand,
    nested_json,
    nested_text,
    nested_view,
    numerator_equal,
    per_call_relint_cone_sum,
    per_factor_candidate_poles,
    product_monoid_with_horizontals,
    random_marked_monoid,
    random_series,
    random_terms,
    relint_pieces,
    series_pair,
)

ONE = MClass.one()
N1 = SharpFsMonoid(1, cone_from_rays(1, [(1,)]))
N2 = SharpFsMonoid(2, cone_from_rays(2, [(1, 0), (0, 1)]))


def geom(a, b):
    """L^a T^b / (1 - L^a T^b)."""
    return ZSeries.term(MClass.l_power(a), b, [(a, b)])


def test_arithmetic_identities():
    s = ZSeries.one() + ZSeries.term(ONE, 1, [(0, 1)])
    assert equal(s, ZSeries.term(ONE, 0, [(0, 1)]))
    sq = ZSeries.term(ONE, 1, [(0, 1)]) * ZSeries.term(ONE, 1, [(0, 1)])
    assert [k for k, _ in sq.sorted_terms()] == [(2, ((0, 1), (0, 1)))]
    assert (ZSeries.term(ONE, 1, [(0, 1)]) * ZSeries.term(MClass.zero(), 0)).is_zero()


def test_scale():
    s = ZSeries.term(ONE, 1, [(0, 1)])
    assert list((s * ZSeries.term(MClass.l_power(2), 0)).sorted_terms()) == [((1, ((0, 1),)), MClass.l_power(2))]


def test_subst_T_L():
    s = ZSeries.term(ONE, 1, [(0, 1)])  # T/(1-T)
    t = s.subst_T_L(1)
    assert list(t.sorted_terms()) == [((1, ((1, 1),)), MClass.l_power(1))]
    assert s.subst_T_L(0).terms == s.terms
    d = ZSeries.term(ONE, 0, [(-1, 2)])
    assert [k for k, _ in d.subst_T_L(1).sorted_terms()] == [(0, ((1, 2),))]


def test_expand():
    s = ZSeries.term(ONE, 1, [(0, 1)])
    assert s.expand(5) == [ONE] * 5
    s2 = ZSeries.term(MClass.l_power(-1), 1, [(-1, 1)])
    assert s2.expand(4) == [MClass.l_power(-d) for d in range(1, 5)]
    assert s.expand(0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        s.expand(-1)


def test_expand_cancels_to_lower_power_and_to_zero():
    # A/(L-1)^3 (T/(1-T) - T/(1-LT)): 0 at T, A(1-L^(d-1))/(L-1)^3 at T^d
    a = MClass({"A": MCoeff.make(LaurentPoly.one(), 3)})
    s = ZSeries.term(a, 1, [(0, 1)]) - ZSeries.term(a, 1, [(1, 1)]) + ZSeries.term(ONE, 2)
    got = s.expand(3)
    assert got[0] == MClass.zero() and got[0].terms == {}
    assert got[1] == ONE + MClass({"A": MCoeff.make(LaurentPoly.from_dict({0: -1}), 2)})
    assert got[2] == MClass({"A": MCoeff.make(LaurentPoly.from_dict({0: -1, 1: -1}), 2)})
    assert got == merge_expand(s, 3)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6))
def test_expand_matches_merge_oracle(seed):
    s, degree = expansion_case(random.Random(seed))
    got = s.expand(degree)
    assert got == merge_expand(s, degree)
    assert [str(c) for c in got] == [str(c) for c in merge_expand(s, degree)]
    # a zero sum drops its symbol; every kept coefficient is canonical
    for c in got:
        for cf in c.terms.values():
            assert not cf.is_zero() and MCoeff.make(cf.num, cf.den_pow) == cf


def test_expand_commutes_with_subst():
    rng = random.Random(8)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            denoms = tuple(
                (rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))
            )
            terms[(rng.randint(0, 3), denoms)] = MClass.symbol("A").scale_l(rng.randint(-2, 2))
        s = ZSeries(terms)
        k = rng.randint(-2, 2)
        subst = s.subst_T_L(k).expand(8)
        direct = [c.scale_l(k * d) for d, c in enumerate(s.expand(8), start=1)]
        assert subst == direct


def test_public_constructors_check_keys():
    with pytest.raises(ValueError, match="T-exponent must be nonnegative"):
        ZSeries({(-1, ((0, 1),)): ONE})
    with pytest.raises(ValueError, match="denominator T-exponent must be positive"):
        ZSeries.term(ONE, 1, [(2, 0)])
    # keys are sorted on the way in
    assert [k for k, _ in ZSeries({(1, ((2, 3), (0, 1))): ONE}).sorted_terms()] == [(1, ((0, 1), (2, 3)))]


_classes = st.sampled_from(
    [ONE, -ONE, MClass.symbol("A"), -MClass.symbol("A"), MClass.symbol("B").scale_l(1)]
)
_keys = st.tuples(
    st.integers(0, 2), st.lists(st.sampled_from([(0, 1), (-1, 2)]), max_size=2).map(sorted)
)
_series = st.lists(st.tuples(_keys, _classes), max_size=4).map(
    lambda kvs: ZSeries.sum(ZSeries.term(c, beta, ds) for (beta, ds), c in kvs)
)


@settings(max_examples=150)
@given(st.lists(_series, max_size=5))
def test_sum_is_left_fold(parts):
    # the few keys and +-classes make terms cancel on the way
    folded = ZSeries.zero()
    for p in parts:
        folded = folded + p
    total = ZSeries.sum(parts)
    assert total.terms == folded.terms
    assert str(total) == str(folded)


def test_sum_merges_once(monkeypatch):
    # one merge of coefficients for the whole sum, and no class is merged
    parts = [random_series(random.Random(i), ["A", "B", "A*B"]) for i in range(5)]
    calls = count_calls(monkeypatch, "merge")
    total = ZSeries.sum(parts)
    assert len(calls) == 1
    assert total.terms == functools.reduce(ZSeries.__add__, parts).terms


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_grouped_view_and_text_match_nested_oracle(seed):
    rng = random.Random(seed)
    terms = random_terms(rng, ["A", "B", "A*B"], max_terms=5)
    # one symbol cancels at a key where other symbols stay
    shared = [(k, c) for k, c in nested_view(terms) if len(c.terms) > 1]
    if shared:
        (beta, ds), c = rng.choice(shared)
        sym = rng.choice(sorted(c.terms))
        terms.append(((beta, ds), -MClass({sym: c.terms[sym]})))
    s = ZSeries.sum(ZSeries.term(c, *key) for key, c in terms)
    view = nested_view(terms)
    if shared:
        assert (beta, ds, sym) not in s.terms and any(k[:2] == (beta, ds) for k in s.terms)
    assert list(s.sorted_terms()) == view
    assert str(s) == nested_text(view)
    assert series_to_json(s) == nested_json(view)


def test_empty_sum_is_zero():
    assert ZSeries.sum([]).is_zero()
    assert str(ZSeries.sum(iter(()))) == "0"


def test_limit():
    assert geom(2, 1).limit_T_inf() == -ONE
    t = ZSeries.term(ONE, 2, [(0, 1), (0, 1)])
    assert t.limit_T_inf() == ONE
    with pytest.raises(ValueError):
        ZSeries.term(ONE, 1).limit_T_inf()
    # below-degree terms vanish
    assert ZSeries.term(ONE, 0, [(0, 1)]).limit_T_inf() == MClass.zero()


def test_limit_product_rule():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 3)
        factors = [geom(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        prod = ZSeries.term(MClass.symbol("C"), 0)
        for f in factors:
            prod = prod * f
        expect = -MClass.symbol("C") if n % 2 else MClass.symbol("C")
        assert prod.limit_T_inf() == expect


def test_limit_is_linear():
    a = geom(1, 2)
    b = geom(-2, 1)
    lhs = (a + b).limit_T_inf()
    assert lhs == a.limit_T_inf() + b.limit_T_inf()


def test_candidate_poles():
    assert ZSeries.term(ONE, 0, [(-3, 2)]).candidate_poles() == {Fraction(-3, 2)}
    assert ZSeries.term(ONE, 0, [(-1, 1)]).candidate_poles() == {Fraction(-1)}
    both = ZSeries.term(ONE, 0, [(-3, 2), (-1, 1)])
    assert both.candidate_poles() == {Fraction(-3, 2), Fraction(-1)}
    assert format_poles(both.candidate_poles()) == "-3/2, -1"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_candidate_poles_match_per_factor_route(seed):
    s, _ = expansion_case(random.Random(seed))
    assert s.candidate_poles() == per_factor_candidate_poles(s)


def test_poles_of_product_subset_union():
    rng = random.Random(4)
    for _ in range(20):
        s1 = geom(rng.randint(-3, 3), rng.randint(1, 3))
        s2 = geom(rng.randint(-3, 3), rng.randint(1, 3))
        assert (s1 * s2).candidate_poles() <= s1.candidate_poles() | s2.candidate_poles()


def test_equal_properties():
    s = ZSeries.term(ONE, 1, [(0, 1)])
    t = ZSeries.term(ONE, 1, [(1, 1)])
    assert equal(s, s)
    assert not equal(s, t)
    assert not equal(s, s + ZSeries.one())
    # invariant under re-canonicalization: adding and subtracting
    assert equal(s + t - t, s)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 10**6))
def test_equal_matches_numerator_oracle(seed):
    # pairs whose equality is known by construction, half of them equal
    lhs, rhs, expected = series_pair(random.Random(seed))
    assert equal(lhs, rhs) == numerator_equal(lhs, rhs) == expected
    assert equal(rhs, lhs) == expected


# ---------------------------------------------------------------------------
# Cone series.


def test_cone_series_geometric():
    mm = MarkedMonoid(N1, (1,), (2,))
    s = cone_series(mm, MClass.symbol("U"))
    assert s.terms == ZSeries.term(MClass.symbol("U").scale_l(-2), 1, [(-2, 1)]).terms


def test_cone_series_plane():
    mm = MarkedMonoid(N2, (1, 1), (0, 0))
    s = cone_series(mm, MClass.symbol("U").mul_l1_pow(1))
    expect = ZSeries.term(MClass.symbol("U").mul_l1_pow(1), 2, [(0, 1), (0, 1)])
    assert s.terms == expect.terms


def test_cone_series_horizontal_fold():
    mm = MarkedMonoid(N2, (1, 0), (3, 1))
    s = cone_series(mm, MClass.symbol("U").mul_l1_pow(1))
    expect = ZSeries.term(MClass.symbol("U").scale_l(-3), 1, [(-3, 1)])
    assert s.terms == expect.terms
    # brute check by splitting the double sum
    exp = s.expand(10)
    for d in range(1, 11):
        # sum over u1=d fixed, u2 >= 1: L^{-3d} * (L-1) * sum L^{-u2} = L^{-3d}
        assert exp[d - 1] == MClass.symbol("U").scale_l(-3 * d)


def test_cone_series_rejects_bad_horizontal(monkeypatch):
    # the marking is checked on entry, on every call, before any cone sum
    runs = count_calls(monkeypatch, "_relint_pieces")
    mm = MarkedMonoid(N2, (1, 0), (3, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"horizontal ray \(0, 1\) must pair to 1 with the divisor, got 2"):
            cone_series(mm, ONE)
    assert runs == []
    with pytest.raises(ValueError):
        cone_series(MarkedMonoid(N2, (0, 0), (0, 0)), ONE)


def test_cone_series_builds_its_dual_cone_once(monkeypatch):
    # the monoid keeps its dual cone, and the cone its incidence
    computed = []
    real = Cone.__dict__["incidence"].func

    def counting(cone):
        computed.append(cone)
        return real(cone)

    incidence = functools.cached_property(counting)
    incidence.__set_name__(Cone, "incidence")
    monkeypatch.setattr(Cone, "incidence", incidence)
    mm = MarkedMonoid(SharpFsMonoid(2, cone_from_rays(2, [(1, 0), (1, 3)])), (1, 1), (0, 0))
    sums = [str(cone_series(mm, ONE)) for _ in range(3)]
    assert len(set(sums)) == 1 and len(computed) == 1


def test_cone_series_oracle_small():
    rng = random.Random(42)
    for _ in range(25):
        mm = random_marked_monoid(rng, rng.randint(1, 3), max_entry=4)
        w = MClass.symbol("W")
        assert cone_series(mm, w).expand(8) == brute_cone_sum(mm, w, 8)


def test_cone_series_product_horizontals():
    rng = random.Random(43)
    for _ in range(10):
        prod, vert, h = product_monoid_with_horizontals(rng, rng.randint(1, 2), rng.randint(1, 2))
        w = MClass.symbol("W").mul_l1_pow(prod.base.rank - 1)
        got = cone_series(prod, w).expand(8)
        vertical = brute_cone_sum(vert, w, 8)
        assert got == [c.mul_l1_pow(-h) for c in vertical]


def test_decomposition_independence_under_relabelling():
    # permuting coordinates permutes the triangulation; sums must agree
    rng = random.Random(44)
    for _ in range(10):
        mm = random_marked_monoid(rng, 3, max_entry=4)
        perm = [0, 1, 2]
        rng.shuffle(perm)

        def p(v):
            return tuple(v[perm[i]] for i in range(3))

        base2 = SharpFsMonoid(3, cone_from_rays(3, [p(r) for r in mm.base.cone.rays]))
        mm2 = MarkedMonoid(base2, p(mm.e_pi), p(mm.a_div))
        assert equal(cone_series(mm, ONE), cone_series(mm2, ONE))


def test_canonical_text_form():
    s = ZSeries.term(MClass.symbol("E").scale_l(-1), 1, [(-1, 1)])
    assert str(s) == "[E]*L^-1*T/(1-L^-1*T)"
    s2 = ZSeries.term(ONE, 2, [(0, 1), (-2, 3)])
    assert str(s2) == "1*T^2/((1-T)*(1-L^-2*T^3))"


# ---------------------------------------------------------------------------
# The cone-sum kernel against a decomposition made afresh on every call.

WEIGHTS = [
    ONE,
    MClass.symbol("W"),
    MClass({UNIT_SYMBOL: MCoeff(LaurentPoly.monomial(2, -3), 0)}),
    MClass.symbol("A").mul_l1_pow(2) + MClass.l_power(-3),
    # denominators: the weight's den_pow adds to the horizontal count
    MClass.symbol("B").mul_l1_pow(-1),
    MClass.l_power(1).mul_l1_pow(-2) + MClass.symbol("C").mul_l1_pow(-1),
    # numerators that vanish at L = 1: against a horizontal factor L/(L-1)
    # the sum must divide by (L-1) to normalise
    MClass.l_power(1) - ONE,
    MClass.l_power(2) - ONE + MClass.symbol("D").mul_l1_pow(1),
]


SQUARE = cone_from_rays(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])


@st.composite
def cone_sum_inputs(draw):
    """A pointed cone of rank 1-5, spanned by nonnegative combinations of
    ``rank - 2`` to ``rank`` independent vectors (so often lower dimensional,
    sometimes not simplicial); ``e`` in its dual cone, zero on some rays (the
    horizontal ones); ``a`` random when no ray is horizontal, and else
    solved to pair to 1 with every horizontal ray, as the kernel's callers
    guarantee (a draw with no integer solution is rejected); and a weight."""
    rank = draw(st.integers(1, 5))
    dim = draw(st.integers(max(1, rank - 2), rank))
    perm = draw(st.permutations(range(rank)))
    # rows of a unit lower triangular matrix, coordinates permuted: independent
    basis = []
    for i in range(dim):
        row = [draw(st.integers(-2, 2)) if j < i else int(j == i) for j in range(rank)]
        basis.append(tuple(row[perm[j]] for j in range(rank)))
    coeffs = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    rays = [
        tuple(sum(k * b[i] for k, b in zip(ks, basis)) for i in range(rank))
        for ks in draw(st.lists(coeffs, min_size=dim, max_size=dim + 4))
    ]
    c = cone_from_rays(rank, rays)
    facetset = set(c.facets)
    e = (0,) * rank
    for u in c.facets:
        k = draw(st.integers(-1, 1) if tuple(-x for x in u) in facetset else st.integers(0, 2))
        e = tuple(x + k * y for x, y in zip(e, u))
    a = draw(st.tuples(*[st.integers(-3, 3)] * rank))
    horizontal = [r for r in c.rays if dot(r, e) == 0]
    if horizontal:
        a = solve_integer(tuple(horizontal), (1,) * len(horizontal))
        assume(a is not None)
    return c, e, a, draw(st.sampled_from(WEIGHTS))


def outcome(kernel, *args):
    try:
        return str(kernel(*args))
    except ValueError as err:
        return f"{type(err).__name__}: {err}"


@settings(max_examples=150, deadline=None)
@given(cone_sum_inputs())
@example((cone_from_rays(2, [(1, 0), (0, 1)]), (1, 0), (3, 1), MClass.symbol("U")))  # horizontal
@example((SQUARE, (0, 0, 1), (1, 1, 1), ONE))  # not simplicial
@example((cone_from_rays(3, [(1, 2, 0), (2, 1, 0)]), (1, 1, 5), (0, 1, -1), WEIGHTS[3]))  # flat
@example((cone_from_rays(2, [(1, 0), (0, 1)]), (1, 0), (3, 1), WEIGHTS[5]))  # times L/(L-1)
@example((cone_from_rays(2, [(1, 0), (0, 1)]), (1, 0), (3, 1), WEIGHTS[6]))  # L-1 times L/(L-1)
@example((cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)]), (0, 0, 1), (1, 1, 0), WEIGHTS[7]))
def test_relint_cone_sum_matches_per_call_kernel(args):
    def weighted(cone, e, a, w):
        return _weighted_sum(zip(_relint_buckets([(*kernel_cone(cone), e, a)]), [w]))

    expected = outcome(per_call_relint_cone_sum, *args)
    assert outcome(weighted, *args) == expected
    assert outcome(weighted, *args) == expected  # read from the table
    for piece in relint_pieces(args[0]):
        assert box_points(piece) == fresh_box_points(piece)


@settings(max_examples=60, deadline=None)
@given(cone_sum_inputs())
def test_relint_cone_sum_is_pure_geometry(args):
    # the kernel touches no class symbol: it returns integer counts, one per
    # box point, and on the unit weight every coefficient is on the unit
    try:
        (buckets,) = _relint_buckets([(*kernel_cone(args[0]), *args[1:3])])
    except ValueError:
        return
    assert all(type(n) is int and n > 0 for b in buckets.values() for n in b.values())
    points = sum(piece.box_count() for piece in relint_pieces(args[0]))
    assert sum(n for b in buckets.values() for n in b.values()) == points
    s = _weighted_sum([(buckets, ONE)])
    assert all(set(c.terms) == {UNIT_SYMBOL} for _, c in s.sorted_terms())


def test_cone_sum_bound_counts_box_points(monkeypatch):
    # the cone [(1, 0), (1, N)] is one piece of N box points
    monkeypatch.setattr(logzeta.series, "CONE_SUM_MAX_BOX_POINTS", 6)

    def index(n):
        return (*kernel_cone(cone_from_rays(2, [(1, 0), (1, n)])), (1, 0), (0, 1))

    (buckets,) = _relint_buckets([index(6)])
    assert sum(n for b in buckets.values() for n in b.values()) == 6
    with pytest.raises(ValueError, match="cone sum needs 7 box points, more than 6"):
        list(_relint_buckets([index(7)]))
    # the cones of one call count against one bound, each under it alone:
    # 1 + 5 points pass, and 2 + 5 raise before the second cone is
    # enumerated; the next call starts from zero
    assert len(list(_relint_buckets([index(1), index(5)]))) == 2
    sums = _relint_buckets([index(2), index(5)])
    assert sum(n for b in next(sums).values() for n in b.values()) == 2
    with pytest.raises(ValueError, match="cone sum needs 7 box points, more than 6"):
        next(sums)
    assert len(list(_relint_buckets([index(5)]))) == 1
    # pieces add up: the square's interior is two triangles of index 2
    monkeypatch.setattr(logzeta.series, "CONE_SUM_MAX_BOX_POINTS", 3)
    with pytest.raises(ValueError, match="cone sum needs 4 box points"):
        list(_relint_buckets([(*kernel_cone(SQUARE), (0, 0, 1), (1, 1, 1))]))


def test_cone_sum_raises_again_on_repeated_calls(monkeypatch):
    # the bound is checked on every call, before enumerating: a second call
    # over it reads the kept pieces, and raises again
    monkeypatch.setattr(logzeta.series, "CONE_SUM_MAX_BOX_POINTS", 3)
    frames = count_calls(monkeypatch, "_smith_frame")
    for _ in range(2):
        with pytest.raises(ValueError, match="cone sum needs 4 box points"):
            list(_relint_buckets([(*kernel_cone(SQUARE), (0, 0, 1), (1, 1, 1))]))
    assert len(frames) == 2  # the square's two pieces, built once


def test_cone_sums_reuse_each_cone(monkeypatch):
    snf = count_calls(monkeypatch, "smith_normal_form")
    runs = count_dd_runs(monkeypatch)
    eliminations = count_calls(monkeypatch, "_gauss_jordan")
    frames = count_calls(monkeypatch, "_smith_frame")

    def builds():
        # each piece is framed once, when the piece table builds it, so a
        # simplicial ray set is one frame; the zero cell, which no sum
        # reads, is framed once too, by validation asking if it is smooth
        return sum(1 for gens, _ in frames if gens)

    def reduced(model):
        # the contributing cells in span coordinates, as the kernel reads
        # them: rays, incidence and dimension
        return {
            _cell_in_span(model, cell)[:3]
            for cell in model.complex.cells
            if not model.weight(cell).is_zero() and not model.e_identically_zero(cell)
        }

    def pieces(r):
        return _relint_pieces(len(r[0][0]), *r)

    # an orthant model: e is positive on every ray, so no cell is generic
    # and validation takes no Smith normal form
    comps = (SncdComponent("a", 1, 0), SncdComponent("b", 2, -1), SncdComponent("c", 3, 2))
    strata = [(frozenset(j), "E" + "".join(sorted(j))) for j in ("a", "b", "c", "ab", "bc", "abc")]
    model = sncd_to_fanmodel(SncdData(0, comps, tuple(strata)))
    first = fan_poincare(model, 1)
    assert builds() == len(reduced(model)) and snf
    assert runs == []  # every cell is simplicial: one piece, no double description
    del snf[:], eliminations[:]
    assert str(fan_poincare(model, 1)) == str(first)
    assert (builds(), snf, eliminations) == (len(reduced(model)), [], [])

    star = transport_subdivide(model, star_subdivision(model.complex, (1, 2, 1)))
    new = reduced(star) - reduced(model)
    assert new and new != reduced(star)
    del runs[:]
    fan_poincare(star, 1)
    assert runs == []  # no cell takes a double description
    built = builds()
    # the cells built are the new ones, each framed once: all are kept now
    assert built == len(reduced(model)) + sum(len(pieces(r)) for r in new)
    for r in reduced(star):
        pieces(r)
    assert builds() == built

    # a cell over a square is not simplicial: its first sum triangulates it
    # from the incidence its span coordinates hold, with no double
    # description, and the next reads the kept pieces
    square = FanModel(complex_from_cones(3, [SQUARE]), {SQUARE: (0, 0, 1)}, {SQUARE: (1, 1, 1)}, {SQUARE: ONE})
    assert validate_model(square) == []
    del runs[:]
    for _ in range(2):
        fan_poincare(square, 1)
    assert runs == [] and builds() == built + 2
