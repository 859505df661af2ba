from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from logzeta.mring import LaurentPoly, LPoleError, MClass, MCoeff, _add_lifted, _lifted_sum

from genutil import laurent_series

symbols = st.sampled_from(["1", "A", "B", "C"])
tables = st.dictionaries(st.integers(-3, 3), st.integers(-5, 5), max_size=4)
polys = tables.map(LaurentPoly.from_dict)
coeffs = st.builds(MCoeff.make, polys, st.integers(0, 2))
mclasses = st.dictionaries(symbols, coeffs, max_size=3).map(MClass)


def test_basic_identities():
    one = MClass.one()
    lm1 = MClass.one().mul_l1_pow(1)
    assert lm1 * one.mul_l1_pow(-1) == one
    a = MClass.symbol("A")
    assert a + a == MClass({"A": MCoeff.make(LaurentPoly.from_dict({0: 2}))})
    assert a.mul_l1_pow(-1) * lm1 == a


def test_public_constructors_check_symbols():
    with pytest.raises(ValueError, match="bad class symbol"):
        MClass({"A*1": MCoeff.one()})
    with pytest.raises(ValueError, match="empty class symbol"):
        MClass.symbol("")
    with pytest.raises(ValueError, match="bad class symbol"):
        MClass.symbol("A**B")


def test_normalization():
    # (L^2-1)/(L-1) normalizes to L+1
    c = MCoeff.make(LaurentPoly.from_dict({2: 1, 0: -1}), 1)
    assert c.den_pow == 0
    assert c.num == LaurentPoly.from_dict({1: 1, 0: 1})


def test_assert_no_pole():
    ok = MClass.symbol("A").scale_l(1)
    ok.assert_no_l1_pole()
    bad = MClass.symbol("A").mul_l1_pow(-1)
    with pytest.raises(LPoleError) as e:
        bad.assert_no_l1_pole()
    assert "A" in str(e.value)


def test_specialize():
    t = {"A": Fraction(5)}
    assert MClass.symbol("A").specialize(t, Fraction(2)) == 5
    assert MClass.l_power(1).specialize({}, Fraction(3)) == 3
    assert MClass.symbol("A").mul_l1_pow(-1).specialize({"A": Fraction(1)}, Fraction(2)) == 1
    with pytest.raises(KeyError):
        MClass.symbol("Z").specialize({}, Fraction(2))


def test_symbol_products_commute_and_concatenate():
    a, b = MClass.symbol("A"), MClass.symbol("B")
    assert a * b == b * a
    assert list((a * b).terms) == ["A*B"]
    assert list((a * a).terms) == ["A*A"]
    assert a * MClass.one() == a


def test_composite_symbols_are_canonical():
    assert MClass.symbol("B*A") - MClass.symbol("A") * MClass.symbol("B") == MClass.zero()
    assert list(MClass.symbol("C*A*B").terms) == ["A*B*C"]
    merged = MClass({"B*A": MCoeff.one(), "A*B": MCoeff.one()})
    assert merged == MClass({"A*B": MCoeff(LaurentPoly.monomial(0, 2), 0)})


L_MINUS_1 = LaurentPoly.from_dict({1: 1, 0: -1})


def times_l1_power(p: LaurentPoly, k: int) -> LaurentPoly:
    """``p * (L-1)^k`` by ``k`` multiplications."""
    for _ in range(k):
        p = p * L_MINUS_1
    return p


def over_l1_powers(p: LaurentPoly, j: int, d: int) -> MCoeff:
    """``p * (L-1)^j / (L-1)^d``, normalized: a pole is left when d > j and
    a numerator divisible by L-1 when j > d."""
    return MCoeff.make(times_l1_power(p, j), d)


unnormalized = st.builds(over_l1_powers, polys, st.integers(0, 3), st.integers(0, 3))


def divmod_l_minus_1(num: LaurentPoly) -> tuple[LaurentPoly, int]:
    """Long division of ``num`` by ``L-1`` on a dense table of its
    coefficients, from the top exponent down: the quotient and the
    remainder ``num(1)`` at ``L^low``."""
    if num.is_zero():
        return num, 0
    low = num.coeffs[0][0]
    dense = [0] * (num.coeffs[-1][0] - low + 1)
    for e, c in num.coeffs:
        dense[e - low] = c
    quot = {}
    for i in range(len(dense) - 1, 0, -1):
        quot[low + i - 1] = dense[i]
        dense[i - 1] += dense[i]  # L^i = (L-1)*L^(i-1) + L^(i-1)
    return LaurentPoly.from_dict(quot), dense[0]


def trial_division(num: LaurentPoly, den_pow: int) -> MCoeff:
    """The normal form of ``num / (L-1)^den_pow`` by dividing as long as the
    remainder is zero, with neither shortcut of ``MCoeff``."""
    while den_pow > 0 and not num.is_zero():
        q, r = divmod_l_minus_1(num)
        if r:
            break
        num, den_pow = q, den_pow - 1
    return MCoeff(num, den_pow if not num.is_zero() else 0)


@settings(max_examples=200)
@given(polys, st.integers(0, 3), st.integers(0, 4))
def test_make_tests_p1_like_trial_division(p, j, d):
    p = times_l1_power(p, j)
    assert MCoeff.make(p, d) == trial_division(p, d)


@settings(max_examples=200)
@given(polys, polys, st.integers(0, 5))
def test_lift_is_repeated_multiplication_by_l_minus_1(base, p, k):
    table = dict(base.coeffs)
    _add_lifted(table, p.coeffs, k)
    assert LaurentPoly.from_dict(table) == base + times_l1_power(p, k)


@settings(max_examples=200)
@given(st.dictionaries(st.integers(0, 3), tables, min_size=1, max_size=3))
@example({0: {1: 1}, 2: {0: -1, 1: 1}})  # L + (L-1)/(L-1)^2 over (L-1)^2
def test_lifted_sum_is_trial_division_of_the_summed_numerators(by_pow):
    top = max(by_pow)
    total = LaurentPoly.from_dict({})
    for den_pow, cell in by_pow.items():
        total = total + times_l1_power(LaurentPoly.from_dict(cell), top - den_pow)
    assert _lifted_sum(by_pow) == trial_division(total, top)


@settings(max_examples=200)
@given(unnormalized, unnormalized)
@example(MCoeff.make(LaurentPoly.one(), 2), MCoeff.make(LaurentPoly.one()))
def test_sum_like_trial_division(x, y):
    top = max(x.den_pow, y.den_pow)
    num = times_l1_power(x.num, top - x.den_pow) + times_l1_power(y.num, top - y.den_pow)
    assert x + y == trial_division(num, top)


@settings(max_examples=150)
@given(unnormalized, st.integers(-3, 3))
def test_times_l1_power_like_trial_division(x, e):
    want = trial_division(times_l1_power(x.num, max(e, 0)), x.den_pow - min(e, 0))
    assert x.mul_l1_pow(e) == want


@settings(max_examples=150)
@given(unnormalized, st.integers(-4, 4))
def test_coefficient_unit_shift_keeps_normal_form(x, k):
    assert x.scale_l(k) == MCoeff.make(x.num.shift(k), x.den_pow)


@settings(max_examples=200)
@given(unnormalized, unnormalized)
@example(  # L/(L-1) times L-1: only one factor has a denominator
    over_l1_powers(LaurentPoly.monomial(1), 0, 1), over_l1_powers(LaurentPoly.one(), 1, 0)
)
@example(over_l1_powers(LaurentPoly.one(), 0, 2), over_l1_powers(LaurentPoly.monomial(-1, 3), 0, 1))
def test_product_skips_make_like_trial_division(x, y):
    assert x * y == trial_division(x.num * y.num, x.den_pow + y.den_pow)


@settings(max_examples=150)
@given(st.dictionaries(symbols, unnormalized, max_size=3).map(MClass), st.integers(-4, 4))
@example(
    MClass({"A": over_l1_powers(LaurentPoly.one(), 2, 0), "B": over_l1_powers(LaurentPoly.one(), 0, 2)}),
    -3,
)
def test_scale_l_keeps_normal_form(x, k):
    made = MClass({s: MCoeff.make(c.num.shift(k), c.den_pow) for s, c in x.terms.items()})
    assert x.scale_l(k).terms == made.terms
    assert x.scale_l(k) == x * MClass.l_power(k)


@settings(max_examples=120)
@given(mclasses, mclasses, mclasses)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + MClass.zero() == x
    assert x * MClass.one() == x
    assert x - x == MClass.zero()


@settings(max_examples=80)
@given(mclasses, mclasses)
def test_specialize_is_ring_hom(x, y):
    table = {"A": Fraction(2), "B": Fraction(-1), "C": Fraction(7, 2)}
    lv = Fraction(3)
    assert (x + y).specialize(table, lv) == x.specialize(table, lv) + y.specialize(table, lv)
    # closure of the table under products
    full = dict(table)
    for s in (x * y).terms:
        if s != "1":
            val = Fraction(1)
            for atom in s.split("*"):
                val *= table[atom]
            full[s] = val
    prod_val = Fraction(1)
    assert (x * y).specialize(table, lv) == x.specialize(table, lv) * y.specialize(table, lv) * prod_val


@settings(max_examples=100)
@given(coeffs, st.integers(-8, 0))
def test_laurent_series_truncation(c, low):
    # the truncated series times (L-1)^k agrees with the numerator above the cut
    s = laurent_series(c, low)
    back = s
    for _ in range(c.den_pow):
        back = back * LaurentPoly.from_dict({1: 1, 0: -1})
    cut = low + c.den_pow
    assert [t for t in back.coeffs if t[0] >= cut] == [t for t in c.num.coeffs if t[0] >= cut]


def test_canonical_text():
    assert str(MClass.symbol("E").scale_l(-1)) == "[E]*L^-1"
    assert str(MClass.one()) == "1"
    assert str(MClass.zero()) == "0"
    assert str(MClass.one().mul_l1_pow(1)) == "L-1"
    assert str(MClass.symbol("A").mul_l1_pow(-1)) == "[A]*1/(L-1)"
    assert str(MClass.symbol("A") + MClass.symbol("B").scale_l(2)) == "[A] + [B]*L^2"
