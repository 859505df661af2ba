import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from logzeta.cones import (
    ConeComplex,
    complex_from_cones,
    cone_from_rays,
    resolve_complex,
    star_subdivision,
)
from logzeta.mring import MClass
from logzeta.series import ZSeries, equal
from logzeta.zeta import (
    FanModel,
    InvalidModel,
    SncdComponent,
    SncdData,
    dl_zeta,
    fan_poincare,
    fan_poles,
    nearby_fibre,
    sncd_poincare,
    sncd_to_fanmodel,
    transport_subdivide,
    validate_model,
)

from genutil import (
    brute_fan_sum,
    count_calls,
    oracle_incidence,
    random_fan_model,
    random_sncd,
    random_subdivided_cone,
    uncertified,
)

ORTHANT3 = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
SINGLE = SncdData(1, (SncdComponent("E", 1, mu=0, nu=1),), ((frozenset({"E"}), "E"),))
PAIR = SncdData(
    2,
    (SncdComponent("a", 1, mu=0, nu=1), SncdComponent("b", 2, mu=1, nu=3)),
    (
        (frozenset({"a"}), "Ea"),
        (frozenset({"b"}), "Eb"),
        (frozenset({"a", "b"}), "Eab"),
    ),
)


def test_sncd_poincare_single():
    s = sncd_poincare(SINGLE)
    assert str(s) == "[E]*L^-1*T/(1-T)"


def test_dl_zeta_single():
    z = dl_zeta(SINGLE)
    assert str(z) == "[E]*L^-1*T/(1-L^-1*T)"


def test_dl_zeta_poles():
    d = SncdData(1, (SncdComponent("E", 2, mu=1, nu=3),), ((frozenset({"E"}), "E"),))
    assert dl_zeta(d).candidate_poles() == {__import__("fractions").Fraction(-3, 2)}


def test_stratum_with_unknown_component_rejected():
    with pytest.raises(ValueError):
        SncdData(0, (SncdComponent("a", 1, mu=0),), ((frozenset({"zz"}), "E"),))


def test_dl_expansion_brute_force():
    # coefficient of T^d enumerates (k_j >= 1) with sum k_j N_j = d
    z = dl_zeta(PAIR)
    coeffs = z.expand(8)
    import itertools

    for d in range(1, 9):
        expect = MClass.zero()
        for subset, symbol in PAIR.strata:
            ids = sorted(subset)
            comps = [PAIR.component(i) for i in ids]
            for ks in itertools.product(range(1, d + 1), repeat=len(ids)):
                if sum(k * c.N for k, c in zip(ks, comps)) == d:
                    contrib = MClass.symbol(symbol).mul_l1_pow(len(ids) - 1)
                    contrib = contrib.scale_l(-sum(k * c.nu for k, c in zip(ks, comps)))
                    expect = expect + contrib
        assert coeffs[d - 1] == expect, d


def test_nearby_fibre_identity():
    got = nearby_fibre(dl_zeta(PAIR))
    one_minus_l = MClass.one() - MClass.l_power(1)
    expect = MClass.symbol("Ea") + MClass.symbol("Eb") + MClass.symbol("Eab") * one_minus_l
    assert got == expect


def test_nearby_fibre_zero():
    assert nearby_fibre(ZSeries.zero()) == MClass.zero()


def test_motivic_volume_of_poincare_series():
    # -lim of the volume series carries the same stratum combination, scaled
    rng = random.Random(200)
    one_minus_l = MClass.one() - MClass.l_power(1)
    for _ in range(8):
        d = random_sncd(rng, 3, all_strata=False)
        vol = nearby_fibre(sncd_poincare(d))
        expect = MClass.zero()
        for subset, symbol in d.strata:
            term = MClass.symbol(symbol)
            for _ in range(len(subset) - 1):
                term = term * one_minus_l
            expect = expect + term
        assert vol == expect.scale_l(-d.m)


def test_two_formula_consistency():
    rng = random.Random(100)
    for _ in range(10):
        d = random_sncd(rng, 4, all_strata=False, with_nu=True)
        d_mu = SncdData(
            d.m,
            tuple(dataclasses.replace(c, mu=c.nu - c.N) for c in d.components),
            d.strata,
        )
        lhs = dl_zeta(d)
        rhs = sncd_poincare(d_mu).subst_T_L(-1) * ZSeries.term(MClass.l_power(d.m), 0)
        assert equal(lhs, rhs)


# ---------------------------------------------------------------------------
# Fan models.


def test_sncd_to_fanmodel_structure():
    model = sncd_to_fanmodel(PAIR)
    assert validate_model(model) == []
    assert model.complex.ambient_rank == 2
    # multiplicities and orders read back off the coordinate rays
    for i, comp in enumerate(PAIR.components):
        ray = tuple(1 if j == i else 0 for j in range(2))
        cell = model.complex.support_cell(ray)
        owner = model.owning_maximal(cell)
        assert model.e_vecs[owner][i] == comp.N
        assert model.a_vecs[owner][i] == comp.mu


def test_fan_agrees_with_sncd():
    rng = random.Random(7)
    for _ in range(10):
        d = random_sncd(rng, 3, all_strata=True)
        model = sncd_to_fanmodel(d)
        assert validate_model(model) == []
        assert fan_poincare(model, d.m).terms == sncd_poincare(d).terms


def test_single_ray_model():
    ray = cone_from_rays(1, [(1,)])
    k = complex_from_cones(1, [ray])
    model = FanModel(k, {ray: (2,)}, {ray: (3,)}, {ray: MClass.symbol("C")})
    s = fan_poincare(model, 1)
    expect = ZSeries.term(MClass.symbol("C").scale_l(-4), 2, [(-3, 2)])
    assert s.terms == expect.terms
    assert fan_poles(model) == {__import__("fractions").Fraction(-3, 2)}


def test_fan_poles_examples():
    d = SncdData(
        0,
        (SncdComponent("a", 1, mu=1), SncdComponent("b", 6, mu=5)),
        ((frozenset({"a"}), "Ea"), (frozenset({"b"}), "Eb")),
    )
    model = sncd_to_fanmodel(d)
    from fractions import Fraction

    assert fan_poles(model) == {Fraction(-1), Fraction(-5, 6)}


def test_validate_catches_horizontal_rule():
    orthant = cone_from_rays(2, [(1, 0), (0, 1)])
    k = complex_from_cones(2, [orthant])
    model = FanModel(
        k,
        {orthant: (1, 0)},
        {orthant: (0, 2)},  # horizontal ray with a-value 2
        {orthant: MClass.symbol("U").mul_l1_pow(1)},
    )
    problems = validate_model(model)
    assert any("horizontal-divisor" in p for p in problems)


def test_validate_catches_negative_e():
    orthant = cone_from_rays(2, [(1, 0), (0, 1)])
    k = complex_from_cones(2, [orthant])
    model = FanModel(k, {orthant: (1, -1)}, {orthant: (0, 1)}, {})
    assert any("negative" in p for p in validate_model(model))


def test_validate_catches_inconsistent_vectors():
    a = cone_from_rays(2, [(1, 0), (1, 1)])
    b = cone_from_rays(2, [(1, 1), (0, 1)])
    k = complex_from_cones(2, [a, b])
    model = FanModel(
        k,
        {a: (1, 1), b: (2, 1)},  # disagree on the shared ray (1,1)
        {a: (0, 0), b: (0, 0)},
        {},
    )
    assert any("inconsistent e" in p for p in validate_model(model))


def test_validate_requires_e_and_a_on_the_maximal_cells():
    orthant = cone_from_rays(2, [(1, 0), (0, 1)])
    ray = cone_from_rays(2, [(1, 0)])
    k = complex_from_cones(2, [orthant])
    for e_vecs, a_vecs in (({ray: (1, 1)}, {orthant: (0, 0)}), ({orthant: (1, 1)}, {})):
        model = FanModel(k, e_vecs, a_vecs, {})
        assert validate_model(model) == ["e/a vectors must be indexed by the maximal cells"]


def test_piecewise_linear_functionals():
    # continuous but not globally linear e across two cells
    a = cone_from_rays(2, [(1, 0), (1, 1)])
    b = cone_from_rays(2, [(1, 1), (0, 1)])
    k = complex_from_cones(2, [a, b])
    model = FanModel(
        k,
        {a: (2, 3), b: (1, 4)},  # both give 5 on the shared ray (1,1)
        {a: (1, 0), b: (1, 0)},
        {
            a: MClass.symbol("A").mul_l1_pow(1),
            b: MClass.symbol("B").mul_l1_pow(1),
            cone_from_rays(2, [(1, 1)]): MClass.symbol("W"),
        },
    )
    assert validate_model(model) == []
    s = fan_poincare(model, 0)
    # the shared-ray cell sums L^{-k} T^{5k}, k >= 1
    from fractions import Fraction

    assert Fraction(-1, 5) in s.candidate_poles()


def test_transport_identity_subdivision():
    model = sncd_to_fanmodel(PAIR)
    same = transport_subdivide(model, model.complex)
    assert same.weights == model.weights
    assert fan_poincare(same, 0).terms == fan_poincare(model, 0).terms


def test_transport_star_subdivision_invariance():
    model = sncd_to_fanmodel(PAIR)
    base = fan_poincare(model, PAIR.m)
    k2 = star_subdivision(model.complex, (1, 1))
    m2 = transport_subdivide(model, k2)
    assert validate_model(m2) == []
    assert equal(fan_poincare(m2, PAIR.m), base)
    # weights are inherited from the enclosing cell
    new_ray = cone_from_rays(2, [(1, 1)])
    orthant = cone_from_rays(2, [(1, 0), (0, 1)])
    assert m2.weight(new_ray) == model.weight(orthant)


def test_series_equality_operator():
    model = sncd_to_fanmodel(PAIR)
    base = fan_poincare(model, PAIR.m)
    star = fan_poincare(transport_subdivide(model, star_subdivision(model.complex, (1, 1))), PAIR.m)
    assert str(star) != str(base)
    assert star == base and not star != base
    assert base != fan_poincare(model, PAIR.m + 1)
    assert not base == 1 and base != 1


def test_transported_model_is_still_model_checked():
    # a star subdivision keeps the complex valid, but not the model: the new
    # ray (0,1,2) has e-value 0 and a-value 3, and cuts off a singular cell
    # of the generic part
    k = complex_from_cones(3, [ORTHANT3])
    weight = MClass.symbol("X").mul_l1_pow(2)
    model = FanModel(k, {ORTHANT3: (1, 0, 0)}, {ORTHANT3: (1, 1, 1)}, {ORTHANT3: weight})
    assert validate_model(model) == []
    moved = transport_subdivide(model, star_subdivision(k, (0, 1, 2)))
    assert uncertified(moved.complex).validate() == []
    generic, horizontal = validate_model(moved)
    assert "(0, 1, 0), (0, 1, 2)" in generic and "generic part" in generic
    assert "horizontal-divisor" in horizontal and "a-value 3" in horizontal
    with pytest.raises(InvalidModel):
        fan_poincare(moved, 0)


def test_model_refuses_a_vector_of_another_length():
    # the model checks its own shape, in the words parse_fan's error uses,
    # rather than leave a bare dimension mismatch to validate_model
    orthant = cone_from_rays(2, [(1, 0), (0, 1)])
    k = complex_from_cones(2, [orthant])
    with pytest.raises(ValueError, match=r"^e vector \[1, 1, 1\] has length 3, not the rank 2$"):
        FanModel(k, {orthant: (1, 1, 1)}, {orthant: (0, 0)})
    with pytest.raises(ValueError, match=r"^a vector \[0\] has length 1, not the rank 2$"):
        FanModel(k, {orthant: (1, 1)}, {orthant: (0,)})


def test_weight_on_a_cone_that_is_no_cell_is_a_diagnostic():
    # a weight the sum would silently drop makes the model invalid
    orthant, wedge = cone_from_rays(2, [(1, 0), (0, 1)]), cone_from_rays(2, [(1, 0), (1, 2)])
    k = complex_from_cones(2, [orthant])
    model = FanModel(k, {orthant: (1, 1)}, {orthant: (0, 0)}, {wedge: MClass.symbol("X")})
    assert validate_model(model) == [f"weight on {wedge}, which is not a cell"]
    with pytest.raises(InvalidModel, match="not a cell"):
        fan_poincare(model, 0)


def test_model_mappings_are_read_only():
    # a model copies its mappings when built, so its kept verdict cannot go stale
    k = complex_from_cones(3, [ORTHANT3])
    e, a, weights = {ORTHANT3: (1, 0, 0)}, {ORTHANT3: (1, 1, 1)}, {ORTHANT3: MClass.symbol("X")}
    model = FanModel(k, e, a, weights)
    assert validate_model(model) == []
    changes = ((model.e_vecs, (1, 0, -1)), (model.a_vecs, (0, 0, 0)), (model.weights, MClass.one()))
    for mapping, value in changes:
        with pytest.raises(TypeError):
            mapping[ORTHANT3] = value
    e[ORTHANT3] = (1, 0, -1)
    del weights[ORTHANT3]
    assert model.e_vecs[ORTHANT3] == (1, 0, 0) and model.weight(ORTHANT3) == MClass.symbol("X")
    assert validate_model(model) == []
    # a model still pickles and copies
    for again in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert again == model and validate_model(again) == []


def _full_verdict(model):
    """validate_model of an equal model on an uncertified copy of its complex,
    which nothing is handed on to."""
    return validate_model(FanModel(uncertified(model.complex), model.e_vecs, model.a_vecs, model.weights))


def _planted_model(rng):
    """A legal rank-3 model whose e vanishes on a coordinate face with a = 1
    there: a star subdivision in that face adds a ray with e = 0 and a > 1,
    and (0,1,2) also cuts off a cell of index 2 in the generic part."""
    zeros = rng.randint(1, 2)
    e_vec = tuple(rng.randint(1, 3) for _ in range(3 - zeros)) + (0,) * zeros
    a_vec = tuple(rng.randint(-2, 2) for _ in range(3 - zeros)) + (1,) * zeros
    k = complex_from_cones(3, [ORTHANT3])
    weights = {c: MClass.symbol(f"U{i}").mul_l1_pow(c.dim - 1) for i, c in enumerate(k.cells) if c.dim}
    return FanModel(k, {ORTHANT3: e_vec}, {ORTHANT3: a_vec}, weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["plain", "horizontal", "planted"]))
@example(7, "planted")  # a handed-on verdict with a generic-part cell
def test_kept_verdict_equals_full_validation(seed, kind):
    rng = random.Random(seed)
    if kind == "planted":
        model = _planted_model(rng)
    else:
        model = random_fan_model(rng, rng.randint(2, 3), horizontals=kind == "horizontal")
        # rooted here, so that the subdivisions below are certified from it
        model = dataclasses.replace(model, complex=uncertified(model.complex))
    assert validate_model(model) == []
    n = model.complex.ambient_rank
    moved, kp = model, model.complex
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            kp = resolve_complex(kp)
        else:
            v = tuple(rng.randint(0, 2) for _ in range(n))
            if kind == "planted" and rng.random() < 0.7:
                v = tuple(x if e == 0 else 0 for x, e in zip(v, model.e_vecs[ORTHANT3]))
            if not any(v):
                continue
            kp = star_subdivision(kp, v)
        # from the model itself, along a refinement certified from its complex
        direct = transport_subdivide(model, kp)
        assert "_problems" in vars(direct)  # handed on, checked at the new cells
        assert validate_model(direct) == _full_verdict(direct)
        # from the previous model, handed on only along an identity
        moved = transport_subdivide(moved, kp)
        assert validate_model(moved) == _full_verdict(moved)


def test_verdict_handed_on_along_certified_refinements(monkeypatch):
    import logzeta.zeta

    passes = []
    real = logzeta.zeta._cell_problems

    def counting(f, cells):
        passes.append("full" if cells is f.complex.cells else len(cells))
        return real(f, cells)

    monkeypatch.setattr(logzeta.zeta, "_cell_problems", counting)
    rng = random.Random(29)
    for _ in range(6):
        model = random_fan_model(rng, 3)
        model = dataclasses.replace(model, complex=uncertified(model.complex))
        assert validate_model(model) == [] and passes == ["full"]
        star = star_subdivision(model.complex, (1, 1, 1))
        moved = transport_subdivide(model, star)
        twice = star_subdivision(star, (1, 2, 3))
        copied = star_subdivision(uncertified(model.complex), (1, 1, 1))
        # along the model's own complex and along every certified refinement
        # of it, wherever its chain started (a subdivision of a moved model,
        # a refinement of an equal copy), only the new cells are checked
        resolved = resolve_complex(model.complex)
        for f, kp in (
            (model, star),
            (model, twice),
            (model, resolved),
            (model, model.complex),
            (moved, star),
            (moved, twice),
            (moved, star_subdivision(moved.complex, (2, 1, 1))),
            (model, copied),
        ):
            passes.clear()
            assert validate_model(transport_subdivide(f, kp)) == []
            assert passes == [sum(c not in set(f.complex.cells) for c in kp.cells)]
        # an uncertified equal copy, of the complex or of a refinement: the
        # moved model takes the full validation
        for f, kp in ((model, uncertified(star)), (model, uncertified(model.complex)), (moved, uncertified(twice))):
            passes.clear()
            assert validate_model(transport_subdivide(f, kp)) == []
            assert passes == ["full"]
        passes.clear()


def test_transport_requires_subdivision():
    model = sncd_to_fanmodel(PAIR)
    other = complex_from_cones(2, [cone_from_rays(2, [(1, 0), (1, 1)])])
    with pytest.raises(ValueError):
        transport_subdivide(model, other)


def test_transport_from_cells_given_out_of_order():
    orthant, ray = cone_from_rays(2, [(1, 0), (0, 1)]), cone_from_rays(2, [(1, 0)])
    k = ConeComplex(2, tuple(reversed(complex_from_cones(2, [orthant]).cells)))
    weights = {orthant: MClass.symbol("O"), ray: MClass.symbol("R")}
    model = FanModel(k, {orthant: (1, 1)}, {orthant: (0, 0)}, weights)
    assert str(transport_subdivide(model, complex_from_cones(2, [orthant])).weight(ray)) == "[R]"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_complex_answers_do_not_depend_on_cell_order(seed):
    rng = random.Random(seed)
    k = random_subdivided_cone(rng, rng.randint(2, 3))
    n = k.ambient_rank
    cells = list(k.cells)
    rng.shuffle(cells)
    shuffled = ConeComplex(n, tuple(cells))
    assert shuffled.cells == k.cells
    assert shuffled.maximal_cells() == k.maximal_cells()
    assert [shuffled.owners(c) for c in k.cells] == [k.owners(c) for c in k.cells]
    for _ in range(5):
        rays = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        cone = cone_from_rays(n, rays)
        assert shuffled.smallest_containing(cone) == k.smallest_containing(cone)
    # the random cone lies in the positive orthant, so e is positive off the origin
    e = dict.fromkeys(k.maximal_cells(), tuple(rng.randint(1, 3) for _ in range(n)))
    a = dict.fromkeys(k.maximal_cells(), tuple(rng.randint(-2, 2) for _ in range(n)))
    weights = {
        c: MClass.symbol(f"U{i}").mul_l1_pow(c.dim - 1) for i, c in enumerate(k.cells) if c.dim
    }
    model, shuffled_model = FanModel(k, e, a, weights), FanModel(shuffled, e, a, weights)
    assert str(fan_poincare(shuffled_model, 1)) == str(fan_poincare(model, 1))
    rho = tuple(map(sum, zip(*rng.choice(k.maximal_cells()).rays)))
    for kp in (uncertified(k), star_subdivision(k, rho)):
        moved = transport_subdivide(model, kp)
        shuffled_moved = transport_subdivide(shuffled_model, kp)
        assert shuffled_moved.weights == moved.weights
        assert str(fan_poincare(shuffled_moved, 1)) == str(fan_poincare(moved, 1))


def test_transport_reads_the_certificate_only_by_identity(monkeypatch):
    rng = random.Random(14)
    volume_sums = count_calls(monkeypatch, "_volume_sum")
    for _ in range(8):
        model = random_fan_model(rng, rng.randint(2, 3))
        model = dataclasses.replace(model, complex=uncertified(model.complex))
        n = model.complex.ambient_rank
        v = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (1,)
        for kp in (star_subdivision(model.complex, v), resolve_complex(model.complex)):
            before = len(volume_sums)
            moved = transport_subdivide(model, kp)
            assert len(volume_sums) == before
            # an equal copy, or a refinement of one, takes the general path
            for other in (uncertified(kp), star_subdivision(uncertified(model.complex), v)):
                before = len(volume_sums)
                transport_subdivide(model, other)
                assert len(volume_sums) > before
            assert transport_subdivide(model, uncertified(kp)) == moved
        # a certified refinement of a smaller cone is not a subdivision
        units = [tuple(int(i == j) for j in range(n)) for i in range(1, n)]
        corner = cone_from_rays(n, [(1,) * n] + units)
        smaller = star_subdivision(complex_from_cones(n, [corner]), (1,) * n)
        with pytest.raises(ValueError):
            transport_subdivide(model, smaller)


def test_random_model_invariance():
    rng = random.Random(31)
    for i in range(6):
        model = random_fan_model(rng, rng.randint(2, 3), horizontals=(i % 2 == 0))
        assert validate_model(model) == []
        base = fan_poincare(model, 1)
        v = tuple(rng.randint(0, 2) for _ in range(model.complex.ambient_rank))
        if all(x == 0 for x in v):
            v = (1,) * model.complex.ambient_rank
        m2 = transport_subdivide(model, star_subdivision(model.complex, v))
        assert equal(fan_poincare(m2, 1), base)
        m3 = transport_subdivide(model, resolve_complex(model.complex))
        assert validate_model(m3) == []
        assert equal(fan_poincare(m3, 1), base)
        for c in base.expand(6):
            c.assert_no_l1_pole()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_transport_copies_weight_of_relint_cell(seed, resolve):
    rng = random.Random(seed)
    model = random_fan_model(rng, rng.randint(2, 3), horizontals=rng.random() < 0.5)
    n = model.complex.ambient_rank
    kp = model.complex
    for _ in range(rng.randint(1, 2)):
        v = tuple(rng.randint(0, 2) for _ in range(n))
        if any(v):
            kp = star_subdivision(kp, v)
    if resolve:
        kp = resolve_complex(kp)
    moved = transport_subdivide(model, kp)

    def old_cells_holding(cell, old_cells):
        # the sum of a cell's rays lies in its relative interior
        inner = tuple(sum(xs) for xs in zip(*cell.rays)) if cell.rays else (0,) * n
        return [c for c in old_cells if c.relint_contains(inner)]

    for cell in kp.cells:
        (old,) = old_cells_holding(cell, model.complex.cells)
        assert moved.weight(cell) == model.weight(old)
    for mc in kp.maximal_cells():
        (old,) = old_cells_holding(mc, model.complex.maximal_cells())
        assert moved.e_vecs[mc] == model.e_vecs[old]
        assert moved.a_vecs[mc] == model.a_vecs[old]


def test_complex_verdict_computed_once(monkeypatch):
    import logzeta.cones

    k = uncertified(
        star_subdivision(star_subdivision(complex_from_cones(3, [ORTHANT3]), (1, 1, 0)), (1, 1, 1))
    )
    maximal = k.maximal_cells()
    e_vec, a_vec = (1, 2, 3), (0, 1, -1)
    model = FanModel(
        k,
        {mc: e_vec for mc in maximal},
        {mc: a_vec for mc in maximal},
        {c: MClass.symbol(f"U{i}").mul_l1_pow(c.dim - 1) for i, c in enumerate(k.cells) if c.dim},
    )
    calls = []
    real = logzeta.cones._meet_in_common_face

    def counting(c1, c2):
        calls.append((c1, c2))
        return real(c1, c2)

    monkeypatch.setattr(logzeta.cones, "_meet_in_common_face", counting)
    assert validate_model(model) == []
    fan_poincare(model, 0)
    assert len(calls) == len(maximal) * (len(maximal) - 1) // 2 > 0


def test_poles_never_grow_under_subdivision():
    rng = random.Random(57)
    for _ in range(5):
        model = random_fan_model(rng, 2)
        base = fan_poincare(model, 0)
        m2 = transport_subdivide(model, resolve_complex(model.complex))
        assert equal(fan_poincare(m2, 0), base)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_fan_poincare_brute_force_oracle(rank):
    rng = random.Random(70 + rank)
    for _ in range(5):
        model = random_fan_model(rng, rank, horizontals=False)
        m = rng.randint(0, 2)
        assert fan_poincare(model, m).expand(6) == brute_fan_sum(model, m, 6)


@pytest.mark.parametrize(
    "stars",
    [
        # (1,1,2) lies in the relative interior of the face spanned by
        # (1,1,0) and e3; the new face cone((1,1,0),(1,1,2)) has index 2
        [(1, 1, 0), (1, 1, 2)],
        [(1, 1, 0, 0), (1, 1, 0, 2), (0, 1, 1, 1)],
    ],
)
def test_fan_poincare_brute_force_non_unimodular_faces(stars):
    n = len(stars[0])
    orthant = cone_from_rays(n, [tuple(int(j == i) for j in range(n)) for i in range(n)])
    k = complex_from_cones(n, [orthant])
    for rho in stars:
        k = star_subdivision(k, rho)
    assert any(0 < c.dim < n and not c.is_smooth for c in k.cells)
    weights = {
        c: MClass.symbol(f"U{i}").mul_l1_pow(c.dim - 1) for i, c in enumerate(k.cells) if c.dim
    }
    e_vec = tuple(range(1, n + 1))
    a_vec = tuple((-1) ** i * i for i in range(n))
    model = FanModel(
        k, {mc: e_vec for mc in k.maximal_cells()}, {mc: a_vec for mc in k.maximal_cells()}, weights
    )
    assert validate_model(model) == []
    for m in (0, 1):
        assert fan_poincare(model, m).expand(7) == brute_fan_sum(model, m, 7)


def _models_with_odd_cells():
    rng = random.Random(91)
    models = [random_fan_model(rng, rank) for rank in (2, 3, 4) for _ in range(3)]
    # non-smooth lower-dimensional cells, and non-simplicial flat squares,
    # the second of whose rays take another order in span coordinates
    k = complex_from_cones(3, [ORTHANT3])
    for rho in [(1, 1, 0), (1, 1, 2)]:
        k = star_subdivision(k, rho)
    square = cone_from_rays(4, [(1, 0, 1, 1), (0, 1, 1, 2), (-1, 0, 1, 0), (0, -1, 1, -1)])
    reordered = cone_from_rays(4, [(0, -1, 1, 0), (0, 0, 0, 1), (2, -1, 2, 0), (4, 1, 1, 2)])
    for k in (k, complex_from_cones(4, [square]), complex_from_cones(4, [reordered])):
        maximal = k.maximal_cells()
        ones, zeros = (1,) * k.ambient_rank, (0,) * k.ambient_rank
        models.append(FanModel(k, dict.fromkeys(maximal, ones), dict.fromkeys(maximal, zeros)))
    return models


def test_cell_in_span_matches_cone_from_rays():
    from logzeta.intlin import mat_vec, span_lattice
    from logzeta.zeta import _cell_in_span

    # the kernel reads a cell by its rays in span coordinates: the sorted
    # extreme rays of the cone they build there, with that cone's facet
    # masks over them, sorted, and its dimension; the cone is full
    # dimensional there, so all of its facets are pointed
    for model in _models_with_odd_cells():
        for cell in model.complex.cells:
            rays, on_facet, dim, _, _ = _cell_in_span(model, cell)
            span, proj, _ = span_lattice(cell.rays, model.complex.ambient_rank)
            reduced = cone_from_rays(len(span), [mat_vec(proj, r) for r in cell.rays])
            assert rays == reduced.rays, cell
            assert (on_facet, dim) == (tuple(sorted(oracle_incidence(reduced))), reduced.dim), cell


def test_span_coordinates_worked_out_once_per_cell(monkeypatch):
    import logzeta.cones

    # a model, its star subdivision and its resolution share their equal
    # cells, and each cell keeps its span coordinates: over all three sums,
    # one span_lattice reading per distinct contributing cell
    reads = []
    real = logzeta.cones.span_lattice

    def reading(vectors, n):
        reads.append((tuple(vectors), n))
        return real(vectors, n)

    monkeypatch.setattr(logzeta.cones, "span_lattice", reading)
    k = complex_from_cones(3, [cone_from_rays(3, [(1, 0, 0), (1, 3, 0), (0, 0, 1)])])  # index 3
    weights = {c: MClass.symbol(f"U{i}").mul_l1_pow(c.dim - 1) for i, c in enumerate(k.cells) if c.dim}
    e, a = dict.fromkeys(k.maximal_cells(), (1, 2, 1)), dict.fromkeys(k.maximal_cells(), (0, 0, 0))
    model = FanModel(k, e, a, weights)
    models = [
        model,
        transport_subdivide(model, star_subdivision(k, (1, 1, 1))),
        transport_subdivide(model, resolve_complex(k)),
    ]
    contributing = {
        cell
        for f in models
        for cell in f.complex.cells
        if not f.weight(cell).is_zero() and not f.e_identically_zero(cell)
    }
    for f in models:
        fan_poincare(f, 1)
    assert len(models[1].complex.cells) < len(models[2].complex.cells)
    assert sorted(reads) == sorted((c.rays, 3) for c in contributing)
    for cell in contributing:
        kept = cell.span_coordinates
        assert kept is cell.span_coordinates
        # tuples throughout, so a caller cannot change a kept value
        assert isinstance(kept, tuple) and all(isinstance(part, tuple) for part in kept)
        hash(kept)
