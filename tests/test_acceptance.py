"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every check is zero tolerance: series and classes are compared
in exact arithmetic, oracles are independent enumerations.
"""

import dataclasses
import random
from fractions import Fraction

from logzeta.cones import (
    HalfOpenCone,
    box_points,
    check_subdivision,
    complex_from_cones,
    dual_cone,
    faces,
    resolve_complex,
    star_subdivision,
    triangulate_half_open,
)
from logzeta.intlin import det, from_columns, is_zero_vec
from logzeta.mring import MClass
from logzeta.monoids import (
    base_change,
    divisor_add,
    divisor_from_element,
    face_lattice,
    root_index,
)
from logzeta.newton import (
    NewtonInput,
    newton_poles,
    newton_polyhedron,
    newton_to_fanmodel,
    newton_zeta,
    newton_zeta_local,
)
from logzeta.series import ZSeries, cone_series, equal
from logzeta.zeta import (
    SncdComponent,
    SncdData,
    dl_zeta,
    fan_poincare,
    nearby_fibre,
    sncd_poincare,
    sncd_to_fanmodel,
    transport_subdivide,
    validate_model,
)

from genutil import (
    affine_lattice_points,
    brute_cone_sum,
    half_open_contains,
    newton_expand_oracle,
    product_monoid_with_horizontals,
    random_cone,
    random_fan_model,
    random_marked_monoid,
    random_sncd,
    random_support,
    root_index_via_torsion,
    truncate_l_below,
    uncertified,
)


def report(name: str, detail: str = ""):
    print(f"[PASS] {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_cone_sum_oracle():
    """Cone sums match brute-force enumeration over interior dual points."""
    rng = random.Random(20_260_809)
    degree = 12
    checked = 0
    for _ in range(160):
        rank = rng.randint(1, 4)
        entry = 6 if rank <= 3 else 4
        mm = random_marked_monoid(rng, rank, max_entry=entry, interior_e=True)
        w = MClass.symbol("W")
        assert cone_series(mm, w).expand(degree) == brute_cone_sum(mm, w, degree)
        checked += 1
    horizontals = 0
    for _ in range(40):
        prod, vert, h = product_monoid_with_horizontals(
            rng, rng.randint(1, 2), rng.randint(1, 2)
        )
        w = MClass.symbol("W").mul_l1_pow(prod.base.rank - 1)
        got = cone_series(prod, w).expand(degree)
        expect = [c.mul_l1_pow(-h) for c in brute_cone_sum(vert, w, degree)]
        assert got == expect
        checked += 1
        horizontals += 1
    assert checked >= 200
    report(
        "criterion 1: cone-sum oracle equivalence",
        f"{checked} marked monoids, {horizontals} with horizontal rays, degree {degree}",
    )


def test_criterion_2_subdivision_invariance():
    """fan_poincare is invariant under star subdivision and resolution."""
    rng = random.Random(2)
    models = 0
    while models < 50:
        rank = rng.randint(2, 3)
        model = random_fan_model(rng, rank, horizontals=(models % 3 == 0))
        assert validate_model(model) == []
        base = fan_poincare(model, 1)
        v = tuple(rng.randint(0, 2) for _ in range(rank))
        if is_zero_vec(v):
            v = (1,) * rank
        star = transport_subdivide(model, star_subdivision(model.complex, v))
        assert validate_model(star) == []
        assert equal(fan_poincare(star, 1), base)
        resolved = transport_subdivide(model, resolve_complex(model.complex))
        assert validate_model(resolved) == []
        assert equal(fan_poincare(resolved, 1), base)
        for c in base.expand(6):
            c.assert_no_l1_pole()
        models += 1
    report("criterion 2: subdivision invariance", f"{models} models, star + resolve")


def test_criterion_3_sncd_fan_agreement():
    rng = random.Random(3)
    for k in range(50):
        d = random_sncd(rng, 4, all_strata=True)
        model = sncd_to_fanmodel(d)
        assert validate_model(model) == []
        assert fan_poincare(model, d.m).terms == sncd_poincare(d).terms
    report("criterion 3: sncd/fan agreement", "50 data sets, structural equality")


def test_criterion_4_nearby_fibre_identity():
    one_minus_l = MClass.one() - MClass.l_power(1)
    count = 0
    for k in range(1, 5):
        comps = tuple(
            SncdComponent(f"c{i}", N=i + 1, mu=None, nu=2 * i + 1) for i in range(k)
        )
        ids = [c.id for c in comps]
        strata = []
        for mask in range(1, 2**k):
            subset = frozenset(ids[i] for i in range(k) if mask >> i & 1)
            strata.append((subset, "S" + "".join(sorted(subset))))
        d = SncdData(0, comps, tuple(strata))
        got = nearby_fibre(dl_zeta(d))
        expect = MClass.zero()
        for subset, symbol in strata:
            term = MClass.symbol(symbol)
            for _ in range(len(subset) - 1):
                term = term * one_minus_l
            expect = expect + term
        assert got == expect
        count += len(strata)
    report("criterion 4: nearby-fibre identity", f"all subsets up to 4 components ({count} strata)")


def test_criterion_5_two_formula_consistency():
    rng = random.Random(5)
    for _ in range(25):
        d = random_sncd(rng, 4, all_strata=False, with_nu=True)
        d_mu = SncdData(
            d.m,
            tuple(dataclasses.replace(c, mu=c.nu - c.N) for c in d.components),
            d.strata,
        )
        lhs = dl_zeta(d)
        rhs = sncd_poincare(d_mu).subst_T_L(-1) * ZSeries.term(MClass.l_power(d.m), 0)
        assert equal(lhs, rhs)
    report("criterion 5: two-formula consistency", "25 random data sets")


def test_criterion_6_newton_end_to_end():
    assert newton_poles(NewtonInput(2, ((2, 0), (0, 3)))) == {
        Fraction(-1),
        Fraction(-5, 6),
    }
    for a in range(2, 6):
        for b in range(2, 6):
            inp_ab = NewtonInput(2, ((a, 0), (0, b)))
            got = newton_poles(inp_ab)
            assert got == {Fraction(-1), Fraction(-(a + b), a * b)}, (a, b)
            # the series' own denominators confirm the pole set
            assert newton_zeta(inp_ab).candidate_poles() == got, (a, b)

    rng = random.Random(6)
    degree, lcut = 12, 24
    supports = 0
    while supports < 20:
        inp = random_support(rng, rng.randint(1, 3), max_points=6)
        z = newton_zeta(inp)
        got = [truncate_l_below(c, -lcut) for c in z.expand(degree)]
        assert got == newton_expand_oracle(inp, degree, lcut), inp.support
        supports += 1

    for _ in range(6):
        inp = random_support(rng, rng.randint(1, 2), max_points=4, max_coord=4)
        model = newton_to_fanmodel(inp)
        assert validate_model(model) == []
        lhs = fan_poincare(model, inp.n - 1).subst_T_L(-1) * ZSeries.term(MClass.l_power(inp.n - 1), 0)
        assert equal(lhs, newton_zeta(inp)), inp.support
    report(
        "criterion 6: newton end-to-end",
        f"pole table, {supports} expansion oracles to T^{degree}, 6 cross-pipeline identities",
    )


def test_criterion_7_monoid_laws():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        mm = random_marked_monoid(rng, rng.randint(1, 3), interior_e=False)
        assert root_index(mm) == root_index_via_torsion(mm)
        m = root_index(mm)
        for d in range(1, m + 1):
            if m % d == 0:
                assert root_index(base_change(mm, d)) == m // d
        checked += 1
    # face lattice bijection: counts and inclusion structure match the cone's
    for _ in range(20):
        base = random_marked_monoid(rng, rng.randint(1, 3), interior_e=False).base
        entries = face_lattice(base)
        cone_faces = faces(base.cone)
        assert {f for f, _ in entries} == set(cone_faces)
        for f, h in entries:
            assert h == base.rank - f.dim
    # divisor map is a homomorphism
    for _ in range(30):
        base = random_marked_monoid(rng, 2, interior_e=False).base
        a = tuple(rng.randint(-4, 4) for _ in range(2))
        b = tuple(rng.randint(-4, 4) for _ in range(2))
        ab = tuple(x + y for x, y in zip(a, b))
        assert divisor_add(
            divisor_from_element(base, a), divisor_from_element(base, b)
        ) == divisor_from_element(base, ab)
    report("criterion 7: monoid laws", f"{checked} monoids, root/base-change/face/divisor laws")


def test_criterion_8_polyhedral_kernel():
    rng = random.Random(8)
    # dual involution
    for _ in range(30):
        c = random_cone(rng, rng.randint(2, 3), 5)
        assert dual_cone(dual_cone(c)) == c
    # resolution postconditions
    resolved = 0
    while resolved < 30:
        rank = rng.randint(2, 3)
        k = complex_from_cones(rank, [random_cone(rng, rank, 4)])
        r = resolve_complex(k)
        assert all(cell.is_smooth for cell in r.cells)
        assert check_subdivision(uncertified(r), k)
        resolved += 1
    # half-open coverage with multiplicity one on bounded slices
    for _ in range(10):
        c = random_cone(rng, rng.randint(2, 4), 5)
        pieces = {
            region: triangulate_half_open(c, region) for region in ("relint", "closed")
        }
        n = c.ambient_rank
        ineqs = [(0, f) for f in c.facets]
        ineqs.append((10, tuple(-1 for _ in range(n))))
        for p in affine_lattice_points(n, ineqs):
            closed_count = sum(
                1 for piece in pieces["closed"] if half_open_contains(piece, p)
            )
            relint_count = sum(
                1 for piece in pieces["relint"] if half_open_contains(piece, p)
            )
            assert closed_count == 1
            assert relint_count == (1 if c.relint_contains(p) else 0)
    # box-point count equals the index
    for _ in range(30):
        rank = rng.randint(1, 3)
        while True:
            gens = [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(rank)]
            d = det(from_columns(gens))
            if d != 0:
                break
        flags = tuple(rng.random() < 0.5 for _ in range(rank))
        pts = box_points(HalfOpenCone(rank, tuple(gens), flags))
        assert len(pts) == abs(d)
    report("criterion 8: polyhedral kernel", "duality, 30 resolutions, coverage, box counts")


def test_criterion_9_local_global_filter():
    rng = random.Random(9)
    for _ in range(12):
        inp = random_support(rng, rng.randint(1, 3))
        glob = newton_zeta(inp)
        loc = newton_zeta_local(inp)
        compact = {r.face_id for r in newton_polyhedron(inp) if r.is_compact}
        # every local term appears in the global series with identical coefficient
        glob_terms = dict(glob.sorted_terms())
        for key, c in loc.sorted_terms():
            assert key in glob_terms
            for sym, coeff in c.terms.items():
                assert glob_terms[key].terms.get(sym) == coeff
                assert sym.split("@")[1] in compact
        # and the global-minus-local remainder carries no compact-face symbols
        for _, c in (glob - loc).sorted_terms():
            for sym in c.terms:
                assert sym.split("@")[1] not in compact
    report("criterion 9: local/global newton filter", "12 supports, term-level filter")
