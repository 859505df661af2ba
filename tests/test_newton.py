import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import logzeta.cones
import logzeta.newton
from logzeta.cli import format_poles
from logzeta.cones import complex_from_cones, cone_from_rays, faces, triangulate_half_open
from logzeta.intlin import dot, rank, vec_scale
from logzeta.mring import MClass
from logzeta.newton import (
    NewtonInput,
    face_report,
    newton_poles,
    newton_polyhedron,
    newton_to_fanmodel,
    newton_zeta,
    newton_zeta_local,
    nondegeneracy_probe,
)
from logzeta.series import CONE_SUM_MAX_BOX_POINTS, ZSeries, equal
from logzeta.zeta import fan_poincare, fan_poles, validate_model

from genutil import (
    brute_newton_faces,
    count_calls,
    count_dd_runs,
    newton_expand_oracle,
    oracle_incidence,
    random_support,
    section_product_terms,
    support_box_points,
)
from genutil import truncate_l_below

CUSP = NewtonInput(2, ((2, 0), (0, 3)))


def test_input_validation():
    with pytest.raises(ValueError):
        NewtonInput(2, ())
    with pytest.raises(ValueError):
        NewtonInput(2, ((0, 0),))
    with pytest.raises(ValueError):
        NewtonInput(2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        NewtonInput(2, ((-1, 2),))


def test_cusp_polyhedron():
    records = newton_polyhedron(CUSP)
    facets = [r for r in records if r.dim_face == 1]
    normals = {r.normal_cone_closure.pointed_rays()[0]: r.m_of(r.normal_cone_closure.pointed_rays()[0]) for r in facets}
    assert normals == {(3, 2): 6, (1, 0): 0, (0, 1): 0}
    vertices = {min(r.argmin_support) for r in records if r.dim_face == 0}
    assert vertices == {(2, 0), (0, 3)}
    assert sum(1 for r in facets if r.is_compact) == 1


def test_single_point_support():
    records = newton_polyhedron(NewtonInput(2, ((1, 1),)))
    by_dim = {}
    for r in records:
        by_dim.setdefault(r.dim_face, []).append(r)
    assert len(by_dim[0]) == 1  # vertex
    vertex = by_dim[0][0]
    assert vertex.normal_cone_closure.dim == 2  # whole dual orthant
    assert vertex.is_compact
    assert len(by_dim[1]) == 2 and not any(r.is_compact for r in by_dim[1])
    assert len(by_dim[2]) == 1


def test_linear_form_faces():
    inp = NewtonInput(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    records = newton_polyhedron(inp)
    # vertex count = 3, the compact simplex facet is present
    assert sum(1 for r in records if r.dim_face == 0) == 3
    compact_facets = [r for r in records if r.dim_face == 2 and r.is_compact]
    assert len(compact_facets) == 1
    (v,) = compact_facets[0].normal_cone_closure.pointed_rays()
    assert v == (1, 1, 1)


def test_dim_complementarity():
    rng = random.Random(12)
    for _ in range(8):
        inp = random_support(rng, rng.randint(1, 3))
        for r in newton_polyhedron(inp):
            assert r.normal_cone_closure.dim == inp.n - r.dim_face


def test_m_zero_facets_are_coordinate_normals():
    rng = random.Random(13)
    for _ in range(10):
        inp = random_support(rng, rng.randint(2, 3))
        for r in newton_polyhedron(inp):
            if r.dim_face == inp.n - 1:
                (v,) = r.normal_cone_closure.pointed_rays()
                if r.m_of(v) == 0:
                    assert sum(v) == 1 and all(x in (0, 1) for x in v)


def test_omega_minus_witness_in_dual():
    rng = random.Random(14)
    for _ in range(8):
        inp = random_support(rng, 2)
        for r in newton_polyhedron(inp):
            for w in inp.support:
                diff = tuple(a - b for a, b in zip(w, r.m_witness))
                for u in r.normal_cone_closure.rays:
                    assert sum(x * y for x, y in zip(u, diff)) >= 0


def test_normal_complex_is_complete():
    rng = random.Random(15)
    for _ in range(6):
        inp = random_support(rng, 2)
        records = newton_polyhedron(inp)
        k = complex_from_cones(inp.n, [r.normal_cone_closure for r in records])
        assert k.validate() == []
        # partition: relint point counts of cells sum to the orthant count
        import itertools

        bound = 7
        pts = [p for p in itertools.product(range(bound + 1), repeat=2)]
        for p in pts:
            owners = [r for r in records if r.normal_cone_closure.relint_contains(p)]
            assert len(owners) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_faces_match_brute_force(seed, n):
    inp = random_support(random.Random(seed), n)
    assert brute_newton_faces(inp, newton_polyhedron(inp), box={2: 6, 3: 3, 4: 2}[n]) == []


# random supports the face table sums over, less the few it refuses by design
# for their box points (see the test after the next)
supports_within_budget = st.builds(
    random_support, st.integers(0, 10_000).map(random.Random), st.integers(2, 4)
).filter(lambda inp: support_box_points(inp) <= CONE_SUM_MAX_BOX_POINTS)


@settings(max_examples=60, deadline=None)
@given(supports_within_budget)
def test_face_terms_match_section_product(inp):
    terms = logzeta.newton._table(inp).terms
    expected = section_product_terms(inp)
    assert len(terms) == len(expected)
    for term, product in zip(terms, expected):
        assert term.terms == product.terms
        assert str(term) == str(product)
        # face symbols are built unchecked; each is its own canonical form
        for _, c in term.sorted_terms():
            for sym in c.terms:
                assert list(MClass.symbol(sym).terms) == [sym]


def test_face_table_refuses_a_support_over_the_box_budget():
    # 8 of the seeds 0-10,000 at n = 4 draw such a support; the face table
    # raises at the record that takes its count past the bound, rather than
    # enumerate all 106,502 box points
    inp = random_support(random.Random(233), 4)
    assert support_box_points(inp) == 106_502
    with pytest.raises(ValueError, match="cone sum needs 51845 box points, more than 50000"):
        logzeta.newton._table(inp).terms


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_horizontal_normal_rays_are_coordinate_vectors(seed, n):
    # a normal ray u with m(u) = 0 is the inward normal of a facet at value 0,
    # hence of a coordinate hyperplane: a unit vector, on which sigma pairs
    # to 1, so the face table's kernel calls keep the horizontal-divisor rule
    inp = random_support(random.Random(seed), n)
    for rec in newton_polyhedron(inp):
        for r in rec.normal_rays:
            if rec.m_of(r) == 0:
                assert sorted(r) == [0] * (n - 1) + [1], (rec, r)


def test_face_table_built_once_per_support(monkeypatch):
    calls = []
    real = logzeta.newton._newton_faces

    def counting(n, support):
        calls.append(support)
        return real(n, support)

    monkeypatch.setattr(logzeta.newton, "_newton_faces", counting)
    inp = NewtonInput(3, ((0, 0, 2), (1, 1, 1), (2, 2, 0)))
    newton_zeta(inp)
    newton_zeta_local(inp)
    newton_poles(inp)
    face_report(inp)
    newton_to_fanmodel(inp)
    assert len(calls) == 1
    # the returned list is the caller's own
    records = newton_polyhedron(inp)
    first = list(records)
    records.clear()
    assert newton_polyhedron(inp) == first
    newton_polyhedron(inp)[0] = None
    assert newton_polyhedron(inp) == first
    # coefficients do not change the faces, so they share one table
    support = ((2, 0), (1, 1), (0, 2))
    a = NewtonInput(2, support, {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)})
    b = NewtonInput(2, support, {(2, 0): Fraction(1), (1, 1): Fraction(3), (0, 2): Fraction(-1, 2)})
    assert nondegeneracy_probe(a, 7)[0] == "fail"
    assert nondegeneracy_probe(b, 7)[0] == "pass"
    assert newton_polyhedron(a) == newton_polyhedron(b)
    assert len(calls) == 2


@pytest.mark.parametrize("seed", range(6))
def test_face_table_runs_one_dd_per_face(monkeypatch, seed):
    # the lifted cone's, one double description however many support points
    # (with no pair to weigh for one point): each normal cone is read off
    # its tight facets, and built as a cone only when asked for, by no
    # double description when it is simplicial and by one otherwise; a
    # second read builds none
    inp = random_support(random.Random(seed), 2 + seed % 3)
    runs = count_dd_runs(monkeypatch)
    ranks = count_calls(monkeypatch, "rank")
    records = logzeta.newton._newton_faces(inp.n, inp.support)
    assert runs == [inp.n + 1] and ranks == []
    kinds = set()
    for r in records:
        simplicial = len(r.normal_rays) == inp.n - r.dim_face
        kinds.add(simplicial)
        del runs[:]
        assert r.normal_cone_closure.rays == r.normal_rays
        assert len(runs) == (0 if simplicial else 1)
        r.normal_cone_closure
        assert len(runs) == (0 if simplicial else 1)
    assert True in kinds


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_normal_rays_are_the_normal_cones_rays(seed, n):
    # per face of the lifted cone that meets a lifted support point: the
    # cone of the projections of its tight facets, built by the double
    # description, has the record's rays and dimension and is its closure
    inp = random_support(random.Random(seed), n)
    lifted = [w + (1,) for w in inp.support]
    c = cone_from_rays(n + 1, lifted + [tuple(int(j == i) for j in range(n + 1)) for i in range(n)])
    expected = []
    for g in faces(c):
        argmin = sorted(w for w, v in zip(inp.support, lifted) if g.contains(v))
        if argmin:
            cone = cone_from_rays(n, [u[:n] for u in c.facets if all(dot(u, r) == 0 for r in g.rays)])
            expected.append((argmin, n - cone.dim, cone.rays, cone))
    records = newton_polyhedron(inp)
    got = [(sorted(r.argmin_support), r.dim_face, r.normal_rays, r.normal_cone_closure) for r in records]
    assert sorted(got, key=repr) == sorted(expected, key=repr)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
@example(1, 3)  # non-compact faces, and non-simplicial normal cones in N^3
@example(0, 4)  # and in N^4
def test_cover_incidence_and_dimension_match_the_built_normal_cone(seed, n):
    # the covers of a face in the lifted cone's face lattice give its normal
    # cone's pointed facets, as masks over the sorted normal rays, and the
    # grading its dimension: as the definition (dot) and the rank read them
    # off the cone that cone_from_rays builds; and the piece table's route
    # from them gives the half-open pieces of that cone
    inp = random_support(random.Random(seed), n)
    for rec in newton_polyhedron(inp):
        c = cone_from_rays(n, rec.normal_rays)
        assert c.rays == rec.normal_rays
        facets = set(c.facets)
        pointed = [m for u, m in zip(c.facets, oracle_incidence(c)) if vec_scale(-1, u) not in facets]
        assert rec.normal_incidence == tuple(sorted(pointed))
        assert n - rec.dim_face == rank(rec.normal_rays) == c.dim
        pieces = logzeta.cones._relint_pieces(n, rec.normal_rays, rec.normal_incidence, n - rec.dim_face)
        assert pieces == tuple(triangulate_half_open(c, "relint"))


def test_cover_examples_have_what_they_are_for():
    # the examples above hold non-compact faces and full-dimensional
    # non-simplicial normal cones (in N^2 every cone is simplicial)
    for seed, n in ((1, 3), (0, 4)):
        records = newton_polyhedron(random_support(random.Random(seed), n))
        assert any(not r.is_compact for r in records)
        assert any(len(r.normal_rays) > n - r.dim_face == n for r in records)


def test_newton_outputs_pinned():
    # 300 random supports (seed i, n = 2 + i % 3): the canonical text of both
    # zeta functions, the poles, the face report and every record field.
    digest = hashlib.sha256()
    for seed in range(300):
        inp = random_support(random.Random(seed), 2 + seed % 3, max_points=4, max_coord=4)
        records = [
            (
                r.face_id,
                sorted(r.argmin_support),
                r.normal_cone_closure.rays,
                r.normal_cone_closure.facets,
                r.dim_face,
                r.is_compact,
                r.m_witness,
            )
            for r in newton_polyhedron(inp)
        ]
        text = [
            str(newton_zeta(inp)),
            str(newton_zeta_local(inp)),
            format_poles(newton_poles(inp)),
            repr(face_report(inp)),
            repr(records),
        ]
        digest.update("\n".join(text).encode() + b"\n")
    assert digest.hexdigest() == "decb65e76684bcc62a1409beb7eb8741dcf316aced1ed1bcad5c54eaf7ca157a"


def test_face_report_is_json_ready():
    import json

    report = face_report(CUSP)
    json.dumps(report)  # serializable
    assert len(report) == 6
    facet = next(r for r in report if r["dim"] == 1 and r["compact"])
    assert facet["normal_rays"] == [[3, 2]]
    assert facet["m_values"] == [6] and facet["sigma_values"] == [5]


def test_cusp_poles():
    assert newton_poles(CUSP) == {Fraction(-1), Fraction(-5, 6)}


def test_axis_pair_poles():
    for a in range(2, 6):
        for b in range(2, 6):
            poles = newton_poles(NewtonInput(2, ((a, 0), (0, b))))
            from math import gcd

            g = gcd(a, b)
            expect = {Fraction(-1), Fraction(-(a + b), a * b)}
            assert poles == expect, (a, b)


def test_xy_poles():
    assert newton_poles(NewtonInput(2, ((1, 1),))) == {Fraction(-1)}


def test_zeta_matches_poles():
    z = newton_zeta(CUSP)
    assert z.candidate_poles() == {Fraction(-1), Fraction(-5, 6)}


def test_zeta_expansion_oracle():
    rng = random.Random(16)
    for _ in range(8):
        inp = random_support(rng, rng.randint(1, 3))
        got = [truncate_l_below(c, -20) for c in newton_zeta(inp).expand(10)]
        assert got == newton_expand_oracle(inp, 10, 20), inp.support


def test_local_terms_subset_of_global():
    rng = random.Random(18)
    for _ in range(8):
        inp = random_support(rng, rng.randint(1, 3))
        glob = newton_zeta(inp)
        loc = newton_zeta_local(inp)
        compact_ids = {
            r.face_id for r in newton_polyhedron(inp) if r.is_compact
        }
        glob_terms = dict(glob.sorted_terms())
        for (beta, denoms), c in loc.sorted_terms():
            assert glob_terms.get((beta, denoms)) is not None
            for sym in c.terms:
                face = sym.split("@")[1]
                assert face in compact_ids
        # global = local + non-compact part, term by term
        noncompact = glob - loc
        for _, c in noncompact.sorted_terms():
            for sym in c.terms:
                assert sym.split("@")[1] not in compact_ids


def test_vertex_only_local():
    inp = NewtonInput(2, ((1, 1),))
    loc = newton_zeta_local(inp)
    ids = {sym.split("@")[1] for _, c in loc.sorted_terms() for sym in c.terms}
    records = newton_polyhedron(inp)
    vertex_id = next(r.face_id for r in records if r.dim_face == 0)
    assert ids == {vertex_id}


# ---------------------------------------------------------------------------
# Fan model and the cross-pipeline identity.


def test_newton_model_validates():
    model = newton_to_fanmodel(CUSP)
    assert validate_model(model) == []
    # horizontal coordinate rays carry a-value 1
    n = CUSP.n
    for mc in model.complex.maximal_cells():
        e, a = model.e_vecs[mc], model.a_vecs[mc]
        for r in mc.rays:
            if sum(x * y for x, y in zip(e, r)) == 0:
                assert sum(x * y for x, y in zip(a, r)) == 1


def test_cross_pipeline_identity():
    rng = random.Random(19)
    inputs = [CUSP, NewtonInput(2, ((1, 1),)), NewtonInput(1, ((2,),))]
    inputs += [random_support(rng, rng.randint(1, 2), max_points=4, max_coord=4) for _ in range(5)]
    for inp in inputs:
        model = newton_to_fanmodel(inp)
        assert validate_model(model) == []
        lhs = fan_poincare(model, inp.n - 1).subst_T_L(-1) * ZSeries.term(MClass.l_power(inp.n - 1), 0)
        assert equal(lhs, newton_zeta(inp)), inp.support


def test_fan_series_text_pinned():
    # Fan cells are triangulated in their saturated span lattice.  In ambient
    # coordinates the pulling order of the rays differs on non-simplicial
    # lower-dimensional cells, giving an equal series printed with other terms.
    model = newton_to_fanmodel(NewtonInput(3, ((0, 0, 2), (1, 1, 1), (2, 2, 0))))
    assert str(fan_poincare(model, 2)) == (
        "([X_tau(0)@tau12]*L^-2/(L-1) + [X_tau(0)@tau13]*L^-2 + [X_tau(0)@tau3]*L^-2/(L-1)^2"
        " + [X_tau(0)@tau8]*L^-2/(L-1) + [X_tau(0)@tau9]*L^-2/(L-1))*T/(1-T)"
        " + ([X_tau(1)@tau0]*L^-2/(L-1)^2 + [X_tau(1)@tau10]*L^-2 + [X_tau(1)@tau11]*L^-2"
        " + [X_tau(1)@tau2]*L^-2/(L-1) + [X_tau(1)@tau4]*L^-2/(L-1) + [X_tau(1)@tau6]*L^-2/(L-1)"
        " + [X_tau(1)@tau7]*L^-2/(L-1))*T^2/(1-T^2)"
        " + [X_tau(1)@tau0]*L^-2/(L-1)*T^2/((1-T^2)*(1-T^2))"
        " + ([X_tau(0)@tau0]*L^-1/(L-1)^2 + [X_tau(0)@tau10]*L^-2 + [X_tau(0)@tau11]*L^-2"
        " + [X_tau(0)@tau2]*L^-2/(L-1) + [X_tau(0)@tau4]*L^-2/(L-1) + [X_tau(0)@tau6]*L^-2/(L-1)"
        " + [X_tau(0)@tau7]*L^-2/(L-1))*T^3/((1-T)*(1-T^2))"
        " + ([X_tau(1)@tau1]*L^-2/(L-1) + [X_tau(1)@tau5]*L^-2)*T^4/((1-T^2)*(1-T^2))"
        " + ([X_tau(0)@tau0]*L^-2/(L-1) + [X_tau(0)@tau1]*L^-2/(L-1) + [X_tau(0)@tau5]*L^-2)"
        "*T^5/((1-T)*(1-T^2)*(1-T^2))"
    )


def test_fan_poles_shifted_match():
    model = newton_to_fanmodel(CUSP)
    shifted = {p - 1 for p in fan_poles(model)}
    assert newton_poles(CUSP) <= shifted
    assert newton_zeta(CUSP).candidate_poles() <= shifted


# ---------------------------------------------------------------------------
# Nondegeneracy probe.


def test_probe_cusp_passes():
    inp = NewtonInput(2, ((2, 0), (0, 3)), {(2, 0): Fraction(1), (0, 3): Fraction(1)})
    assert nondegeneracy_probe(inp, 7) == ("pass", None, None)


def test_probe_square_fails():
    # x^2 + 2xy + y^2 = (x+y)^2: singular along x = -y on the compact facet
    inp = NewtonInput(
        2,
        ((2, 0), (1, 1), (0, 2)),
        {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)},
    )
    status, face, witness = nondegeneracy_probe(inp, 7)
    assert status == "fail"
    x, y = witness
    assert (x + y) % 7 == 0
    records = newton_polyhedron(inp)
    rec = next(r for r in records if r.face_id == face)
    assert len(rec.argmin_support) == 3  # the compact facet carries all three points


def test_probe_small_prime_inconclusive():
    inp = NewtonInput(2, ((2, 0), (0, 3)), {(2, 0): Fraction(1), (0, 3): Fraction(1)})
    assert nondegeneracy_probe(inp, 2)[0] == "inconclusive"


def test_probe_coefficient_degenerates():
    inp = NewtonInput(2, ((2, 0), (0, 3)), {(2, 0): Fraction(7), (0, 3): Fraction(1)})
    assert nondegeneracy_probe(inp, 7)[0] == "inconclusive"


def test_probe_bad_prime_and_denominator():
    inp = NewtonInput(2, ((2, 0), (0, 3)), {(2, 0): Fraction(1), (0, 3): Fraction(1, 7)})
    with pytest.raises(ValueError):
        nondegeneracy_probe(inp, 7)
    with pytest.raises(ValueError):
        nondegeneracy_probe(inp, 9)
