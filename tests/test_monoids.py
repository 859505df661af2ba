import random

import pytest

from logzeta.cones import LinealityError, cone_from_rays, faces
from logzeta.intlin import det, dot, identity, mat_vec, solve_integer, span_lattice
from logzeta.monoids import (
    MarkedMonoid,
    SharpFsMonoid,
    base_change,
    divisor_add,
    divisor_from_element,
    face_lattice,
    height1_primes,
    monoid_from_generators,
    root_index,
    sharpify,
    valuation,
)

from genutil import local_dual_points, max_ideal_generated_by_base, random_marked_monoid
from genutil import oracle_base_change, oracle_monoid_from_generators, oracle_sharpify
from genutil import root_index_via_torsion

N2 = SharpFsMonoid(2, cone_from_rays(2, [(1, 0), (0, 1)]))
N1 = SharpFsMonoid(1, cone_from_rays(1, [(1,)]))
WEDGE_M = SharpFsMonoid(2, cone_from_rays(2, [(1, 0), (1, 2)]))


def test_monoid_from_generators_orthant():
    m = monoid_from_generators(2, [(1, 0), (0, 1)])
    assert m.rank == 2
    assert m.cone == cone_from_rays(2, [(1, 0), (0, 1)])
    assert m.lattice == identity(2)


def test_monoid_from_generators_sublattice():
    # generators (2,0),(1,1),(0,2): lattice is the even-sum sublattice
    m = monoid_from_generators(2, [(2, 0), (1, 1), (0, 2)])
    assert m.rank == 2
    for v in [(2, 0), (1, 1), (0, 2), (3, 1)]:
        assert solve_integer(m.lattice, v) is not None
    for v in [(1, 0), (0, 1), (2, 1)]:
        assert solve_integer(m.lattice, v) is None
    # membership of small vectors in the monoid: cone test in new coordinates
    import itertools

    for v in itertools.product(range(4), repeat=2):
        expected = (v[0] + v[1]) % 2 == 0  # saturation of the generated monoid
        x = solve_integer(m.lattice, v)
        got = x is not None and m.contains(x)
        assert got == expected, v


def test_monoid_from_generators_rejects_units():
    with pytest.raises(LinealityError):
        monoid_from_generators(2, [(1, 0), (-1, 0)])


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


LATTICE_CASES = [
    (2, [(0, 0)]),  # no nonzero generator
    (2, [(0, 0), (0, 3)]),  # a zero generator beside a nonzero one
    (2, [(1, 2), (2, 4), (3, 6)]),  # dependent: rank 1 in rank 2
    (2, [(2, 0), (1, 1), (0, 2)]),  # the even-sum sublattice
    (3, [(2, 0, 0), (0, 4, 0), (2, 2, 6)]),  # a sublattice of index 48
    (2, [(1, 0), (-1, 0)]),  # spans a unit
    (3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)]),  # spans a plane of units
    (3, [(1, 2)]),  # wrong length
]


def _random_generators(rng):
    n = rng.randint(1, 4)
    return n, [tuple(rng.randint(-3, 5) for _ in range(n)) for _ in range(rng.randint(1, 6))]


def test_lattice_step_matches_the_solve_route():
    # one Hermite form gives the basis and every coordinate; the oracle
    # solves each generator and marking against the basis on its own
    rng = random.Random(44)
    cases = LATTICE_CASES + [_random_generators(rng) for _ in range(300)]
    changed = 0
    for n, gens in cases:
        m = _outcome(monoid_from_generators, n, gens)
        assert m == _outcome(oracle_monoid_from_generators, n, gens), (n, gens)
        if not isinstance(m, SharpFsMonoid):
            continue
        ks = [rng.randint(0, 3) for _ in m.cone.rays]
        e = tuple(sum(k * ray[i] for k, ray in zip(ks, m.cone.rays)) for i in range(m.rank))
        a = tuple(rng.randint(-3, 3) or 1 for _ in range(m.rank))
        mm = MarkedMonoid(m, e, a)
        for d in range(1, 7):
            got = base_change(mm, d)
            assert got == oracle_base_change(mm, d), (n, gens, e, a, d)
            changed += got.base.lattice != m.lattice
    assert changed > 100


def test_sharpify_matches_the_saturation_route():
    # the quotient map is the Smith form of the saturated line basis; line
    # sets that are no basis of their saturation must be among the inputs
    rng = random.Random(45)
    unsaturated = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        rays = [r for r in rays if any(r)]
        rays += [tuple(-x for x in r) for r in rays[: rng.randint(0, len(rays))]]
        if not rays:
            continue
        cone = cone_from_rays(n, rays)
        lattice = identity(n)
        if rng.random() < 0.5:
            while not det(lattice):
                lattice = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
        got = sharpify(lattice, cone)
        assert got == oracle_sharpify(lattice, cone), (lattice, rays)
        lines = cone.lineality()
        if lines:
            coords = [mat_vec(span_lattice(lines, n)[1], v) for v in lines]
            unsaturated += abs(det(coords)) != 1
    assert unsaturated > 20
    wrong = cone_from_rays(3, [(1, 0, 0)])
    assert _outcome(sharpify, identity(2), wrong) == _outcome(oracle_sharpify, identity(2), wrong)


def test_sharpify_trivial():
    m, units, proj = sharpify(identity(2), cone_from_rays(2, [(1, 0), (0, 1)]))
    assert units == 0 and m.rank == 2 and proj == identity(2)


def test_sharpify_halfplane():
    half = cone_from_rays(2, [(1, 0), (0, 1), (0, -1)])
    m, units, proj = sharpify(identity(2), half)
    assert units == 1
    assert m.rank == 1
    assert m.cone == cone_from_rays(1, [(1,)])
    # projection kills exactly the lineality lattice
    assert mat_vec(proj, (0, 1)) == (0,)
    assert mat_vec(proj, (0, -1)) == (0,)
    assert mat_vec(proj, (1, 0)) != (0,)


def test_sharpify_3d_lineality():
    rays = [(1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 1)]
    c = cone_from_rays(3, rays)
    m, units, proj = sharpify(identity(3), c)
    assert units == 1
    assert m.rank == 2
    for l in ((0, 1, 0), (0, -1, 0)):
        assert mat_vec(proj, l) == (0, 0)


def test_sharpify_nonspanning_cone():
    # half-plane inside the xy-plane of Z^3: one unit direction, quotient N
    rays = [(1, 0, 0), (0, 1, 0), (0, -1, 0)]
    c = cone_from_rays(3, rays)
    m, units, proj = sharpify(identity(3), c)
    assert units == 1
    assert m.rank == 1
    assert m.cone == cone_from_rays(1, [(1,)])
    assert mat_vec(proj, (0, 1, 0)) == (0,)
    assert mat_vec(proj, (1, 0, 0)) != (0,)


def test_sharpify_pointed_nonspanning():
    # a ray in Z^2 has no units but spans only a line: quotient is N
    ray = cone_from_rays(2, [(1, 2)])
    m, units, proj = sharpify(identity(2), ray)
    assert units == 0
    assert m.rank == 1
    assert m.cone == cone_from_rays(1, [(1,)])
    assert mat_vec(proj, (1, 2)) == (1,)


def test_sharpify_random_stress():
    from logzeta.intlin import is_zero_vec

    rng = random.Random(77)
    done = 0
    while done < 60:
        r = rng.randint(2, 4)
        rays = []
        for _ in range(rng.randint(2, r + 2)):
            v = tuple(rng.randint(-3, 3) for _ in range(r))
            if not is_zero_vec(v):
                rays.append(v)
                if rng.random() < 0.4:
                    rays.append(tuple(-x for x in v))
        if not rays:
            continue
        c = cone_from_rays(r, rays)
        m, units, proj = sharpify(identity(r), c)
        for l in c.lineality():
            assert mat_vec(proj, l) == (0,) * m.rank
        assert m.cone.is_strictly_convex() and m.cone.dim == m.rank
        projected = [mat_vec(proj, ray) for ray in c.rays]
        projected = [v for v in projected if not is_zero_vec(v)]
        if projected:
            assert cone_from_rays(m.rank, projected) == m.cone
        done += 1


def test_valuations():
    assert set(height1_primes(N2)) == {(1, 0), (0, 1)}
    assert valuation(N2, (1, 0)) == (1, 0)
    assert set(height1_primes(WEDGE_M)) == {(0, 1), (2, -1)}
    assert set(height1_primes(N1)) == {(1,)}
    with pytest.raises(KeyError):
        valuation(N2, (1, 1))


def test_valuation_kernel_is_face():
    for m in (N2, WEDGE_M):
        for f in height1_primes(m):
            v = valuation(m, f)
            tight = [r for r in m.cone.rays if dot(v, r) == 0]
            face = cone_from_rays(m.rank, tight)
            assert face.dim == m.rank - 1


def test_face_lattice_counts():
    assert len(face_lattice(N2)) == 4
    n3 = SharpFsMonoid(3, cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert len(face_lattice(n3)) == 8
    sq = SharpFsMonoid(
        3, cone_from_rays(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    )
    assert len(face_lattice(sq)) == 10
    # heights match codimension
    for face, h in face_lattice(sq):
        assert h == 3 - face.dim


def test_face_lattice_matches_cone_faces():
    entries = face_lattice(WEDGE_M)
    assert {f for f, _ in entries} == set(faces(WEDGE_M.cone))


def test_root_index():
    assert root_index(MarkedMonoid(N1, (3,), (0,))) == 3
    assert root_index(MarkedMonoid(N2, (2, 4), (0, 0))) == 2
    assert root_index(MarkedMonoid(N2, (2, 3), (0, 0))) == 1
    with pytest.raises(ValueError):
        root_index(MarkedMonoid(N2, (0, 0), (0, 0)))


def test_root_index_torsion_agreement():
    rng = random.Random(5)
    for _ in range(40):
        mm = random_marked_monoid(rng, rng.randint(1, 3), interior_e=False)
        if not mm.is_local():
            continue
        assert root_index(mm) == root_index_via_torsion(mm)


def test_base_change_examples():
    # (N, e=1, d=3): still N with the marking a generator
    mm = base_change(MarkedMonoid(N1, (1,), (0,)), 3)
    assert mm.base.rank == 1 and mm.e_pi == (1,)
    # (N^2, e=(2,2), d=2) -> e' = (1,1), root index 1
    mm = base_change(MarkedMonoid(N2, (2, 2), (0, 0)), 2)
    assert mm.e_pi == (1, 1)
    assert root_index(mm) == 1
    assert mm.base.cone == N2.cone
    # (N^2, e=(2,4), d=2) -> e' = (1,2), root index 1 = m/d
    mm = base_change(MarkedMonoid(N2, (2, 4), (0, 0)), 2)
    assert mm.e_pi == (1, 2)
    assert root_index(mm) == 1


def test_base_change_root_index_law():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        mm = random_marked_monoid(rng, rng.randint(1, 3), interior_e=False)
        m = root_index(mm)
        for d in range(1, m + 1):
            if m % d == 0:
                assert root_index(base_change(mm, d)) == m // d
        checked += 1


def test_base_change_coprime_preserves_structure():
    rng = random.Random(23)
    for _ in range(15):
        mm = random_marked_monoid(rng, rng.randint(1, 3), interior_e=False)
        m = root_index(mm)
        for d in (2, 3, 5):
            if m % d == 0:
                continue
            from math import gcd

            if gcd(d, m) != 1:
                continue
            changed = base_change(mm, d)
            assert root_index(changed) == m
            assert changed.base.cone.dim == mm.base.cone.dim
            assert len(changed.base.cone.rays) == len(mm.base.cone.rays)


def test_max_ideal_generated_by_base():
    mm = MarkedMonoid(N2, (2, 4), (0, 0))
    assert max_ideal_generated_by_base(mm, 2, height=5)
    # divisor law: holds for every divisor of the root index
    mm6 = MarkedMonoid(N1, (6,), (0,))
    for d in (1, 2, 3, 6):
        assert max_ideal_generated_by_base(mm6, d, height=5)
    # negative case: adjoining a root of a generator creates a new atom
    assert not max_ideal_generated_by_base(MarkedMonoid(N1, (1,), (0,)), 2, height=5)


def test_divisors():
    d = divisor_from_element(N2, (1, 1))
    assert d.as_dict() == {(1, 0): 1, (0, 1): 1}
    z = divisor_from_element(N2, (0, 0))
    assert all(v == 0 for v in z.as_dict().values())
    dm = divisor_from_element(N2, (-1, -1))
    assert divisor_add(d, dm).as_dict() == {(1, 0): 0, (0, 1): 0}


def test_divisor_is_homomorphism():
    rng = random.Random(3)
    for _ in range(20):
        a = tuple(rng.randint(-4, 4) for _ in range(2))
        b = tuple(rng.randint(-4, 4) for _ in range(2))
        ab = tuple(x + y for x, y in zip(a, b))
        lhs = divisor_add(divisor_from_element(WEDGE_M, a), divisor_from_element(WEDGE_M, b))
        assert lhs == divisor_from_element(WEDGE_M, ab)


def test_local_dual_points_examples():
    mm = MarkedMonoid(N1, (1,), (0,))
    assert local_dual_points(mm, 3) == [(1,), (2,), (3,)]
    mm2 = MarkedMonoid(N2, (1, 1), (0, 0))
    assert local_dual_points(mm2, 2) == [(1, 1)]
    wedge_mm = MarkedMonoid(WEDGE_M, (1, 1), (0, 0))
    pts = local_dual_points(wedge_mm, 4)
    dual = WEDGE_M.dual()
    for u in pts:
        assert dual.relint_contains(u) and dot(u, (1, 1)) <= 4
    assert len(pts) == len(set(pts)) > 0


def test_local_dual_points_errors():
    with pytest.raises(ValueError):
        local_dual_points(MarkedMonoid(N2, (0, 0), (0, 0)), 3)
    with pytest.raises(ValueError):
        local_dual_points(MarkedMonoid(N2, (1, 0), (0, 1)), 3)  # horizontal dual ray


def test_local_dual_points_against_box_scan():
    rng = random.Random(9)
    for _ in range(10):
        mm = random_marked_monoid(rng, 2, max_entry=4)
        pts = set(local_dual_points(mm, 6))
        dual = mm.base.dual()
        import itertools

        box = 6 * max(max(abs(x) for x in v) for v in dual.rays)
        brute = set()
        for u in itertools.product(range(-box, box + 1), repeat=2):
            if dual.relint_contains(u) and dot(u, mm.e_pi) <= 6:
                brute.add(u)
        assert pts == brute
