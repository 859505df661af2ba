import collections
import dataclasses
import functools
import gc
import itertools
import json
import math
import pathlib
import random
import unittest.mock
import weakref

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import logzeta.cones
import logzeta.intlin
import logzeta.series
from logzeta.cli import parse_fan, parse_newton
from logzeta.cones import (
    _carriers,
    _dd_generators,
    _is_pyramid_apex,
    _meet_in_common_face,
    _relint_pieces,
    _triangulate,
    Cone,
    ConeComplex,
    HalfOpenCone,
    LinealityError,
    RESOLVE_MAX_BOX_POINTS,
    box_points,
    check_subdivision,
    complex_from_cones,
    cone_from_facets,
    cone_from_rays,
    cone_intersection,
    dual_cone,
    faces,
    resolve_complex,
    star_subdivision,
    triangulate_half_open,
)
from logzeta.intlin import (
    content_primitive,
    det,
    dot,
    from_columns,
    identity,
    is_zero_vec,
    mat_vec,
    rank as mat_rank,
    smith_normal_form,
    solve_integer,
    solve_rational,
    span_lattice,
    vec_add,
    vec_scale,
)

from genutil import (
    affine_lattice_points,
    brute_complex_problems,
    brute_faces,
    brute_incidence,
    brute_intersection,
    brute_is_face,
    count_calls,
    count_dd_runs,
    fresh_box_points,
    half_open_contains,
    oracle_dd_generators,
    oracle_face_incidence,
    oracle_incidence,
    oracle_resolve_complex,
    random_cone,
    random_subdivided_cone,
    relint_pieces,
    two_dd_cone,
    two_dd_facets_cone,
    uncertified,
    witness_flags,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "data"

ORTHANT2 = cone_from_rays(2, [(1, 0), (0, 1)])
ORTHANT3 = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
WEDGE = cone_from_rays(2, [(1, 0), (1, 2)])
SQUARE = cone_from_rays(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
# SQUARE in the hyperplane 2*x4 = x1 + 3*x2 + x3: non-simplicial, not full dimensional
SQUARE_IN_4 = cone_from_rays(4, [(1, 0, 1, 1), (0, 1, 1, 2), (-1, 0, 1, 0), (0, -1, 1, -1)])


def small_cones(seed):
    rng = random.Random(seed)
    out = []
    for _ in range(12):
        rank = rng.randint(2, 3)
        out.append(random_cone(rng, rank, max_entry=4))
    return out


# ---------------------------------------------------------------------------
# Construction and duality.


def test_orthant_self_describing():
    assert ORTHANT2.rays == ((0, 1), (1, 0))
    assert ORTHANT2.facets == ((0, 1), (1, 0))


def test_wedge_facets():
    assert set(WEDGE.facets) == {(0, 1), (2, -1)}
    for u in WEDGE.facets:
        for r in WEDGE.rays:
            assert dot(u, r) >= 0


def test_zero_cone_representation():
    z = cone_from_rays(2, [])
    assert z.rays == ()
    assert set(z.facets) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert dual_cone(z).dim == 2  # whole plane


def test_redundant_and_nonprimitive_rays_are_reduced():
    c = cone_from_rays(2, [(2, 0), (1, 1), (0, 3)])
    assert c == ORTHANT2


def test_dual_dual_identity():
    for c in [ORTHANT2, ORTHANT3, WEDGE, SQUARE] + small_cones(3):
        assert dual_cone(dual_cone(c)) == c


def test_dual_of_wedge():
    assert set(dual_cone(WEDGE).rays) == {(0, 1), (2, -1)}


def test_facet_minimality():
    # removing any unpaired facet strictly enlarges the cone; a violating
    # integer point exists by homogeneity, search growing boxes for it
    for c in [ORTHANT2, WEDGE, SQUARE] + small_cones(5):
        paired = {u for u in c.facets if tuple(-x for x in u) in set(c.facets)}
        for u in c.facets:
            if u in paired:
                continue
            others = [f for f in c.facets if f != u]
            found = False
            for bound in (4, 16, 64):
                ineqs = [(-1, tuple(-x for x in u))] + [(0, f) for f in others]
                basis = [tuple(1 if j == i else 0 for j in range(c.ambient_rank)) for i in range(c.ambient_rank)]
                for e in basis:
                    ineqs.append((bound, e))
                    ineqs.append((bound, tuple(-x for x in e)))
                if affine_lattice_points(c.ambient_rank, ineqs):
                    found = True
                    break
            assert found, f"facet {u} of {c} is redundant"


# ---------------------------------------------------------------------------
# Predicates.


def test_dim_and_convexity():
    assert ORTHANT3.dim == 3
    assert cone_from_rays(3, [(1, 0, 0)]).dim == 1
    line = cone_from_rays(2, [(1, 0), (-1, 0)])
    assert not line.is_strictly_convex()
    assert line.dim == 1
    assert ORTHANT2.is_strictly_convex()


@st.composite
def ray_sets(draw, ranks=st.integers(1, 5)):
    """A rank drawn from ``ranks`` and rays inside a random subspace, some
    through a line, with duplicate, non-primitive and zero rays mixed in."""
    rank = draw(ranks)
    vector = st.tuples(*[st.integers(-3, 3)] * rank)
    span = draw(st.lists(vector, min_size=1, max_size=rank))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(span), max_size=len(span))
    rays = [
        tuple(sum(k * v[i] for k, v in zip(ks, span)) for i in range(rank))
        for ks in draw(st.lists(coeffs, max_size=5))
    ]
    if rays and draw(st.booleans()):
        rays.append(tuple(-x for x in rays[0]))  # a line through the first ray
    if rays:
        multiples = st.tuples(st.integers(0, len(rays) - 1), st.integers(0, 3))
        rays += [tuple(k * x for x in rays[i]) for i, k in draw(st.lists(multiples, max_size=3))]
    return rank, rays


def cones_any_shape(ranks=st.integers(1, 5)):
    """Cones of a rank drawn from ``ranks`` generated inside a random
    subspace, some with lines."""
    return ray_sets(ranks).map(lambda rank_rays: cone_from_rays(*rank_rays))


@settings(max_examples=80, deadline=None)
@given(cones_any_shape())
@example(cone_from_rays(2, [(1, 0), (-1, 0)]))
@example(cone_from_rays(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1)]))
@example(cone_from_rays(3, [(1, 2, 0), (2, 1, 0)]))
@example(cone_from_rays(4, []))
def test_dim_is_rank_of_rays(c):
    for d in (c, dual_cone(c), *faces(c)):
        assert d.dim == (mat_rank(d.rays) if d.rays else 0), d


@settings(max_examples=300, deadline=None)
@given(ray_sets())
@example((2, [(1, 0), (-1, 0), (0, 1)]))  # a half-plane: a line and a ray
@example((3, [(1, 2, 0), (2, 4, 0), (2, 1, 0), (1, 1, 0), (0, 0, 0)]))  # flat, redundant
@example((3, [(0, 0, 0)]))
@example((4, []))
def test_cone_from_rays_matches_two_dd(rank_rays):
    rank, rays = rank_rays
    c, old = cone_from_rays(rank, rays), two_dd_cone(rank, rays)
    assert (c.ambient_rank, c.rays, c.facets) == (old.ambient_rank, old.rays, old.facets)


@settings(max_examples=300, deadline=None)
@given(ray_sets())
@example((2, [(1, 0), (-1, 0), (0, 1)]))  # a u, -u pair cuts out a ray
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (1, 1, 1)]))  # full, zero, redundant
@example((3, [(0, 0, 0)]))
@example((4, []))
def test_cone_from_facets_matches_two_dd(rank_normals):
    rank, normals = rank_normals
    c, old = cone_from_facets(rank, normals), two_dd_facets_cone(rank, normals)
    assert (c.ambient_rank, c.rays, c.facets) == (old.ambient_rank, old.rays, old.facets)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.lists(st.just(()), max_size=2).map(lambda rays: (0, rays)), ray_sets(st.integers(1, 6))),
    st.randoms(use_true_random=False),
)
@example((0, []), random.Random(0))
@example((2, [(1, 0), (-1, 0), (2, 0), (0, 0)]), random.Random(1))  # a line, scaled and zero rays
@example((3, [(1, 2, 0), (2, 4, 0), (2, 1, 0), (1, 2, 0)]), random.Random(2))  # flat, repeated
@example((3, list(SQUARE.rays) + [(0, 0, 1)]), random.Random(3))  # not simplicial, redundant
def test_cone_table_returns_one_cone_per_ray_list(rank_rays, rng):
    # equal input, as tuples or as lists, returns the very cone the table
    # keeps, equal field by field to a fresh build, with the same dimension
    # and smoothness; a reordered list is a key of its own, for an equal cone
    rank, rays = rank_rays
    c = cone_from_rays(rank, rays)
    assert cone_from_rays(rank, [list(r) for r in rays]) is c
    fresh = logzeta.cones._build_cone(rank, rays)
    assert fresh is not c
    for f in dataclasses.fields(Cone):
        assert getattr(c, f.name) == getattr(fresh, f.name)
    assert (c.dim, c.is_smooth) == (fresh.dim, fresh.is_smooth)
    shuffled = rng.sample(rays, len(rays))
    other = cone_from_rays(rank, shuffled)
    assert other == c and (other is c) == (shuffled == list(rays))


def test_cone_table_keeps_no_refused_input(monkeypatch):
    for _ in range(2):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cone_from_rays(3, [(1, 0, 0), (0, 1)])
    monkeypatch.setattr(logzeta.cones, "DD_MAX_PAIR_TESTS", 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="double description weighs more than 1 ray pairs"):
            cone_from_rays(3, SQUARE.rays)
    assert logzeta.cones._cone_table.cache_info().currsize == 0


def test_newton_ops_leave_the_cone_table_empty(bench, monkeypatch):
    # the Newton pipeline sums over normal cones by their rays, with the
    # incidence and dimension its face lattice gives: the piece table
    # triangulates the non-simplicial ones from those, with no double
    # description, and builds no cone
    run, worker, workloads, _ = bench
    _relint_pieces.cache_clear()
    runs = count_dd_runs(monkeypatch)
    builds = count_calls(monkeypatch, "_build_cone")
    frames = count_calls(monkeypatch, "_smith_frame")
    items = workloads.generate("newton-small", run.DEFAULT_SEED)[: workloads.TRACE_OPS["newton-small"]]
    for item in items:
        worker.OPS["newton-small"](logzeta, item, parse_newton(item["input"]))
    # one double description per support, and none for the pieces' misses
    assert len(runs) == len(items) and frames and builds == []
    info = logzeta.cones._cone_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


# a fan model of two cells: the cone over a square, and a cell of index 3
# across its facet x + y = z
TWO_CELL_MODEL = {
    "rank": 3,
    "cells": [{"rays": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}, {"rays": [[1, 0, 1], [0, 1, 1], [2, 2, 1]]}],
    "e": [[0, 0, 1], [0, 0, 1]],
    "a": [[0, 0, 0], [0, 0, 0]],
}


def test_subdivision_and_resolution_share_the_models_cones():
    # every cell of the star subdivision or the resolution, and every face
    # of one, that equals a cell of the parsed model is that very object
    model = parse_fan(TWO_CELL_MODEL)
    cells = {c: c for c in model.complex.cells}
    for k in (star_subdivision(model.complex, (1, 1, 2)), resolve_complex(model.complex)):
        shared = [(f, cells[f]) for c in k.cells for f in (c, *faces(c)) if f in cells]
        assert shared and all(f is old for f, old in shared)


@settings(max_examples=300, deadline=None)
@given(ray_sets(st.integers(1, 6)), st.randoms(use_true_random=False))
@example((3, [(1, 0, 0), (-1, 0, 0), (2, 0, 0), (0, 1, 1), (0, 0, 0)]), random.Random(0))  # a half plane
@example((4, [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)]), random.Random(1))  # flat square
def test_dd_is_the_oracles_in_any_order(rank_gens, rng):
    # the double description on ray bitmasks, with its rank filter, gives the
    # frozenset oracle's canonical generators, in the given order and in a
    # shuffled one; each ray's mask is its tight set over the sorted distinct
    # inequalities, and the lines lie on all of them
    rank, gens = rank_gens
    shuffled = rng.sample(gens, len(gens))
    want = oracle_dd_generators(rank, gens)
    assert oracle_dd_generators(rank, shuffled) == want
    assert _dd_generators(rank, gens) == _dd_generators(rank, shuffled) == want
    ineqs = sorted({u for u in gens if not is_zero_vec(u)})
    lines, rays = logzeta.cones._dd(rank, shuffled)
    assert all(dot(u, l) == 0 for u in ineqs for l in lines)
    for r, mask in rays:
        assert mask == sum(1 << i for i, u in enumerate(ineqs) if dot(u, r) == 0)


def test_dd_and_face_lattice_refuse_past_their_bounds(monkeypatch):
    # the square's cone weighs two ray pairs in its double description and
    # has ten faces, its apex and itself among them
    monkeypatch.setattr(logzeta.cones, "DD_MAX_PAIR_TESTS", 2)
    assert cone_from_rays(3, SQUARE.rays) == SQUARE
    monkeypatch.setattr(logzeta.cones, "DD_MAX_PAIR_TESTS", 1)
    with pytest.raises(ValueError, match="double description weighs more than 1 ray pairs"):
        cone_from_rays(3, SQUARE.rays)
    on_facet = SQUARE.incidence
    monkeypatch.setattr(logzeta.cones, "FACE_LATTICE_MAX_FACES", 10)
    assert len(logzeta.cones._face_lattice(on_facet, 0b1111)) == 10
    monkeypatch.setattr(logzeta.cones, "FACE_LATTICE_MAX_FACES", 9)
    with pytest.raises(ValueError, match="cone has more than 9 faces"):
        logzeta.cones._face_lattice(on_facet, 0b1111)


@settings(max_examples=200, deadline=None)
@given(ray_sets(st.integers(1, 5)), st.randoms(use_true_random=False))
@example((3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1), (2, 0, 2)]), random.Random(0))  # non-extreme
@example((4, list(SQUARE_IN_4.rays) + [(0, 0, 2, 2)]), random.Random(1))  # flat, non-extreme
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]), random.Random(2))  # a line
def test_face_lattice_tight_masks_are_the_facets_holding_each_face(rank_gens, rng):
    # the closure of the facet masks lists every face once, with exactly the
    # facets holding it, whether the masks are the double description's own
    # over the sorted distinct inputs, extreme or not (the Newton face
    # table's route), or a cone's incidence over its rays (that of faces)
    rank, gens = rank_gens
    shuffled = rng.sample(gens, len(gens))
    inputs = sorted({u for u in gens if not is_zero_vec(u)})
    _, rays = logzeta.cones._dd(rank, shuffled)
    lattice = logzeta.cones._face_lattice([m for _, m in rays], (1 << len(inputs)) - 1)
    assert lattice == oracle_face_incidence(inputs, [r for r, _ in rays])
    c = cone_from_rays(rank, shuffled)
    lattice = logzeta.cones._face_lattice(c.incidence, (1 << len(c.rays)) - 1)
    assert lattice == oracle_face_incidence(c.rays, c.facets)
    assert len(lattice) == len(faces(c))


@settings(max_examples=200, deadline=None)
@given(ray_sets(st.integers(1, 5)), st.randoms(use_true_random=False))
@example((3, list(SQUARE.rays)), random.Random(0))  # projected rays out of order
@example((4, list(SQUARE_IN_4.rays)), random.Random(1))  # flat, non-simplicial
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]), random.Random(2))  # a line
@example((2, []), random.Random(3))  # the zero cone
def test_cone_values_match_their_oracles(rank_gens, rng):
    # a cone's incidence and span coordinates, however the cone was built:
    # from its rays in any order, as a dual, or directly from both lists
    rank, gens = rank_gens
    built = cone_from_rays(rank, gens)
    shuffled = cone_from_rays(rank, rng.sample(gens, len(gens)))
    for c in (built, shuffled, dual_cone(built), Cone(rank, built.rays, built.facets)):
        assert c.incidence == oracle_incidence(c)
        assert c.incidence is c.incidence  # worked out once per cone
        span, proj, _ = span_lattice(c.rays, rank)
        rays, on_facet, basis, projection = c.span_coordinates
        assert (basis, projection) == (tuple(span), proj)
        assert rays == tuple(sorted(mat_vec(proj, r) for r in c.rays))
        if c.is_strictly_convex():  # the extreme rays of the reduced cone, and its incidence
            reduced = cone_from_rays(len(span), [mat_vec(proj, r) for r in c.rays])
            assert (rays, on_facet) == (reduced.rays, tuple(sorted(oracle_incidence(reduced))))


def test_cone_from_rays_runs_one_dd_when_pointed(monkeypatch):
    runs = count_dd_runs(monkeypatch)
    # redundant (1, 1, 1), duplicate (1, 0, 0), non-primitive (0, 2, 0)
    c = cone_from_rays(3, [(1, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 1), (1, 0, 0)])
    assert c == ORTHANT3
    assert len(runs) == 1
    # lower dimensional: three rays of rank 3 in a plane, fewer pivots than rays
    flat = cone_from_rays(3, [(1, 0, 0), (1, 1, 0), (2, 1, 0)])
    assert flat.rays == ((1, 0, 0), (1, 1, 0)) and flat.dim == 2
    assert len(runs) == 2
    # its extreme rays alone are independent: one elimination, no run
    assert cone_from_rays(3, [(1, 1, 0), (1, 0, 0)]) == flat
    assert len(runs) == 2


def test_cone_from_rays_runs_two_dds_with_a_line(monkeypatch):
    runs = count_dd_runs(monkeypatch)
    half_plane = cone_from_rays(2, [(1, 0), (-1, 0), (1, 1)])
    assert half_plane.lineality() == [(1, 0)]
    assert len(runs) == 2


@st.composite
def independent_ray_sets(draw, ranks=st.integers(0, 6)):
    """A rank drawn from ``ranks`` and independent rays, as many as the rank
    or fewer, with coordinates up to 40 in absolute value; repeated,
    scaled and zero rays are mixed in, and the whole list is shuffled."""
    rank = draw(ranks)
    k = draw(st.integers(0, rank))
    bound = draw(st.sampled_from([1, 3, 40]))
    rays = draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * rank), min_size=k, max_size=k))
    assume(not rays or mat_rank(tuple(rays)) == k)
    if rays:
        extra = st.tuples(st.integers(0, k - 1), st.integers(1, 3))
        rays += [tuple(m * x for x in rays[i]) for i, m in draw(st.lists(extra, max_size=2))]
    if draw(st.booleans()):
        rays.append((0,) * rank)
    return rank, draw(st.permutations(rays))


@settings(max_examples=300, deadline=None)
@given(independent_ray_sets())
@example((0, []))
@example((4, []))  # the zero cone: the facets are the four coordinate lines
@example((3, [(1, 2, 0), (2, 1, 0)]))  # flat: one line among the facets
@example((3, [(0, 0, 2), (1, 0, 0), (0, 0, 1), (0, 0, 0)]))  # repeated, scaled and zero rays
@example((4, [(3, -1, 4, 1), (-5, 9, 2, -6), (5, 3, -5, 8), (9, -7, 9, 3)]))  # full, |det| > 1
@example((6, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (1, 1, 1, 1, 1, 1)]))
def test_simplicial_cone_is_the_double_descriptions_in_every_order(rank_rays):
    # the elimination route gives the double description's facets, with its
    # line basis and its pointed representatives, whatever the input order
    rank, rays = rank_rays
    prims = [content_primitive(r)[1] for r in rays if not is_zero_vec(r)]
    orders = itertools.permutations(rays) if len(rays) <= 4 else (rays, rays[::-1])
    for order in orders:
        got = cone_from_rays(rank, list(order))
        want = _dd_generators(rank, [content_primitive(r)[1] for r in order if not is_zero_vec(r)])
        assert (got.rays, got.facets) == (tuple(sorted(set(prims))), want)
        assert got.dim == len(got.rays)


def test_smoothness():
    assert ORTHANT3.is_smooth
    assert not WEDGE.is_smooth
    assert cone_from_rays(3, [(1, 0, 0), (1, 2, 0)]).is_smooth is False
    assert cone_from_rays(3, [(1, 0, 0), (0, 1, 0)]).is_smooth
    assert cone_from_rays(2, []).is_smooth
    assert not SQUARE.is_smooth
    # a last pivot of 2 on the first columns, yet the minors have gcd 1
    assert cone_from_rays(3, [(1, 0, 0), (0, 2, 3)]).is_smooth


def unimodularity_by_snf(gens):
    """Whether independent ``gens`` span a saturated lattice, read off a
    Smith normal form taken on this call."""
    s, _, _ = smith_normal_form(from_columns(gens))
    return all(s[i][i] == 1 for i in range(len(gens)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
@example(0)
def test_smoothness_and_frame_agree_with_the_smith_form(seed):
    # random simplices, many unimodular: is_smooth and the piece's frame
    # read the elimination's last pivot, and must say what the Smith form says
    rng = random.Random(seed)
    rank = rng.randint(1, 5)
    k = rng.randint(1, rank)
    while True:
        gens = [tuple(rng.choice((-1, 0, 0, 1, 1, 2, 3)) for _ in range(rank)) for _ in range(k)]
        if mat_rank(tuple(gens)) == k and len(set(map(lambda g: content_primitive(g)[1], gens))) == k:
            break
    c = cone_from_rays(rank, gens)
    smooth = unimodularity_by_snf(c.rays)
    assert c.is_smooth is smooth
    flags = tuple(rng.random() < 0.5 for _ in range(k))
    h = HalfOpenCone(rank, tuple(gens), flags)
    s, _, _ = smith_normal_form(from_columns(gens))
    assert h._frame[0] == tuple(s[i][i] for i in range(k))
    assert box_points(h) == fresh_box_points(h)
    if unimodularity_by_snf(gens):
        assert h._frame == ((1,) * k, ())
        assert box_points(h) == [tuple(map(sum, zip((0,) * rank, *(g for g, f in zip(gens, flags) if f))))]


def test_unimodular_piece_takes_no_smith_form(monkeypatch):
    snf = count_calls(monkeypatch, "smith_normal_form")
    gens = ((1, 0, 0), (1, 1, 0), (2, 3, 1))
    pieces = [HalfOpenCone(3, gens, flags) for flags in itertools.product((False, True), repeat=3)]
    points = [box_points(h) for h in pieces]
    assert snf == []
    for h, pts in zip(pieces, points):
        strict_sum = tuple(map(sum, zip((0, 0, 0), *(g for g, f in zip(gens, h.strict) if f))))
        assert pts == [strict_sum] == fresh_box_points(h)
    del snf[:]
    assert cone_from_rays(3, gens).is_smooth and snf == []
    # index 2: the Smith form runs, once for the piece and once for the cone
    assert HalfOpenCone(2, ((1, 0), (1, 2)), (True, False)).box_count() == 2
    assert not cone_from_rays(2, [(1, 0), (1, 2)]).is_smooth and len(snf) == 2


def test_piece_frame_is_always_its_own(monkeypatch):
    # the constructor takes no frame, and a replaced piece works out its
    # own; every piece the module builds comes from the constructor, which
    # frames it once
    with pytest.raises(TypeError):
        HalfOpenCone(2, ((1, 0), (1, 2)), (True, False), _frame=((1, 1), identity(2)))
    unit = HalfOpenCone(2, ((1, 0), (0, 1)), (True, False))
    assert dataclasses.replace(unit, gens=((1, 0), (1, 2))).box_count() == 2
    c = cone_from_rays(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])  # pieces of index 2
    frames = count_calls(monkeypatch, "_smith_frame")
    square = triangulate_half_open(c, "closed") + list(relint_pieces(c))
    pieces = square + list(relint_pieces(cone_from_rays(3, [(1, 0, 0), (1, 2, 0)])))
    assert len(frames) == len(pieces) == 5
    assert {h.box_count() for h in square} == {2}
    for h in pieces:
        assert h._frame == HalfOpenCone(h.ambient_rank, h.gens, h.strict)._frame


def random_independent(rng, rank, k, entries):
    """``k`` linearly independent generators of rank ``rank`` with entries
    drawn from ``entries``."""
    while True:
        gens = tuple(tuple(rng.choice(entries) for _ in range(rank)) for _ in range(k))
        if mat_rank(gens) == k:
            return gens


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["strict", "closed", "mixed"]))
@example(0, "strict")
def test_minors_of_gcd_one_frame_a_piece_without_a_smith_form(seed, kind):
    # the entries of the constructor's elimination are k x k minors of the
    # generators: at gcd 1 the piece has one box point and takes no Smith
    # form, and the frame always counts what a fresh Smith form counts
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    k = rng.randint(0, rank)
    gens = random_independent(rng, rank, k, (-2, -1, 0, 0, 1, 1, 2, 3, 5))
    flags = tuple({"strict": True, "closed": False}.get(kind, rng.random() < 0.5) for _ in range(k))
    rows, _, _, _ = logzeta.intlin._gauss_jordan(gens, rank)
    minors = functools.reduce(math.gcd, (x for row in rows for x in row), 0)
    s, _, _ = smith_normal_form(from_columns(gens)) if k else ((), None, None)
    index = math.prod(s[i][i] for i in range(k))
    with unittest.mock.patch.object(logzeta.cones, "smith_normal_form", side_effect=smith_normal_form) as snf:
        h = HalfOpenCone(rank, gens, flags)
    assert h.box_count() == index == len(box_points(h))
    if minors == 1:
        assert index == 1 and h._frame == ((1,) * k, ()) and not snf.called


def test_saturated_rays_with_a_pivot_past_one_take_no_smith_form(monkeypatch):
    # (1, 0, 0), (0, 2, 3): the last pivot is 2, but the minors 2 and 3 have
    # gcd 1, so the piece is unimodular without a Smith form; (1, 0), (1, 2)
    # have entries of gcd 1 but the one minor 2, and take one
    snf = count_calls(monkeypatch, "smith_normal_form")
    h = HalfOpenCone(3, ((1, 0, 0), (0, 2, 3)), (True, False))
    assert (h.box_count(), box_points(h), snf) == (1, [(1, 0, 0)], [])
    assert HalfOpenCone(2, ((1, 0), (1, 2)), (False, False)).box_count() == 2 and len(snf) == 1


def kernel_oracle(pieces, e, a):
    """The buckets of ``series._relint_buckets`` over ``pieces``, from the
    box points as vectors, each paired with ``e`` and ``a`` by ``dot``; the
    ``L`` of each horizontal generator's ``L/(L-1)`` is in the exponent."""
    out = {}
    for h in pieces:
        horiz = sum(dot(g, e) == 0 for g in h.gens)
        denoms = tuple(sorted((-dot(g, a), dot(g, e)) for g in h.gens if dot(g, e)))
        for u in box_points(h):
            bucket = out.setdefault((dot(u, e), denoms, horiz), {})
            lexp = horiz - dot(u, a)
            bucket[lexp] = bucket.get(lexp, 0) + 1
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["strict", "closed", "mixed"]))
@example(0, "strict")
@example(1, "closed")
def test_kernel_pairs_on_the_frame_as_box_points_do(seed, kind):
    # the kernel pairs each piece's residues with <g, e> and <g, a>; the
    # buckets equal those of its box points paired as vectors, for strict,
    # closed and mixed pieces, lower dimensional (k < rank) and
    # generator-free (k = 0) ones included
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    pieces = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, rank)
        gens = random_independent(rng, rank, k, (0, 0, 1, 1, 2, 3))
        flags = tuple({"strict": True, "closed": False}.get(kind, rng.random() < 0.5) for _ in range(k))
        pieces.append(HalfOpenCone(rank, gens, flags))
    e = tuple(rng.randint(0, 3) for _ in range(rank))
    a = tuple(rng.randint(-3, 3) for _ in range(rank))
    with unittest.mock.patch.object(logzeta.series, "_relint_pieces", return_value=tuple(pieces)):
        (buckets,) = logzeta.series._relint_buckets([((), (), 0, e, a)])
    assert buckets == kernel_oracle(pieces, e, a)




def test_membership():
    assert ORTHANT2.relint_contains((1, 1))
    assert not ORTHANT2.relint_contains((1, 0))
    assert ORTHANT2.contains((1, 0))
    assert not ORTHANT2.contains((-1, 0))
    ray = cone_from_rays(2, [(1, 0)])
    assert ray.relint_contains((2, 0))
    assert not ray.relint_contains((0, 0))
    assert ray.contains((0, 0))


# ---------------------------------------------------------------------------
# Faces.


def test_face_counts():
    assert len(faces(WEDGE)) == 4
    assert len(faces(ORTHANT3)) == 8
    assert len(faces(SQUARE)) == 10


def test_faces_by_supporting_functional_enumeration():
    # every face arises as the tight set of a sum of facet normals
    for c in [ORTHANT2, ORTHANT3, WEDGE, SQUARE] + small_cones(9):
        normals = [u for u in c.facets if tuple(-x for x in u) not in set(c.facets)]
        tight_sets = set()
        for k in range(len(normals) + 1):
            for sub in itertools.combinations(normals, k):
                u = tuple(sum(col) for col in zip(*sub)) if sub else (0,) * c.ambient_rank
                tight_sets.add(frozenset(r for r in c.rays if dot(u, r) == 0))
        assert len(tight_sets) == len(faces(c))


@settings(max_examples=80, deadline=None)
@given(cones_any_shape(st.integers(1, 4)))
@example(cone_from_rays(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (1, 1, 0)]))
@example(SQUARE_IN_4)
@example(cone_from_rays(4, [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 1)]))
def test_faces_match_brute_force(c):
    assert faces(c) == tuple(brute_faces(c))


def test_face_of():
    assert cone_from_rays(3, [(1, 0, 1), (0, 1, 1)]) in faces(SQUARE)
    assert cone_from_rays(3, [(1, 0, 1), (-1, 0, 1)]) not in faces(SQUARE)  # a diagonal
    assert cone_from_rays(3, [(1, 1, 1)]) not in faces(SQUARE)


# ---------------------------------------------------------------------------
# Intersections.


def cone_pairs():
    """Pairs of cones of one rank 1-4, any shape, so the intersection may be
    lower dimensional or carry lines."""
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(cones_any_shape(st.just(n)), cones_any_shape(st.just(n)))
    )


@settings(max_examples=80, deadline=None)
@given(cone_pairs())
@example((ORTHANT2, cone_from_rays(2, [(1, 0), (0, -1)])))  # meet in a ray
@example((ORTHANT2, cone_from_rays(2, [(-1, 0), (0, -1)])))  # meet in the origin
@example((cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)]), cone_from_rays(2, [(1, 0), (-1, 0), (0, -1)])))  # in a line
@example((cone_from_rays(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)]), SQUARE))
def test_cone_intersection_matches_brute_force(pair):
    c1, c2 = pair
    inter = cone_intersection(c1, c2)
    assert inter == brute_intersection(c1, c2)
    assert inter == two_dd_facets_cone(inter.ambient_rank, c1.facets + c2.facets)
    assert inter == cone_from_rays(inter.ambient_rank, inter.rays)


def faces_of_one_cone():
    """Two faces of one cone of rank 1-4, so each may be the other, a face
    of it, or neither."""
    return cones_any_shape(st.integers(1, 4)).flatmap(
        lambda c: st.tuples(st.sampled_from(faces(c)), st.sampled_from(faces(c)))
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(cone_pairs(), faces_of_one_cone()))
@example((ORTHANT2, cone_from_rays(2, [(1, 0)])))  # a face of the other
@example((ORTHANT2, cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)])))  # no shared face
@example((cone_from_rays(2, [(1, 0), (1, 2)]), cone_from_rays(2, [(1, 1), (0, 1)])))  # overlap
@example((cone_from_rays(3, [(1, 2, 0), (2, 1, 0)]), cone_from_rays(3, [(1, 1, 0), (0, 1, 0)])))  # flat
@example((cone_from_rays(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]), cone_from_rays(3, [(1, 0, 0), (-1, 0, 0), (0, 0, 1)])))
def test_meet_in_common_face_matches_brute_force(pair):
    c1, c2 = pair
    meet = brute_intersection(c1, c2)
    assert _meet_in_common_face(c1, c2) == (brute_is_face(meet, c1) and brute_is_face(meet, c2))


# ---------------------------------------------------------------------------
# Complexes, subdivisions, resolution.


def test_star_subdivision_orthant():
    k = complex_from_cones(2, [ORTHANT2])
    k2 = star_subdivision(k, (1, 1))
    tops = [c.rays for c in k2.maximal_cells()]
    assert tops == [((0, 1), (1, 1)), ((1, 0), (1, 1))]
    # computed once per complex, and not open to mutation by callers
    assert k2.maximal_cells() is k2.maximal_cells()
    assert isinstance(k2.maximal_cells(), tuple)
    assert all(c.is_smooth for c in k2.cells)
    assert check_subdivision(uncertified(k2), k)


def test_star_subdivision_joins_each_face_once(monkeypatch):
    # two orthant-like cells sharing the face spanned by (0, 1, 0), (0, 0, 1),
    # subdivided in that face: the three cells holding the ray share the
    # face's own faces, and each g + rho is built once, carried by the first
    # cell in cell order that has g as a face
    left = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    right = cone_from_rays(3, [(-1, 0, 0), (0, 1, 0), (0, 0, 1)])
    k = complex_from_cones(3, [left, right])
    rho = (0, 1, 1)
    for c in k.cells:
        faces(c)
    joined = [g for c in k.cells if c.contains(rho) for g in faces(c) if not g.contains(rho)]
    assert len(joined) > len(set(joined))
    builds = count_calls(monkeypatch, "cone_from_rays")
    kp = star_subdivision(k, rho)
    assert len(builds) == len(set(joined))
    carriers = dict(zip(kp.cells, kp._certificate[1]))
    for g in set(joined):
        first = next(c for c in k.cells if c.contains(rho) and g in faces(c))
        assert carriers[cone_from_rays(3, list(g.rays) + [rho])] == first
    assert uncertified(kp).validate() == [] and check_subdivision(uncertified(kp), k)


def test_star_subdivision_at_existing_ray_is_identity():
    k = complex_from_cones(2, [ORTHANT2])
    assert star_subdivision(k, (1, 0)).cells == k.cells
    k3 = complex_from_cones(3, [ORTHANT3])
    assert star_subdivision(k3, (0, 1, 0)).cells == k3.cells


def test_star_subdivision_outside_support():
    k = complex_from_cones(2, [ORTHANT2])
    with pytest.raises(ValueError):
        star_subdivision(k, (-1, 0))


def test_star_subdivision_in_lineality_space():
    # every face of the half-plane contains (1, 0): the cell would be dropped
    half_plane = cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(LinealityError):
        star_subdivision(complex_from_cones(2, [half_plane]), (1, 0))


def test_check_subdivision_reflexive_and_negative():
    k = complex_from_cones(2, [ORTHANT2])
    assert check_subdivision(k, k)
    other = complex_from_cones(2, [WEDGE])  # different support
    assert not check_subdivision(other, k)
    assert not check_subdivision(k, other)
    # refinement with a missing piece is not a subdivision
    half = complex_from_cones(2, [cone_from_rays(2, [(1, 0), (1, 1)])])
    assert not check_subdivision(half, k)
    # a complex that is not valid does not carry itself: the orthant comes
    # first and also holds the inner cone, which the volume test counts twice
    inner = cone_from_rays(2, [(1, 1), (1, 2)])
    bad = complex_from_cones(2, [ORTHANT2, inner])
    assert not check_subdivision(bad, bad)


def test_resolve_smooth_complex_untouched():
    k = complex_from_cones(3, [ORTHANT3])
    assert resolve_complex(k).cells == k.cells


def test_resolve_wedge():
    k = complex_from_cones(2, [WEDGE])
    r = resolve_complex(k)
    assert all(c.is_smooth for c in r.cells)
    assert check_subdivision(uncertified(r), k)
    assert cone_from_rays(2, [(1, 1)]) in r.cells


def test_resolve_square_cone():
    k = complex_from_cones(3, [SQUARE])
    r = resolve_complex(k)
    assert all(c.is_smooth for c in r.cells)
    assert check_subdivision(uncertified(r), k)


def test_resolve_random_complexes():
    rng = random.Random(2024)
    for _ in range(12):
        rank = rng.randint(2, 3)
        c = random_cone(rng, rank, max_entry=4)
        k = complex_from_cones(rank, [c])
        r = resolve_complex(k)
        assert all(cell.is_smooth for cell in r.cells)
        assert check_subdivision(uncertified(r), k)
        assert uncertified(r).validate() == []


def test_resolve_tests_each_cell_once(monkeypatch):
    calls = collections.Counter()
    real = Cone.__dict__["is_smooth"].func

    def counting(self):
        calls[self] += 1
        return real(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(Cone, "is_smooth")
    monkeypatch.setattr(Cone, "is_smooth", counted)
    k = complex_from_cones(3, [cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 2, 5)])])
    r = resolve_complex(k)
    assert max(calls.values()) == 1
    assert set(r.cells) <= set(calls)
    # pinned: subdividing the first non-smooth cell in cell order each time
    assert len(r.cells) == 38
    assert [c.rays[0] for c in r.cells if c.dim == 1] == [
        (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5)
    ]


def test_resolve_preserves_smooth_neighbors():
    smooth = cone_from_rays(2, [(1, 0), (0, 1)])
    singular = cone_from_rays(2, [(0, 1), (-1, 2)])
    k = complex_from_cones(2, [smooth, singular])
    r = resolve_complex(k)
    assert smooth in set(r.cells)


def test_resolve_bound_counts_box_points():
    # [[1,0],[1,N]] resolves in N - 1 steps over N(N+1)/2 - 1 box points,
    # which passes RESOLVE_MAX_BOX_POINTS from N = 100 on
    assert RESOLVE_MAX_BOX_POINTS == 5_000
    k = complex_from_cones(2, [cone_from_rays(2, [(1, 0), (1, 99)])])
    assert len(resolve_complex(k).cells) == 200
    k = complex_from_cones(2, [cone_from_rays(2, [(1, 0), (1, 100)])])
    with pytest.raises(ValueError, match="more than 5000 box points"):
        resolve_complex(k)


def test_index_166_cone_resolves_within_the_bound():
    # the costliest resolution the bound was sized on: 86 subdivisions over
    # 414 box points
    c = cone_from_rays(4, [(-1, -3, -1, -2), (-1, 2, 2, 3), (1, -3, -2, 3), (1, -2, 3, 0)])
    r = resolve_complex(complex_from_cones(4, [c]))
    assert len(r.cells) == 1340
    assert all(cell.is_smooth for cell in r.cells)


def test_resolution_takes_each_smith_form_once(monkeypatch):
    # a cell's smoothness and its box points, when the resolution subdivides
    # it, come from the one closed piece the cell keeps
    snf = count_calls(monkeypatch, "smith_normal_form")
    c = cone_from_rays(4, [(-1, -3, -1, -2), (-1, 2, 2, 3), (1, -3, -2, 3), (1, -2, 3, 0)])
    assert len(resolve_complex(complex_from_cones(4, [c])).cells) == 1340
    taken = collections.Counter(tuple(map(tuple, a)) for (a,) in snf)
    assert (len(snf), set(taken.values())) == (86, {1})


def test_resolution_matches_the_two_phase_oracle():
    # one loop, a non-simplicial cell first and then the first cell that is
    # not smooth, subdivides where the old two phases did, in the same order
    rng = random.Random(45)
    non_simplicial = singular = 0
    for _ in range(300):
        rank = rng.randint(2, 4)
        k = complex_from_cones(rank, [random_cone(rng, rank, max_entry=3 if rank < 4 else 2)])
        for _ in range(rng.randint(0, 2)):
            v = tuple(rng.randint(0, 3) for _ in range(rank))
            if any(v) and k.support_cell(v) is not None:
                k = star_subdivision(k, v)
        non_simplicial += any(len(c.rays) > c.dim for c in k.cells)
        singular += any(not c.is_smooth for c in k.cells)
        assert resolve_complex(k).cells == oracle_resolve_complex(k).cells, k.cells
    assert non_simplicial > 50 and singular > 150


@st.composite
def pointed_cones(draw):
    """Cones of rank 3-4 spanned by nonnegative combinations of a random
    basis of a subspace of dimension at least 3, some flat; a pointed cone
    of rank 2 is simplicial."""
    rank = draw(st.integers(3, 4))
    dim = draw(st.integers(3, rank))
    basis = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=dim, max_size=dim))
    coeffs = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    rays = [
        tuple(sum(k * b[i] for k, b in zip(ks, basis)) for i in range(rank))
        for ks in draw(st.lists(coeffs, min_size=dim + 1, max_size=dim + 4))
    ]
    return cone_from_rays(rank, rays)


@settings(max_examples=100, deadline=None)
@given(pointed_cones())
@example(SQUARE)
def test_non_simplicial_cone_has_a_ray_that_is_no_pyramid_apex(c):
    # resolve_complex pivots at such a ray: were every ray an apex, each
    # other ray would be an apex of the facet opposite it, and by induction
    # the cone would be simplicial
    assume(c.is_strictly_convex() and len(c.rays) > c.dim)
    assert not all(_is_pyramid_apex(c, r) for r in c.rays)


def test_lineality_rejected():
    line = cone_from_rays(2, [(1, 0), (-1, 0)])
    with pytest.raises(LinealityError):
        resolve_complex(complex_from_cones(2, [line]))
    with pytest.raises(LinealityError):
        triangulate_half_open(line)


# ---------------------------------------------------------------------------
# Half-open decomposition and box points.


def test_triangulate_orthant():
    relint = triangulate_half_open(ORTHANT2, "relint")
    assert len(relint) == 1 and relint[0].strict == (True, True)
    closed = triangulate_half_open(ORTHANT2, "closed")
    assert len(closed) == 1 and closed[0].strict == (False, False)


def region_points(c, region, bound):
    n = c.ambient_rank
    paired = {u for u in c.facets if tuple(-x for x in u) in set(c.facets)}
    ineqs = []
    for u in c.facets:
        if u in paired:
            ineqs.append((0, u))
        else:
            ineqs.append((0 if region == "closed" else -1, u))
    ones = tuple(1 for _ in range(n))
    negs = tuple(-1 for _ in range(n))
    ineqs.append((bound, negs))
    ineqs.extend((bound, tuple(-x for x in e)) for e in [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)])
    ineqs.extend((bound, e) for e in [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)])
    return [p for p in affine_lattice_points(n, ineqs)]


def pulled(c):
    """The pulling triangulation from its definition on cones: pull the first
    ray over each facet missing it, facets in (dimension, rays) order."""
    if c.dim == len(c.rays):
        return (c.rays,)
    v = c.rays[0]
    walls = [f for f in brute_faces(c) if f.dim == c.dim - 1 and not f.contains(v)]
    return tuple((v,) + sub for f in walls for sub in pulled(f))


@settings(max_examples=60, deadline=None)
@given(cones_any_shape(st.integers(1, 4)).filter(lambda c: c.is_strictly_convex()))
@example(SQUARE)
@example(SQUARE_IN_4)
def test_triangulate_is_pulling_triangulation(c):
    assert _triangulate(c.rays, c.incidence, c.dim) == pulled(c)


@settings(max_examples=80, deadline=None)
@given(cones_any_shape(st.integers(1, 5)).filter(lambda c: c.is_strictly_convex()))
@example(SQUARE)
@example(SQUARE_IN_4)
@example(cone_from_rays(3, []))
def test_half_open_flags_match_witness_oracle(c):
    for region in ("relint", "closed"):
        flags = [piece.strict for piece in triangulate_half_open(c, region)]
        assert flags == witness_flags(c, region), region


@settings(max_examples=150, deadline=None)
@given(cones_any_shape())
@example(cone_from_rays(4, []))  # the zero cone
@example(cone_from_rays(3, [(1, 2, 0)]))  # a ray
@example(cone_from_rays(3, [(1, 2, 0), (2, 1, 0)]))  # flat, simplicial
@example(cone_from_rays(3, [(1, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 1), (1, 0, 0)]))  # redundant input
@example(SQUARE)
@example(SQUARE_IN_4)
@example(cone_from_rays(5, [(1, 0, 1, 0, 0), (0, 1, 1, 0, 0), (-1, 0, 1, 0, 0), (0, -1, 1, 0, 0)]))  # flat, two lines
@example(cone_from_rays(0, []))  # the zero cone of rank 0
def test_relint_pieces_match_triangulate_half_open(c):
    # the piece table reads a pointed cone by its rays, incidence and
    # dimension; a simplicial one is one piece, every generator strict,
    # with the frame its own Smith form.  A cone with lines never reaches
    # it: the kernel's callers refuse one at their trust boundaries
    assume(c.is_strictly_convex())
    expected = tuple(triangulate_half_open(c, "relint"))
    for _ in range(2):  # built, then read from the table
        pieces = relint_pieces(c)
        assert pieces == expected
        assert [getattr(p, "_frame", None) for p in pieces] == [getattr(p, "_frame", None) for p in expected]


def test_simplicial_cone_takes_no_triangulation(monkeypatch):
    flat = cone_from_rays(3, [(1, 2, 0), (2, 1, 0)])
    _relint_pieces.cache_clear()
    runs = count_dd_runs(monkeypatch)
    eliminations = count_calls(monkeypatch, "_gauss_jordan")
    frames = count_calls(monkeypatch, "_smith_frame")
    # as many rays as the dimension: the constructor's one elimination, one piece
    (piece,) = relint_pieces(flat)
    assert piece.strict == (True, True) and piece.box_count() == 3
    assert (runs, len(eliminations), len(frames)) == ([], 1, 1)
    # the square, full dimensional or flat in rank 4: per piece the
    # constructor's one elimination, which also gives its flags, and no
    # double description, since the incidence is handed in
    assert len(relint_pieces(SQUARE)) == 2
    assert (runs, len(eliminations), len(frames)) == ([], 3, 3)
    assert len(relint_pieces(SQUARE_IN_4)) == 2
    assert (runs, len(eliminations), len(frames)) == ([], 5, 5)
    # a cone summed over again reads the table: no elimination, no piece
    assert len(relint_pieces(SQUARE)) == 2
    assert relint_pieces(flat) == (piece,)
    assert (runs, len(eliminations), len(frames)) == ([], 5, 5)


def non_simplicial_lower_dim(rng, count):
    """Non-simplicial rank-3 cones embedded in rank 4 by x -> (x, <w, x>),
    which adds one span-cutting facet pair."""
    out = []
    while len(out) < count:
        c = random_cone(rng, 3, 3)
        if len(c.rays) > c.dim:
            w = tuple(rng.randint(-1, 1) for _ in range(3))
            out.append(cone_from_rays(4, [r + (dot(w, r),) for r in c.rays]))
    return out


@pytest.mark.parametrize("region", ["relint", "closed"])
def test_half_open_coverage(region):
    rng = random.Random(77)
    cones = [ORTHANT2, WEDGE, SQUARE] + [random_cone(rng, rng.randint(2, 3), 5) for _ in range(8)]
    cones += [SQUARE_IN_4] + non_simplicial_lower_dim(rng, 3)
    for c in cones:
        pieces = triangulate_half_open(c, region)
        for p in region_points(c, region, 10):
            count = sum(1 for piece in pieces if half_open_contains(piece, p))
            assert count == 1, (c, region, p, count)


def test_half_open_boundary_excluded():
    rng = random.Random(123)
    cones = [SQUARE, WEDGE] + [random_cone(rng, 3, 5) for _ in range(6)]
    for c in cones:
        pieces = triangulate_half_open(c, "relint")
        for p in region_points(c, "closed", 8):
            inside = c.relint_contains(p)
            count = sum(1 for piece in pieces if half_open_contains(piece, p))
            assert count == (1 if inside else 0), (c, p)


def test_half_open_cone_checks_its_generators():
    with pytest.raises(ValueError, match="linearly independent"):
        HalfOpenCone(2, ((1, 0), (2, 0)), (False, False))
    with pytest.raises(ValueError, match="linearly independent"):
        HalfOpenCone(3, ((1, 0, 1), (0, 1, 1), (1, 1, 2)), (True, False, False))
    with pytest.raises(ValueError, match="linearly independent"):
        HalfOpenCone(2, ((1, 0), (0, 1), (1, 1)), (False, True, False))  # more than the rank
    with pytest.raises(ValueError, match="linearly independent"):
        HalfOpenCone(2, ((0, 0),), (True,))
    with pytest.raises(ValueError, match="one openness flag per generator"):
        HalfOpenCone(2, ((1, 0), (0, 1)), (True,))
    with pytest.raises(ValueError, match="one openness flag per generator"):
        HalfOpenCone(2, (), (False,))
    with pytest.raises(ValueError, match="one openness flag per generator"):
        HalfOpenCone(2, ((1, 0), (0, 1)), None)
    walls = (((1, 0), (0, 1)), -1)
    with pytest.raises(ValueError, match="exclusive"):
        HalfOpenCone(2, ((1, 0), (0, 1)), (False, False), walls)
    assert HalfOpenCone(2, ((1, 0), (0, 1)), None, walls).strict == (True, True)


def test_box_points_examples():
    assert box_points(HalfOpenCone(2, ((1, 0), (0, 1)), (True, True))) == [(1, 1)]
    assert box_points(HalfOpenCone(2, ((1, 0), (0, 1)), (False, False))) == [(0, 0)]
    pts = box_points(HalfOpenCone(2, ((1, 0), (1, 2)), (False, False)))
    assert sorted(pts) == [(0, 0), (1, 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_box_point_count_is_index(seed):
    rng = random.Random(seed)
    rank = rng.randint(1, 3)
    k = rng.randint(1, rank)
    while True:
        gens = [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(k)]
        mat = from_columns(gens)
        if k == rank:
            d = det(mat)
            if d != 0:
                break
        else:
            if not any(is_zero_vec(g) for g in gens) and mat_rank(tuple(gens)) == k:
                break
    flags = tuple(rng.random() < 0.5 for _ in range(k))
    h = HalfOpenCone(rank, tuple(gens), flags)
    pts = box_points(h)
    assert pts == fresh_box_points(h)
    # index = product of elementary divisors of the gens inside their span
    from logzeta.intlin import saturation_basis

    span = saturation_basis(gens, rank)
    coords = [solve_integer(from_columns(span), g) for g in gens]
    s, _, _ = smith_normal_form(from_columns(coords))
    idx = 1
    for i in range(k):
        idx *= s[i][i]
    assert len(pts) == idx
    assert len(set(pts)) == len(pts)
    # Each point has parallelepiped coordinates in (0, 1] (strict) or [0, 1);
    # with the count equal to the index this pins the point set exactly.
    for p in pts:
        assert half_open_contains(HalfOpenCone(rank, tuple(gens), flags), p)
        lam = solve_rational(mat, p)
        assert lam is not None
        for x, strict in zip(lam, flags):
            assert (0 < x <= 1) if strict else (0 <= x < 1)


def test_affine_lattice_points_simplex():
    pts = affine_lattice_points(
        2, [(0, (1, 0)), (0, (0, 1)), (3, (-1, -1))]
    )
    assert len(pts) == 10
    assert set(pts) == {(i, j) for i in range(4) for j in range(4) if i + j <= 3}


def test_desk_scale_rank_six():
    rng = random.Random(1)
    rays = [tuple(rng.randint(0, 5) for _ in range(6)) for _ in range(20)]
    c = cone_from_rays(6, rays)
    assert c.dim == 6
    assert dual_cone(dual_cone(c)) == c
    for u in c.facets:
        assert all(dot(u, r) >= 0 for r in c.rays)


def test_complex_validation_catches_bad_pair():
    a = cone_from_rays(2, [(1, 0), (1, 2)])
    b = cone_from_rays(2, [(1, 1), (0, 1)])  # overlaps a's interior
    k = complex_from_cones(2, [a, b])
    assert k.validate() != []
    assert k.validate() == brute_complex_problems(k)


def test_complex_rejects_a_cell_of_another_rank():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ConeComplex(3, (ORTHANT2,))
    with pytest.raises(ValueError, match="dimension mismatch"):
        complex_from_cones(3, [ORTHANT3, ORTHANT2])


def test_complex_validation_catches_cell_inside_maximal_cell():
    # the orthant is the only maximal cell, so no pair of maximal cells
    # fails; the ray (1,1) is a cell that is not a face of it
    k = complex_from_cones(2, [ORTHANT2, cone_from_rays(2, [(1, 1)])])
    expected = [f"{cone_from_rays(2, [(1, 1)])} and {ORTHANT2} do not meet in a common face"]
    assert k.validate() == expected
    assert brute_complex_problems(k) == expected


def random_complex(rng: random.Random) -> ConeComplex:
    """A rank-2 or rank-3 complex of one of four kinds, by draw: a subdivided
    cone (valid), random overlapping cones, a subdivided cone with one
    non-maximal cell dropped, or with an extra cell inside a maximal cell."""
    rank = rng.randint(2, 3)
    kind = rng.randrange(4)
    if kind == 1:
        cones = [random_cone(rng, rank, max_entry=3) for _ in range(rng.randint(2, 3))]
        return complex_from_cones(rank, cones)
    k = random_subdivided_cone(rng, rank)
    if kind == 2:
        maximal = k.maximal_cells()
        dropped = rng.choice([c for c in k.cells if c not in maximal])
        return ConeComplex(rank, tuple(c for c in k.cells if c != dropped))
    if kind == 3:
        big = rng.choice(k.maximal_cells())
        interior = tuple(sum(xs) for xs in zip(*big.rays))
        rays = [interior, vec_add(interior, big.rays[0])][: rng.randint(1, 2)]
        extra = cone_from_rays(rank, rays)
        return complex_from_cones(rank, list(k.cells) + [extra])
    return k


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_complex_validation_matches_definition(seed):
    k = random_complex(random.Random(seed))
    assert k.validate() == brute_complex_problems(k)


def point_in_support(rng: random.Random, k: ConeComplex):
    """A nonzero lattice point of a random maximal cell of ``k``."""
    rays = rng.choice(k.maximal_cells()).rays
    while True:
        v = tuple(sum(xs) for xs in zip(*(vec_scale(rng.randint(0, 2), r) for r in rays)))
        if not is_zero_vec(v):
            return v


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
@example(0)
def test_subdivision_certificate_matches_general_path(seed):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        k = random_complex(rng)  # of any kind, valid or not
    else:
        k = random_subdivided_cone(rng, rng.randint(2, 3))
    valid = brute_complex_problems(k) == []
    kp = k
    for _ in range(rng.randint(1, 3)):
        kp = star_subdivision(kp, point_in_support(rng, kp))
        if not valid:
            # no verdict is handed down from a complex that is not one
            assert kp._certificate is None
            assert kp.validate() == brute_complex_problems(kp)
            return
        root, carriers = kp._certificate
        assert root is k
        assert list(carriers) == _carriers(uncertified(kp), k)
        assert kp.validate() == brute_complex_problems(kp) == []
    # a resolution keeps the root and lets its intermediate complexes go
    made = []
    real = star_subdivision

    def recording(k, rho):
        out = real(k, rho)
        made.append(weakref.ref(out))
        return out

    logzeta.cones.star_subdivision = recording
    try:
        r = resolve_complex(kp)
    finally:
        logzeta.cones.star_subdivision = real
    gc.collect()
    assert [w for w in made if w() is not None and w() is not r] == []
    root, carriers = r._certificate
    assert root is k
    assert list(carriers) == _carriers(uncertified(r), k)
    assert uncertified(r).validate() == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_certified_incidence_matches_scan(seed):
    # the maximal cells and owners a certified complex reads off its
    # certificate are the ones the scan finds on an uncertified copy
    rng = random.Random(seed)
    k = random_subdivided_cone(rng, rng.randint(2, 3))
    chain = [k]
    for _ in range(rng.randint(1, 3)):
        chain.append(star_subdivision(chain[-1], point_in_support(rng, chain[-1])))
        assert {"_maximal_cells", "_owners"}.isdisjoint(vars(chain[-1]))  # built when asked
    chain.append(resolve_complex(chain[-1]))
    for kp in chain[1:]:
        assert kp._certificate[0] is k
        maximal, owners = brute_incidence(uncertified(kp))
        assert list(kp.maximal_cells()) == maximal
        for c in kp.cells:
            assert list(kp.owners(c)) == owners[c]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_first_containing_cell_is_smallest(seed):
    rng = random.Random(seed)
    k = random_complex(rng)
    n = k.ambient_rank

    def smallest(contains):
        return min(
            (c for c in k.cells if contains(c)), key=lambda c: (c.dim, c._key()), default=None
        )

    for _ in range(8):
        v = tuple(rng.randint(-1, 3) for _ in range(n))
        assert k.support_cell(v) == smallest(lambda c: c.contains(v))
    others = [rng.choice(k.cells) for _ in range(3)]
    for _ in range(5):
        rays = [tuple(rng.randint(-1, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        others.append(cone_from_rays(n, rays))
    for other in others:
        assert k.smallest_containing(other) == smallest(
            lambda c: all(c.contains(r) for r in other.rays)
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
@example(3)  # draws a cell that only cells of its own dimension contain
def test_owners_match_definition(seed):
    k = random_complex(random.Random(seed))
    maximal, owners = brute_incidence(k)
    assert list(k.maximal_cells()) == maximal
    for c in k.cells:
        assert list(k.owners(c)) == owners[c]


ZERO2 = cone_from_rays(2, [])
RAY_X = cone_from_rays(2, [(1, 0)])
RAY_Y = cone_from_rays(2, [(0, 1)])
RAY_XY = cone_from_rays(2, [(1, 1)])
LINE_X = cone_from_rays(2, [(1, 0), (-1, 0)])
HALF_PLANE = cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)])
LOW = cone_from_rays(2, [(1, 0), (1, 1)])
HIGH = cone_from_rays(2, [(1, 1), (0, 1)])


@pytest.mark.parametrize(
    "cells",
    [
        # one cell given twice, with and without its faces
        (ORTHANT2, ORTHANT2),
        (ORTHANT2, ORTHANT2, RAY_X, RAY_Y, ZERO2),
        # the zero cone alone, and beside other cells
        (ZERO2,),
        (ZERO2, RAY_X),
        (ZERO2, ZERO2, WEDGE),
        # cells with lines: a half-plane over its line, and the line alone
        (HALF_PLANE, LINE_X),
        (LINE_X, RAY_X),
        # two maximal cells sharing the ray (1, 1), whose ray cell is missing
        (LOW, HIGH, RAY_X, RAY_Y, ZERO2),
        (LOW, HIGH),
    ],
)
def test_incidence_matches_definition_on_edge_cases(cells):
    # complexes random_complex never draws; every answer is the definition's
    k = ConeComplex(2, cells)
    maximal, owners = brute_incidence(k)
    assert list(k.maximal_cells()) == maximal
    for c in k.cells:
        assert list(k.owners(c)) == owners[c]
    for v in itertools.product(range(-2, 3), repeat=2):
        assert k.support_cell(v) == next((c for c in k.cells if c.contains(v)), None)
    for other in (*k.cells, ZERO2, RAY_XY, LINE_X, HALF_PLANE, ORTHANT2, WEDGE):
        first = next((c for c in k.cells if all(c.contains(r) for r in other.rays)), None)
        assert k.smallest_containing(other) == first


def test_replaced_cone_hashes_its_new_fields():
    # a cone's hash is taken once, when it is built, and dataclasses.replace
    # builds a new one
    moved = dataclasses.replace(WEDGE, rays=ORTHANT2.rays, facets=ORTHANT2.facets)
    assert moved == ORTHANT2
    assert hash(moved) == hash(ORTHANT2) == hash((2, ORTHANT2.rays, ORTHANT2.facets))
    assert {moved: 1}[ORTHANT2] == 1


# ---------------------------------------------------------------------------
# The complex's ray masks and the complex table.

INDEX_166 = [(-1, -3, -1, -2), (-1, 2, 2, 3), (1, -3, -2, 3), (1, -2, 3, 0)]


def assert_ray_masks_match_contains(k: ConeComplex) -> None:
    """Every ray of every cell has a mask, and bit ``i`` of it is set
    exactly when ``cells[i]`` contains the ray, by ``Cone.contains``."""
    table = k._ray_masks
    assert set(table) == {r for c in k.cells for r in c.rays}
    for r, mask in table.items():
        assert [mask >> i & 1 for i in range(len(k.cells))] == [int(c.contains(r)) for c in k.cells]


def random_arrangement(rng: random.Random) -> ConeComplex:
    """Independent random cones of rank 1-4 with their faces: cells of every
    dimension, with lines among them, overlapping at will."""
    rank = rng.randint(1, 4)
    cones = []
    for _ in range(rng.randint(1, 4)):
        rays = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(0, rank + 1))]
        cones.append(cone_from_rays(rank, rays))
    return complex_from_cones(rank, cones)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_ray_masks_match_contains(seed):
    rng = random.Random(seed)
    assert_ray_masks_match_contains(random_complex(rng))  # valid or not, rank 2-3
    assert_ray_masks_match_contains(random_arrangement(rng))


PLANE_CELL = cone_from_rays(3, [(1, 0, 0), (0, 1, 0)])


@pytest.mark.parametrize(
    "cells",
    [
        (ZERO2,),
        (ZERO2, RAY_X),
        (HALF_PLANE, LINE_X, RAY_XY),
        (LINE_X, RAY_Y, cone_from_rays(2, [(0, -1)])),
        (WEDGE, HIGH, RAY_XY),  # overlapping cells
        (LOW, HIGH, RAY_X, RAY_Y, ZERO2),
        # a lower-dimensional cell with rays of other cells on both sides of
        # its span, so each facet of its span-cutting pair rules one out
        (PLANE_CELL, cone_from_rays(3, [(1, 1, 1)]), cone_from_rays(3, [(1, 1, -1)])),
        (PLANE_CELL, cone_from_rays(3, [(1, 1, 1), (1, 1, -1)])),
    ],
)
def test_ray_masks_match_contains_on_edge_cases(cells):
    assert_ray_masks_match_contains(ConeComplex(cells[0].ambient_rank, cells))
    assert_ray_masks_match_contains(complex_from_cones(cells[0].ambient_rank, cells))


def test_ray_masks_of_the_sample_models():
    for name in ("bad_model.json", "orthant_model.json", "cusp_resolution.json", "single_component.json"):
        data = json.loads((DATA / name).read_text())
        if "cells" in data:
            assert_ray_masks_match_contains(parse_fan(data).complex)


def test_ray_masks_take_one_dot_per_facet_and_ray(monkeypatch):
    # the 1,340-cell resolution of the index-166 cone, in a fresh complex
    # with nothing worked out on it: each distinct facet is paired with each
    # ray at most once, where one scan of every cell per ray took 322,662
    cells = resolve_complex(complex_from_cones(4, [cone_from_rays(4, INDEX_166)])).cells
    k = ConeComplex(4, cells)
    rays = {r for c in cells for r in c.rays}
    facets = {u for c in cells for u in c.facets}
    dots = count_calls(monkeypatch, "dot")
    assert len(k.maximal_cells()) == 289
    assert all(k.owners(c) for c in cells)
    assert (len(rays), len(facets)) == (90, 1130)
    assert max(collections.Counter(dots).values()) == 1
    assert len(dots) <= len(facets) * len(rays)


def test_equal_cell_lists_share_one_complex():
    k = complex_from_cones(2, [LOW, HIGH])
    # equal cells, built afresh, in another order and with faces listed
    again = [cone_from_rays(2, [(0, 1), (1, 1)]), RAY_X, ZERO2, cone_from_rays(2, [(1, 1), (2, 0), (1, 0)])]
    assert complex_from_cones(2, again) is k
    assert complex_from_cones(2, list(reversed(k.cells))) is k
    assert complex_from_cones(2, [LOW]) is not k
    assert complex_from_cones(2, [LOW]).cells == tuple(sorted(faces(LOW), key=Cone._key))


def test_complex_table_keys_the_rank():
    # no cells at all, so only the rank tells the two complexes apart
    assert [complex_from_cones(n, []).ambient_rank for n in (2, 3, 2)] == [2, 3, 2]
    assert complex_from_cones(2, [ORTHANT2]).ambient_rank == 2
    for _ in range(2):  # a refused input is never kept
        with pytest.raises(ValueError, match="dimension mismatch"):
            complex_from_cones(3, [ORTHANT2])


def test_star_subdivision_writes_nothing_into_a_table_complex():
    k = complex_from_cones(2, [ORTHANT2])
    assert k.validate() == []
    for built in (star_subdivision(k, (1, 1)), resolve_complex(complex_from_cones(2, [WEDGE]))):
        assert built._certificate is not None
        table = complex_from_cones(2, built.cells)
        assert table == built and table is not built
        assert table._certificate is None and "_problems" not in vars(table)
    assert k._certificate is None
    # an overlapping pair is no complex: its subdivision is the table's own,
    # with no certificate
    bad = complex_from_cones(2, [WEDGE, HIGH])
    assert bad.validate() != []
    sub = star_subdivision(bad, (1, 1))
    assert sub is complex_from_cones(2, sub.cells) and sub._certificate is None
