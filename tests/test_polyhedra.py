"""Exact polyhedral primitives: hulls, cones, counting, serialization."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bottsam import (
    RationalCone,
    RationalPolytope,
    Unstable,
    ValidationError,
    VerificationFailure,
)
from bottsam.polyhedra import (
    polytope_from_payload,
    polytope_payload,
    primitive_vector,
)

from bottsam import polyhedra
from oracles import (
    convex_hull_2d,
    direction_lattice_volume,
    extreme_rays_2d,
    shoelace_area,
    two_sweep_vertices,
)

UNIT_TRIANGLE = ((0, 0), (1, 0), (0, 1))


@pytest.mark.parametrize("values, expected", [
    ((4, -6, 0), (2, -3, 0)),
    ((Fraction(1, 2), Fraction(-1, 3)), (3, -2)),
    ((2, Fraction(3, 4), Fraction(4, 2)), (8, 3, 8)),
    ((0.5, 1), (1, 2)),
    ((0, Fraction(0)), (0, 0)),
    ((0, 0, 0), (0, 0, 0)),
    ((-3,), (-1,)),
    ((1, -4), (1, -4)),
    ((), ()),
])
def test_primitive_vector_scales_to_coprime_ints(values, expected):
    got = primitive_vector(values)
    assert got == expected
    assert all(type(v) is int for v in got)


def test_hull_drops_interior_and_duplicate_points():
    poly = RationalPolytope.from_points(
        [(0, 0), (1, 0), (0, 1), (0, 0), (Fraction(1, 4), Fraction(1, 4))])
    assert sorted(poly.vertices) == [(0, 0), (0, 1), (1, 0)]
    assert poly.volume() == Fraction(1, 2)


def test_hull_of_single_point_and_segment():
    point = RationalPolytope.from_points([(2, 3)])
    assert point.vertices == ((2, 3),)
    assert point.volume() == 0
    segment = RationalPolytope.from_points([(0,), (3,)])
    assert segment.volume() == 3


def test_random_triangle_volume_matches_shoelace():
    rng = random.Random(20260819)
    checked = 0
    for _ in range(40):
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        area = shoelace_area(pts)
        if area == 0:
            continue
        checked += 1
        assert RationalPolytope.from_points(pts).volume() == area
    assert checked > 20


def test_volume_is_unimodular_invariant():
    rng = random.Random(11)
    for _ in range(20):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
        poly = RationalPolytope.from_points(pts)
        sheared = RationalPolytope.from_points([(x + y, y) for x, y in pts])
        assert sheared.volume() == poly.volume()
        assert len(sheared.lattice_points()) == len(poly.lattice_points())


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=3, max_size=8),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
       st.tuples(*[st.sampled_from([0, Fraction(1, 2), Fraction(-1, 3)])] * 2))
def test_embedded_polygon_volumes_match_shoelace(points, a, b, q, shift):
    """The planar hull's volume and the lattice volume of its copy on the
    plane z = a x + b y in Q^3 both equal the shoelace area: the map
    (x, y) -> (x, y, a x + b y) carries Z^2 onto that plane's saturated
    lattice.  The points are scaled by 1/q and shifted, so facets may miss
    every lattice point; a facet height measured with a normal that is not
    primitive made the triangle (0, 1/2), (1, 1/2), (0, 3/2) of area 1/2
    report volume 1."""
    points = [(Fraction(x, q) + shift[0], Fraction(y, q) + shift[1])
              for x, y in points]
    hull = convex_hull_2d(points)
    assume(len(hull) >= 3)
    area = shoelace_area(hull)
    assert RationalPolytope.from_points(points).volume() == area
    embedded = RationalPolytope.from_points(
        [(x, y, a * x + b * y) for x, y in points])
    assert embedded.dim() == 2
    assert embedded.lattice_volume() == area


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5))
                .filter(any), min_size=1, max_size=6))
def test_extreme_rays_matches_pairwise_oracle(vectors):
    rays = RationalCone.from_generators(vectors).rays
    assert sorted(rays) == sorted(extreme_rays_2d(vectors))


def test_extreme_rays_collapses_parallel_generators():
    cone = RationalCone.from_generators([(0, 1), (1, 1), (2, 2), (1, 2)])
    assert cone.rays == ((0, 1), (1, 1))


def test_extreme_rays_in_three_dimensions():
    rays = RationalCone.from_generators(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]).rays
    assert sorted(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_cone_with_a_line_reports_its_lineality():
    cone = RationalCone.from_generators([(1, 0), (-1, 0), (0, 1)])
    assert cone.lineality == ((1, 0),)
    assert cone.rays == ((0, 1),)


def test_slice_of_triangle_is_segment():
    tri = RationalPolytope.from_points(UNIT_TRIANGLE)
    seg = tri.sliced([((1, 0), Fraction(1, 2))])
    assert sorted(seg.vertices) == [(Fraction(1, 2), 0),
                                    (Fraction(1, 2), Fraction(1, 2))]


def test_slice_can_be_empty():
    tri = RationalPolytope.from_points(UNIT_TRIANGLE)
    empty = tri.sliced([((1, 0), Fraction(7))])
    assert not empty.vertices


def test_lattice_points_of_triangle_dilates():
    for k in range(1, 6):
        dil = RationalPolytope.from_points([(0, 0), (k, 0), (0, k)])
        assert len(dil.lattice_points()) == (k + 1) * (k + 2) // 2


def test_lattice_points_at_half_integer_grid():
    tri = RationalPolytope.from_points(UNIT_TRIANGLE)
    assert len(tri.lattice_points(denominator=2)) == 6


@st.composite
def point_sets(draw, dim):
    """Small integer point sets whose affine span has any dimension up to
    dim, so collinear and coplanar sets (hulls with equations) come up as
    well as full-dimensional ones."""
    span = draw(st.one_of(st.just(dim), st.integers(0, dim - 1)))
    unit = st.integers(-1, 1)
    base = draw(st.tuples(*[unit] * dim))
    directions = [draw(st.tuples(*[unit] * dim).filter(any))
                  for _ in range(span)]
    points = []
    for _ in range(draw(st.integers(span + 1, 8))):
        steps = [draw(unit) for _ in range(span)]
        points.append(tuple(
            b + sum(s * d[i] for s, d in zip(steps, directions))
            for i, b in enumerate(base)))
    return points


def brute_force_lattice_points(polytope, k):
    """Every point of (1/k) Z^n in the bounding box, filtered by contains;
    none for the empty polytope."""
    if polytope.is_empty:
        return []
    ranges = []
    for i in range(polytope.ambient):
        values = [v[i] * k for v in polytope.vertices]
        ranges.append(range(math.floor(min(values)),
                            math.ceil(max(values)) + 1))
    grid = (tuple(Fraction(c, k) for c in combo)
            for combo in itertools.product(*ranges))
    return sorted(p for p in grid if polytope.contains(p))


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=30)
@given(data=st.data(), k=st.integers(1, 4))
def test_lattice_points_match_brute_force(dim, data, k):
    polytope = RationalPolytope.from_points(data.draw(point_sets(dim)))
    assert polytope.lattice_points(k) == \
        brute_force_lattice_points(polytope, k)


@st.composite
def rational_point_sets(draw, dim):
    """point_sets scaled by 1/q and shifted by a fixed offset, so that the
    points, and the equations of their span, have Fraction entries; q = 1
    with no shift keeps the plain ints."""
    points = draw(point_sets(dim))
    q = draw(st.integers(1, 3))
    shift = draw(st.tuples(*[st.sampled_from(
        [0, Fraction(1, 2), Fraction(-1, 3)])] * dim))
    if q == 1 and not any(shift):
        return points
    return [tuple(Fraction(x, q) + c for x, c in zip(p, shift))
            for p in points]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@settings(max_examples=40)
@given(data=st.data())
def test_one_sweep_vertices_match_two_sweeps(dim, data):
    """The vertices read off the tight-facet masks of one sweep are those
    of the second sweep over the facets, for int and Fraction points, with
    repeats, on sets whose affine span has any dimension up to dim, and
    on single points."""
    points = data.draw(st.one_of(
        rational_point_sets(dim),
        st.tuples(*[st.integers(-2, 2)] * dim).map(lambda p: [p, p])))
    points += data.draw(st.lists(st.sampled_from(points), max_size=3))
    polytope = RationalPolytope.from_points(points)
    assert list(polytope.vertices) == two_sweep_vertices(points, dim)
    assert all(type(v) is Fraction for vert in polytope.vertices
               for v in vert)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@settings(max_examples=30)
@given(data=st.data(), k=st.integers(1, 4))
def test_lattice_point_count_matches_the_listing(dim, data, k):
    """Counting the points of a dilation off the last coordinate's
    interval gives the length of the listing and of the brute-force
    filter of the bounding box, on hulls with Fraction vertices and with
    equations, and on slices whose equations pin the last coordinate at
    values that need not be integers."""
    polytope = RationalPolytope.from_points(
        data.draw(rational_point_sets(dim)))
    count = polytope.lattice_point_count(k)
    assert count == len(polytope.lattice_points(k))
    assert count == len(brute_force_lattice_points(polytope, k))
    if dim > 1:
        coeffs = data.draw(st.tuples(*[st.integers(-1, 2)] * dim))
        value = data.draw(st.sampled_from([0, 1, Fraction(1, 2)]))
        sliced = polytope.sliced([(coeffs, value)])
        count = sliced.lattice_point_count(k)
        assert count == len(sliced.lattice_points(k))
        assert count == len(brute_force_lattice_points(sliced, k))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@settings(max_examples=40)
@given(data=st.data())
def test_lattice_volume_matches_the_direction_lattice(dim, data):
    """The lattice volume taken in the integer kernel of the equation
    normals equals the one taken in the saturated lattice of the
    directions from the first vertex, on int and Fraction point sets
    whose affine span has any dimension up to dim, single points
    included."""
    points = data.draw(st.one_of(point_sets(dim), rational_point_sets(dim)))
    polytope = RationalPolytope.from_points(points)
    assert polytope.lattice_volume() == direction_lattice_volume(polytope)
    if polytope.dim() == dim:
        assert polytope.lattice_volume() == polytope.volume()


@pytest.mark.parametrize("rows", [[(0, 1, 0), (0, 0, 1)], [(0, 1, 0)]],
                         ids=["recession-ray", "line"])
def test_unbounded_inequality_systems_are_refused(rows):
    """The quadrant x, y >= 0 has recession rays and the half-plane
    x >= 0 holds a line; neither is a polytope."""
    with pytest.raises(ValidationError,
                       match="^inequality system describes an unbounded "
                             "set$"):
        RationalPolytope.from_inequalities(rows)


def test_lattice_point_count_keeps_the_guard(monkeypatch):
    """Counting refuses the same bounding boxes as listing."""
    square = RationalPolytope.from_points([(0, 0), (3, 0), (0, 3), (3, 3)])
    monkeypatch.setattr(polyhedra, "_LATTICE_POINT_GUARD", 16)
    assert square.lattice_point_count() == 16
    with pytest.raises(Unstable):
        square.lattice_point_count(2)
    with pytest.raises(Unstable):
        square.lattice_points(2)
    with pytest.raises(ValidationError):
        square.lattice_point_count(0)
    assert RationalPolytope.empty(2).lattice_point_count() == 0


def test_polytope_payload_roundtrip():
    tri = RationalPolytope.from_points([(0, 0), (2, 1), (0, 3), (1, 1)])
    payload = polytope_payload(tri)
    back = polytope_from_payload(payload)
    assert sorted(back.vertices) == sorted(tri.vertices)
    assert sorted(back.inequalities) == sorted(tri.inequalities)
    assert back.volume() == tri.volume()


def test_payload_numbers_are_decimal_strings():
    payload = polytope_payload(RationalPolytope.from_points(
        [(Fraction(1, 2), 0), (1, 0), (1, 1)]))

    def leaves(node):
        if isinstance(node, dict):
            for value in node.values():
                yield from leaves(value)
        elif isinstance(node, list):
            for value in node:
                yield from leaves(value)
        else:
            yield node

    values = [leaf for leaf in leaves(payload)
              if not isinstance(leaf, int)]
    assert values and all(isinstance(v, str) for v in values)
    assert all(v.lstrip("-").isdigit() for v in values)
    json.dumps(payload)


def test_corrupted_polytope_payload_fails_roundtrip():
    payload = polytope_payload(RationalPolytope.from_points(UNIT_TRIANGLE))
    bad = json.loads(json.dumps(payload))
    bad["inequalities"][0][0] = "7"
    with pytest.raises(VerificationFailure):
        polytope_from_payload(bad)


def test_malformed_polytope_payload_is_rejected():
    with pytest.raises(ValidationError):
        polytope_from_payload({"ambient": 2})
    payload = polytope_payload(RationalPolytope.from_points(UNIT_TRIANGLE))
    bad = json.loads(json.dumps(payload))
    bad["vertices"][0][0] = ["1.5", "1"]
    with pytest.raises(ValidationError):
        polytope_from_payload(bad)


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=40)
@given(data=st.data())
def test_random_polytope_payloads_roundtrip(dim, data):
    """A hull of random points in [0,5]^d survives its payload, with the
    same vertices, inequalities and equations."""
    points = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * dim),
                                min_size=1, max_size=8))
    polytope = RationalPolytope.from_points(points)
    back = polytope_from_payload(json.loads(json.dumps(
        polytope_payload(polytope))))
    assert back == polytope
    assert back.inequalities == polytope.inequalities
    assert back.equations == polytope.equations

