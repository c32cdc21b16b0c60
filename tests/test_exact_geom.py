"""Predicates and primitives: everything here is checked exactly."""

from fractions import Fraction

from functools import cmp_to_key

import pytest

from convexcover.errors import InvalidPolygonError
from convexcover.exact_geom import (
    COLLINEAR,
    LEFT,
    RIGHT,
    ConvexPolygon,
    GeometryError,
    Location,
    Point,
    PolygonWithHoles,
    Segment,
    ccw_compare_from,
    clip_convex,
    convex_hull,
    line_intersection,
    normalize_convex_ring,
    on_segment,
    orientation,
    point_at,
    point_in_convex,
    point_location,
    primitive_direction,
    pt,
    rat,
    ring_area,
    ring_location,
    segment_in_polygon,
    segment_intersection,
    segment_param,
)


def test_rat_accepts_ints_fractions_and_strings():
    assert rat(3) == Fraction(3)
    assert rat("7/2") == Fraction(7, 2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_rat_rejects_floats_and_garbage():
    with pytest.raises(GeometryError):
        rat(0.1)
    with pytest.raises(GeometryError):
        rat("3/0")
    with pytest.raises(GeometryError):
        rat("zebra")


def test_point_arithmetic():
    a, b = pt(1, 2), pt(3, "1/2")
    assert a + b == pt(4, "5/2")
    assert b - a == pt(2, "-3/2")
    assert a.scaled(Fraction(1, 2)) == pt("1/2", 1)
    assert a.cross(b) == Fraction(1, 2) - 6
    assert a.dot(b) == 4


def test_orientation_signs():
    assert orientation(pt(0, 0), pt(1, 0), pt(1, 1)) == LEFT
    assert orientation(pt(0, 0), pt(1, 0), pt(1, -1)) == RIGHT
    assert orientation(pt(0, 0), pt(1, 1), pt(3, 3)) == COLLINEAR


def test_orientation_is_antisymmetric_in_last_two_args():
    p, q, r = pt(0, 0), pt(5, 1), pt(2, 7)
    assert orientation(p, q, r) == -orientation(p, r, q)


def test_on_segment_boundary_and_off():
    s = Segment(pt(0, 0), pt(4, 2))
    assert on_segment(pt(2, 1), s)
    assert on_segment(pt(0, 0), s)
    assert on_segment(pt(4, 2), s)
    assert not on_segment(pt(6, 3), s)       # collinear but outside
    assert not on_segment(pt(2, 2), s)


def test_segment_param_and_point_at_roundtrip():
    s = Segment(pt(1, 1), pt(5, 3))
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
        assert segment_param(point_at(s, t), s) == t
    with pytest.raises(GeometryError):
        segment_param(pt(0, 0), Segment(pt(2, 2), pt(2, 2)))


def test_line_intersection():
    x = line_intersection(pt(0, 0), pt(1, 1), pt(0, 2), pt(1, -1))
    assert x == pt(1, 1)
    assert line_intersection(pt(0, 0), pt(1, 1), pt(0, 1), pt(2, 2)) is None


def test_segment_intersection_point_contact():
    a = Segment(pt(0, 0), pt(4, 4))
    b = Segment(pt(0, 4), pt(4, 0))
    assert segment_intersection(a, b) == pt(2, 2)
    # endpoint touch still reports the point
    c = Segment(pt(4, 4), pt(8, 0))
    assert segment_intersection(a, c) == pt(4, 4)


def test_segment_intersection_disjoint_and_parallel():
    a = Segment(pt(0, 0), pt(4, 0))
    assert segment_intersection(a, Segment(pt(0, 1), pt(4, 1))) is None
    assert segment_intersection(a, Segment(pt(5, 0), pt(9, 0))) is None
    assert segment_intersection(a, Segment(pt(1, 1), pt(2, 3))) is None


def test_segment_intersection_collinear_overlap():
    a = Segment(pt(0, 0), pt(4, 0))
    x = segment_intersection(a, Segment(pt(2, 0), pt(6, 0)))
    assert isinstance(x, Segment)
    assert {x.a, x.b} == {pt(2, 0), pt(4, 0)}
    # overlap that degenerates to a single shared endpoint
    assert segment_intersection(a, Segment(pt(4, 0), pt(9, 0))) == pt(4, 0)


def test_ring_area_sign_and_value():
    sq = (pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2))
    assert ring_area(sq) == 4
    assert ring_area(tuple(reversed(sq))) == -4


def test_primitive_direction():
    assert primitive_direction(pt(4, -6)) == (2, -3)
    assert primitive_direction(pt("1/2", "1/3")) == (3, 2)
    with pytest.raises(GeometryError):
        primitive_direction(pt(0, 0))


def test_ccw_direction_sort_starts_at_base():
    base = pt(1, 0)
    dirs = [pt(0, -1), pt(-1, 0), pt(1, 1), pt(1, 0), pt(0, 1)]
    assert sorted(dirs, key=cmp_to_key(ccw_compare_from(base))) == [
        pt(1, 0), pt(1, 1), pt(0, 1), pt(-1, 0), pt(0, -1)]


def test_angle_within_closed_cone():
    # d lies in the closed ccw cone from base to limit iff cmp(d, limit) <= 0
    within = ccw_compare_from(pt(1, 0))
    assert within(pt(1, 1), pt(0, 1)) <= 0
    assert within(pt(0, 1), pt(0, 1)) <= 0
    assert not within(pt(-1, 1), pt(0, 1)) <= 0


def test_ccw_compare_is_a_total_order_on_distinct_directions():
    cmp = ccw_compare_from(pt(1, 0))
    dirs = [pt(1, 0), pt(2, 1), pt(0, 1), pt(-3, 1), pt(-1, -1), pt(0, -2)]
    for i, d1 in enumerate(dirs):
        for d2 in dirs[i + 1:]:
            assert cmp(d1, d2) == -cmp(d2, d1) != 0


def test_normalize_convex_ring_merges_and_rotates():
    ring = [pt(2, 0), pt(2, 2), pt(1, 2), pt(0, 2), pt(0, 0), pt(1, 0)]
    assert normalize_convex_ring(ring) == (pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2))


def test_normalize_convex_ring_rejects_nonconvex_and_degenerate():
    assert normalize_convex_ring([pt(0, 0), pt(2, 0), pt(2, 2),
                                  pt(1, 1), pt(0, 2)]) is None
    assert normalize_convex_ring([pt(0, 0), pt(1, 1), pt(2, 2)]) is None
    assert normalize_convex_ring([pt(0, 0), pt(1, 0), pt(1, 0)]) is None


def test_normalize_convex_ring_rejects_double_winding():
    # all left turns, but wraps the origin twice
    ring = [pt(2, 0), pt(-1, 2), pt(-1, -2), pt(2, 1), pt(-2, 1), pt(1, -2)]
    n = len(ring)
    assert all(orientation(ring[i - 1], ring[i], ring[(i + 1) % n]) == LEFT
               for i in range(n))
    assert normalize_convex_ring(ring) is None


def test_clip_convex_squares():
    a = (pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4))
    b = (pt(2, 2), pt(6, 2), pt(6, 6), pt(2, 6))
    assert clip_convex(a, b) == (pt(2, 2), pt(4, 2), pt(4, 4), pt(2, 4))
    # edge contact has zero area and counts as empty
    c = (pt(4, 0), pt(8, 0), pt(8, 4), pt(4, 4))
    assert clip_convex(a, c) is None
    d = (pt(10, 10), pt(11, 10), pt(11, 11))
    assert clip_convex(a, d) is None


def test_clip_convex_subset():
    a = (pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4))
    b = (pt(1, 1), pt(2, 1), pt(2, 2), pt(1, 2))
    assert clip_convex(a, b) == b
    assert clip_convex(b, a) == b


def test_convex_hull_canonical():
    pts = [pt(0, 0), pt(4, 0), pt(4, 4), pt(2, 2), pt(0, 4), pt(2, 1)]
    assert convex_hull(pts) == (pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4))
    assert convex_hull([pt(0, 0), pt(1, 1), pt(2, 2)]) is None


def test_point_in_convex_closed_vs_strict():
    tri = (pt(0, 0), pt(4, 0), pt(0, 4))
    assert point_in_convex(pt(1, 1), tri)
    assert point_in_convex(pt(2, 0), tri)
    assert not point_in_convex(pt(3, 3), tri)


def test_polygon_validation_rejects_bad_rings():
    with pytest.raises(InvalidPolygonError):
        PolygonWithHoles((pt(0, 0), pt(1, 0)))
    with pytest.raises(InvalidPolygonError):
        PolygonWithHoles((pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)))  # bowtie
    with pytest.raises(InvalidPolygonError):
        PolygonWithHoles((pt(0, 4), pt(4, 4), pt(4, 0), pt(0, 0)))  # clockwise
    with pytest.raises(InvalidPolygonError):
        PolygonWithHoles((pt(0, 0), pt(2, 0), pt(4, 0), pt(0, 4)))  # collinear
    with pytest.raises(InvalidPolygonError):
        PolygonWithHoles((pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2), pt(0, 0)))


def test_polygon_validation_rejects_bad_holes():
    outer = (pt(0, 0), pt(8, 0), pt(8, 8), pt(0, 8))
    with pytest.raises(InvalidPolygonError):
        # counterclockwise hole
        PolygonWithHoles(outer, ((pt(1, 1), pt(3, 1), pt(3, 3), pt(1, 3)),))
    with pytest.raises(InvalidPolygonError):
        # hole touching the outer ring
        PolygonWithHoles(outer, ((pt(0, 0), pt(1, 3), pt(3, 1)),))
    with pytest.raises(InvalidPolygonError):
        # overlapping holes
        PolygonWithHoles(outer, (
            (pt(1, 1), pt(1, 4), pt(4, 4), pt(4, 1)),
            (pt(3, 3), pt(3, 6), pt(6, 6), pt(6, 3)),
        ))


def test_polygon_counts_and_area(holed_square):
    assert holed_square.vertex_count() == 8
    assert holed_square.hole_count() == 1
    assert holed_square.area() == 12
    assert ring_area(holed_square.holes[0]) == -4


def test_polygon_reflex_classification(lshape, holed_square):
    assert lshape.is_reflex(pt(1, 1))
    assert not lshape.is_reflex(pt(0, 0))
    # every hole corner of the square annulus is reflex
    assert all(holed_square.is_reflex(v) for v in holed_square.holes[0])


def test_point_location(holed_square):
    assert point_location(pt("1/2", "1/2"), holed_square) is Location.INTERIOR
    assert point_location(pt(2, 2), holed_square) is Location.EXTERIOR   # in the hole
    assert point_location(pt(1, 2), holed_square) is Location.BOUNDARY   # hole edge
    assert point_location(pt(0, 0), holed_square) is Location.BOUNDARY
    assert point_location(pt(5, 5), holed_square) is Location.EXTERIOR


def test_segment_in_polygon(lshape, holed_square):
    assert segment_in_polygon(Segment(pt(0, 0), pt(2, 0)), lshape)
    assert segment_in_polygon(Segment(pt(0, 2), pt(2, 0)), lshape)
    assert not segment_in_polygon(Segment(pt(2, 1), pt(1, 2)), lshape)
    assert not segment_in_polygon(Segment(pt(0, 0), pt(4, 4)), holed_square)
    # grazing the hole along its edge stays inside the closed region
    assert segment_in_polygon(Segment(pt(0, 1), pt(4, 1)), holed_square)


def test_ring_location_handles_collinear_runs():
    ring = (pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 2), pt(0, 2))
    assert ring_location(pt(1, 0), ring) is Location.BOUNDARY
    assert ring_location(pt(1, 1), ring) is Location.INTERIOR
    assert ring_location(pt(3, 1), ring) is Location.EXTERIOR


def test_convex_polygon_canonical_form_and_queries():
    poly = ConvexPolygon([pt(4, 0), pt(4, 4), pt(0, 4), pt(0, 0), pt(2, 0)])
    assert poly.ring == (pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4))
    assert poly.area() == 16
    assert poly.contains(pt(4, 2))
    assert poly == ConvexPolygon(poly.ring)
    with pytest.raises(InvalidPolygonError):
        ConvexPolygon([pt(0, 0), pt(2, 0), pt(2, 2), pt(1, 1), pt(0, 2)])
