"""Largest convex region avoiding rotten parts, within a factor four."""

import random
from fractions import Fraction

import pytest

from convexcover import PolygonWithHoles, pt
from convexcover.errors import PreconditionViolation
from convexcover.exact_geom import clip_convex, convex_hull, ring_area
from convexcover.oracle import sample_inscribed_convex
from convexcover.rotten import RottenSet, good_area_of_triangle, rotten_potato_peel


DIAMOND = ((pt(2, 1), pt(3, 2), pt(2, 3), pt(1, 2)),)


def test_rotten_set_build_triangulates_regions(square4):
    rs = RottenSet.build(square4, DIAMOND)
    assert rs.regions == DIAMOND
    assert len(rs.triangles) == 2
    assert rs.good_area_of(square4.outer) == 14


def test_rotten_set_rejects_region_leaving_polygon(square4):
    with pytest.raises(PreconditionViolation):
        RottenSet.build(square4, [(pt(3, 3), pt(5, 3), pt(5, 5), pt(3, 5))])


def test_rotten_set_rejects_overlapping_regions(square4):
    with pytest.raises(PreconditionViolation):
        RottenSet.build(square4, [
            (pt(1, 1), pt(3, 1), pt(3, 3), pt(1, 3)),
            (pt(2, 2), pt(3, 2), pt(3, 3)),
        ])


def test_rotten_set_rejects_region_covering_hole(holed_square):
    with pytest.raises(PreconditionViolation):
        RottenSet.build(holed_square, [(pt("1/2", "1/2"), pt("7/2", "1/2"),
                                        pt("7/2", "7/2"), pt("1/2", "7/2"))])


def test_rotten_set_rejects_degenerate_region(square4):
    with pytest.raises(PreconditionViolation):
        RottenSet.build(square4, [(pt(1, 1), pt(2, 2), pt(3, 3))])


def test_good_area_of_triangle_matches_clipping(square4):
    rs = RottenSet.build(square4, DIAMOND)
    corners = (pt(0, 0), pt(4, 0), pt(2, 2))
    # triangle area 4, overlapping the diamond in the rotated unit
    # square (2,1)(5/2,3/2)(2,2)(3/2,3/2) of area 1/2
    assert good_area_of_triangle(corners, rs) == Fraction(7, 2)


def test_peel_empty_rotten_returns_best_anchored_region(square4, lshape):
    sol = rotten_potato_peel(square4, [])
    assert sol.value == 16
    assert sol.polygon.ring == square4.outer
    sol = rotten_potato_peel(lshape, [])
    assert sol.value == 2
    assert sol.polygon.ring == (pt(0, 0), pt(2, 0), pt(2, 1), pt(0, 1))


def test_peel_square_with_diamond(square4):
    sol = rotten_potato_peel(square4, DIAMOND)
    # the whole square keeps 16 - 2 good area; nothing beats it
    assert sol.value == 14
    assert sol.polygon.ring == square4.outer
    assert sol.vertex_index == 0
    assert sol.algorithm == "rotten-peel"


def test_peel_accepts_prebuilt_rotten_set(square4):
    rs = RottenSet.build(square4, DIAMOND)
    assert rotten_potato_peel(square4, rs).value == 14


def test_peel_holed_square_with_corner_rot(holed_square):
    sol = rotten_potato_peel(holed_square, [(pt(0, 0), pt(1, 0), pt(1, 1))])
    assert sol.value == 4
    assert sol.polygon.ring == (pt(3, 0), pt(4, 0), pt(4, 4), pt(3, 4))


def test_peel_value_equals_independent_recomputation(square4, holed_square):
    cases = [
        (square4, DIAMOND),
        (square4, ((pt(0, 0), pt(2, 0), pt(1, 1)),)),
        (holed_square, ((pt(0, 0), pt(1, 0), pt(1, 1)),)),
    ]
    for poly, regions in cases:
        rs = RottenSet.build(poly, regions)
        sol = rotten_potato_peel(poly, rs)
        assert sol.value == rs.good_area_of(sol.polygon.ring)


def test_quarter_bound_against_samples(square4, holed_square):
    cases = [
        (square4, DIAMOND, 11),
        (holed_square, ((pt(0, 0), pt(1, 0), pt(1, 1)),), 13),
    ]
    for poly, regions, seed in cases:
        rs = RottenSet.build(poly, regions)
        sol = rotten_potato_peel(poly, rs)
        for sample in sample_inscribed_convex(poly, seed, 50):
            good = rs.good_area_of(sample.ring)
            assert sol.value >= Fraction(1, 4) * good, sample.ring


BOX = PolygonWithHoles((pt(-20, -20), pt(20, -20), pt(20, 20), pt(-20, 20)))


def clipped_good_area(rs, ring):
    """The Fraction reference: ring area minus each clipped overlap."""
    total = ring_area(ring)
    for tri in rs.triangles:
        overlap = clip_convex(ring, tri)
        if overlap is not None:
            total -= ring_area(overlap)
    return total


def random_convex(rng, corners):
    while True:
        ring = convex_hull([pt(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12))) / 4,
                               Fraction(rng.randint(-40, 40), rng.choice((1, 4, 5, 9))) / 4)
                            for _ in range(corners)])
        if ring is not None:
            return ring


def test_good_area_matches_fraction_clipping_on_random_pairs():
    rng = random.Random(5)
    partial = 0
    for _ in range(500):
        ring = random_convex(rng, rng.randint(3, 7))
        rs = RottenSet.build(BOX, [random_convex(rng, rng.randint(3, 5))])
        good = rs.good_area_of(ring)
        assert good == clipped_good_area(rs, ring), (ring, rs.regions)
        partial += 0 < good < ring_area(ring)
    # most pairs overlap in part, so the crossings are exercised
    assert partial >= 200


@pytest.mark.parametrize("subject, rotten, good", [
    # shared edge
    ((pt(0, 0), pt(4, 0), pt(0, 4)), (pt(4, 0), pt(4, 4), pt(0, 4)), 8),
    # a rotten vertex on the subject's edge, from outside
    ((pt(0, 0), pt(4, 0), pt(2, 2)), (pt(1, -2), pt(3, -2), pt(2, 0)), 4),
    # a subject vertex on the rotten triangle's edge, from outside
    ((pt(1, 2), pt(3, 2), pt(2, 4)), (pt(0, 0), pt(4, 0), pt(2, 2)), 2),
    # collinear overlapping edges, interiors on opposite sides
    ((pt(0, 0), pt(4, 0), pt(2, 3)), (pt(2, 0), pt(5, -2), pt(6, 0)), 6),
    # collinear overlapping edges, interiors on the same side
    ((pt(0, 0), pt(4, 0), pt(0, 4)), (pt(2, 0), pt(6, 0), pt(2, 4)), 6),
    # identical triangles
    ((pt(0, 0), pt(Fraction(7, 3), 0), pt(1, Fraction(5, 2))),
     (pt(0, 0), pt(Fraction(7, 3), 0), pt(1, Fraction(5, 2))), 0),
    # subject inside the rotten triangle, touching two of its edges
    ((pt(0, 0), pt(2, 0), pt(0, 2)), (pt(0, 0), pt(6, 0), pt(0, 6)), 0),
    # rotten triangle strictly inside the subject
    ((pt(0, 0), pt(6, 0), pt(0, 6)), (pt(1, 1), pt(2, 1), pt(1, Fraction(5, 2))),
     Fraction(69, 4)),
    # disjoint
    ((pt(0, 0), pt(1, 0), pt(0, 1)), (pt(5, 5), pt(6, 5), pt(5, 6)), Fraction(1, 2)),
])
def test_good_area_on_degenerate_pairs(subject, rotten, good):
    rs = RottenSet.build(BOX, [rotten])
    assert rs.good_area_of(subject) == clipped_good_area(rs, subject) == good
