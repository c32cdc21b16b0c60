"""Greedy covering, the triangulation fallback and cover verification."""

import math

import pytest

from convexcover import (
    ConvexPolygon,
    PolygonWithHoles,
    build_arrangement,
    greedy_cover,
    pt,
    triangulate,
    verify_cover,
)
from convexcover.exact_geom import clip_convex


def test_convex_instances_need_one_piece(square4, triangle):
    for poly in (square4, triangle):
        sol = greedy_cover(poly)
        assert len(sol.pieces) == 1
        assert sol.pieces[0].ring == poly.outer
        assert sol.algorithm == "greedy-cover"
        assert not sol.fallback_used
        assert sol.gains == [sol.face_count]


def test_lshape_cover_is_two_rectangles(lshape):
    sol = greedy_cover(lshape)
    # the reflex corner proposes both of its pieces in one greedy round
    assert len(sol.pieces) == 2
    assert sol.iterations == 1
    assert sol.gains == [12]
    assert sol.face_count == 12
    assert verify_cover(lshape, None, sol.pieces).ok


def test_holed_square_cover_needs_four(holed_square):
    sol = greedy_cover(holed_square)
    assert len(sol.pieces) == 4
    assert verify_cover(holed_square, None, sol.pieces).ok
    assert sol.gains == sorted(sol.gains, reverse=True)


def test_gains_are_monotone_nonincreasing(corpus_sample):
    # greedy always takes a maximum-gain piece, so recorded gains decline
    for name, poly in corpus_sample:
        sol = greedy_cover(poly)
        assert sol.gains == sorted(sol.gains, reverse=True), name


def test_max_iters_forces_triangulation_fallback(holed_square):
    sol = greedy_cover(holed_square, max_iters=1)
    assert sol.fallback_used
    assert sol.algorithm == "triangulation"
    assert len(sol.pieces) == 8
    assert verify_cover(holed_square, None, sol.pieces).ok


def test_cover_respects_log_bound_on_fixtures(square4, triangle, lshape,
                                              holed_square):
    for poly, opt in ((square4, 1), (triangle, 1), (lshape, 2), (holed_square, 4)):
        sol = greedy_cover(poly)
        arr = build_arrangement(poly)
        assert len(sol.pieces) <= (math.log(arr.face_count()) + 1) * opt
        n, h = poly.vertex_count(), poly.hole_count()
        assert len(sol.pieces) <= n + 2 * h - 2


def test_triangulate_counts(triangle, lshape, holed_square):
    assert len(triangulate(triangle)) == 1
    assert len(triangulate(lshape)) == 4
    assert len(triangulate(holed_square)) == 8


def test_triangulate_area_partition(triangle, lshape, holed_square, corpus_sample):
    polys = [triangle, lshape, holed_square] + [p for _, p in corpus_sample]
    for poly in polys:
        tris = triangulate(poly)
        n, h = poly.vertex_count(), poly.hole_count()
        assert len(tris) == n + 2 * h - 2
        assert sum(t.area() for t in tris) == poly.area()
        # triangles tile: pairwise intersections have zero area
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                assert clip_convex(tris[i].ring, tris[j].ring) is None


def test_triangulate_corners_are_polygon_vertices(holed_square):
    verts = set(holed_square.vertices())
    for t in triangulate(holed_square):
        assert set(t.ring) <= verts


def test_verify_cover_accepts_valid(lshape):
    sol = greedy_cover(lshape)
    arr = build_arrangement(lshape)
    for prebuilt in (arr, None):
        report = verify_cover(lshape, prebuilt, sol.pieces)
        assert report.ok
        assert report.convex_ok and report.containment_ok and report.coverage_ok
        assert report.messages == []


def test_verify_cover_flags_gap(lshape):
    # only the lower rectangle: the upper leg is uncovered
    lower = ConvexPolygon([pt(0, 0), pt(2, 0), pt(2, 1), pt(0, 1)])
    report = verify_cover(lshape, None, [lower])
    assert not report.ok
    assert not report.coverage_ok
    assert report.convex_ok and report.containment_ok
    assert any("uncovered" in m for m in report.messages)


def test_verify_cover_flags_escape(lshape):
    # convex, but pokes outside the region
    big = ConvexPolygon([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)])
    report = verify_cover(lshape, None, [big])
    assert not report.containment_ok
    assert not report.ok


def test_verify_cover_flags_hole_swallow(holed_square):
    # every edge stays in the closed region, yet the piece covers the hole
    full = ConvexPolygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    report = verify_cover(holed_square, None, [full])
    assert not report.containment_ok
    assert not report.ok


def test_verify_cover_flags_empty(lshape):
    report = verify_cover(lshape, None, [])
    assert not report.ok
    assert not report.coverage_ok


def test_corpus_covers_verify(corpus_sample):
    for name, poly in corpus_sample:
        sol = greedy_cover(poly)
        assert not sol.fallback_used, name
        assert verify_cover(poly, None, sol.pieces).ok, name
