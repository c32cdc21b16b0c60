"""Visibility polygons from boundary vertices, with window classification."""

from convexcover import PolygonWithHoles, pt
from convexcover.exact_geom import (
    COLLINEAR,
    Segment,
    on_segment,
    orientation,
    ring_area,
    segment_in_polygon,
)
from convexcover.visibility import visibility_polygon


def window_edges(vp, poly):
    """Indices of ring edges that lie inside no polygon edge."""
    n = len(vp.ring)
    return tuple(i for i in range(n)
                 if not any(on_segment(vp.ring[i], e) and on_segment(vp.ring[(i + 1) % n], e)
                            for e in poly.boundary_edges()))


def test_convex_vertex_sees_everything(square4, triangle):
    for poly in (square4, triangle):
        for v in poly.outer:
            vp = visibility_polygon(poly, v)
            assert vp.anchor == v
            assert vp.ring[0] == v
            assert set(vp.ring) == set(poly.outer)
            assert window_edges(vp, poly) == ()
            assert ring_area(vp.ring) == poly.area()


def test_lshape_convex_corner_sees_all(lshape):
    vp = visibility_polygon(lshape, pt(0, 0))
    assert vp.ring == (pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2))
    assert window_edges(vp, lshape) == ()


def test_lshape_occluded_corner(lshape):
    vp = visibility_polygon(lshape, pt(2, 0))
    assert vp.ring == (pt(2, 0), pt(2, 1), pt(1, 1), pt(0, 2), pt(0, 0))
    assert window_edges(vp, lshape) == (2,)
    wa, wb = vp.ring[2], vp.ring[3]
    assert (wa, wb) == (pt(1, 1), pt(0, 2))
    # a window edge is always collinear with the anchor
    assert orientation(vp.anchor, wa, wb) == COLLINEAR


def test_lshape_reflex_corner_sees_all(lshape):
    vp = visibility_polygon(lshape, pt(1, 1))
    assert set(vp.ring) == set(lshape.outer)
    assert window_edges(vp, lshape) == ()


def test_holed_square_hole_corner(holed_square):
    vp = visibility_polygon(holed_square, pt(1, 1))
    assert vp.ring == (pt(1, 1), pt(1, 4), pt(0, 4), pt(0, 0), pt(4, 0), pt(4, 1))
    assert window_edges(vp, holed_square) == (0, 5)


def test_holed_square_outer_corner(holed_square):
    vp = visibility_polygon(holed_square, pt(0, 0))
    assert vp.ring == (pt(0, 0), pt(4, 0), pt(4, "4/3"), pt(3, 1),
                       pt(1, 1), pt(1, 3), pt("4/3", 4), pt(0, 4))
    assert window_edges(vp, holed_square) == (2, 5)


def test_visibility_ring_is_star_shaped(lshape, holed_square, corpus_sample):
    polys = [lshape, holed_square] + [p for _, p in corpus_sample[:4]]
    for poly in polys:
        for v in poly.vertices():
            vp = visibility_polygon(poly, v)
            assert 0 < ring_area(vp.ring) <= poly.area()
            for p in vp.ring:
                assert segment_in_polygon(Segment(v, p), poly), (v, p)


def test_window_edges_are_collinear_with_anchor(holed_square, corpus_sample):
    polys = [holed_square] + [p for _, p in corpus_sample[:4]]
    for poly in polys:
        for v in poly.vertices():
            vp = visibility_polygon(poly, v)
            n = len(vp.ring)
            for i in window_edges(vp, poly):
                a, b = vp.ring[i], vp.ring[(i + 1) % n]
                assert orientation(v, a, b) == COLLINEAR
