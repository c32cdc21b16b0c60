"""Diagonal extensions and the face subdivision they induce."""

from fractions import Fraction

import pytest

from convexcover import (
    ConvexPolygon,
    PolygonWithHoles,
    build_arrangement,
    diagonal_extensions,
    pt,
)
from convexcover.arrangement import extend_within, mark_covered
from convexcover.errors import PreconditionViolation
from convexcover.exact_geom import Segment, point_location, Location, segment_param


def test_square_counts(square4):
    arr = build_arrangement(square4)
    assert len(arr.extensions) == 6
    assert len(arr.vertices) == 5
    assert arr.face_count() == 4


def test_triangle_counts(triangle):
    arr = build_arrangement(triangle)
    assert len(arr.extensions) == 3
    assert len(arr.vertices) == 3
    assert arr.face_count() == 1


def test_lshape_counts(lshape):
    arr = build_arrangement(lshape)
    assert (len(arr.extensions), len(arr.vertices),
            len(arr.edges), arr.face_count()) == (10, 12, 23, 12)


def test_holed_square_counts(holed_square):
    arr = build_arrangement(holed_square)
    assert (len(arr.extensions), len(arr.vertices),
            len(arr.edges), arr.face_count()) == (20, 44, 92, 48)


def test_vertices_contain_polygon_vertices_and_are_sorted(lshape):
    arr = build_arrangement(lshape)
    for v in lshape.vertices():
        assert v in arr.vertex_ids
    assert arr.vertices == sorted(arr.vertices)
    assert all(arr.vertices[arr.vertex_ids[v]] == v for v in arr.vertices)


def test_faces_partition_the_polygon(corpus_sample):
    for name, poly in corpus_sample:
        arr = build_arrangement(poly)
        assert sum(f.area for f in arr.faces) == poly.area(), name
        assert all(f.area > 0 for f in arr.faces), name
        assert all(point_location(f.rep, poly) is Location.INTERIOR
                   for f in arr.faces), name


def test_square_face_geometry(square4):
    arr = build_arrangement(square4)
    assert all(f.area == 4 for f in arr.faces)
    assert all(pt(2, 2) in f.ring for f in arr.faces)


def test_extensions_stay_inside_and_cover_their_generators(corpus_sample):
    for name, poly in corpus_sample:
        for ext in diagonal_extensions(poly):
            seg = ext.segment
            assert ext.generators, name
            for u, v in ext.generators:
                d = seg.direction()
                assert d.cross(u - seg.a) == 0 and d.cross(v - seg.a) == 0


def test_extend_within_edge_prolongation(lshape):
    # the notch edge extends through the reflex corner to the far wall
    assert extend_within(lshape, pt(2, 1), pt(1, 1)) == \
        Segment(pt(2, 1), pt(0, 1))
    assert extend_within(lshape, pt(1, 1), pt(1, 2)) == \
        Segment(pt(1, 0), pt(1, 2))


def test_extend_within_rejects_blocked_pair(holed_square):
    with pytest.raises(PreconditionViolation):
        extend_within(holed_square, pt(1, 1), pt(3, 3))


def test_extension_of_hole_edge_spans_the_annulus(holed_square):
    assert extend_within(holed_square, pt(1, 1), pt(1, 3)) == \
        Segment(pt(1, 0), pt(1, 4))


def test_square_diagonal_subedges(square4):
    arr = build_arrangement(square4)
    diag = next(i for i, e in enumerate(arr.extensions)
                if e.segment == Segment(pt(0, 0), pt(4, 4)))
    on = arr.ext_points[diag]
    seg = arr.extensions[diag].segment
    assert [(segment_param(arr.vertices[v], seg), arr.vertices[v]) for v in on] == [
        (Fraction(0), pt(0, 0)),
        (Fraction(1, 2), pt(2, 2)),
        (Fraction(1), pt(4, 4)),
    ]
    assert [arr.ext_position[v][diag] for v in on] == [0, 1, 2]
    a, b = on[0], on[1]
    left, right = arr.halfedge_face[(a, b)], arr.halfedge_face[(b, a)]
    assert left is not None and right is not None and left != right
    # left of (0,0)->(2,2) is the upper-left triangle
    assert pt(0, 4) in arr.faces[left].ring
    assert pt(4, 0) in arr.faces[right].ring


def test_halfedge_faces_are_consistent(square4):
    arr = build_arrangement(square4)
    for a, b in arr.edges:
        fl = arr.halfedge_face.get((a, b))
        fr = arr.halfedge_face.get((b, a))
        assert fl is not None or fr is not None
        assert fl != fr
    for idx, face in enumerate(arr.faces):
        assert tuple(arr.vertices[v] for v in face.vids) == face.ring
        for a, b in zip(face.vids, face.vids[1:] + face.vids[:1]):
            assert arr.halfedge_face[(a, b)] == idx


def test_mark_covered_and_reset(square4):
    arr = build_arrangement(square4)
    assert arr.uncovered_count() == 4
    lower = ConvexPolygon([pt(0, 0), pt(4, 0), pt(2, 2)])
    assert mark_covered(arr, lower) == 1
    assert arr.uncovered_count() == 3
    # covering again gains nothing
    assert mark_covered(arr, lower) == 0
    everything = ConvexPolygon(square4.outer)
    assert mark_covered(arr, everything) == 3
    assert arr.uncovered_count() == 0
    arr.reset_cover()
    assert arr.uncovered_count() == 4
