"""Chords read off the arrangement, cell partitions, subsegment graphs
and path peeling."""

from fractions import Fraction

import pytest

from convexcover import PolygonWithHoles, build_arrangement, pt
from convexcover.arrangement import extend_within
from convexcover.errors import NonConvexClosure, PreconditionViolation
from convexcover.exact_geom import (
    COLLINEAR,
    Location,
    RIGHT,
    Segment,
    orientation,
    ring_area,
    ring_location,
)
from convexcover.oracle import partition_cells
from convexcover.peel_dag import (
    build_anchor_dags,
    cell_partition,
    clip_and_orient,
    heaviest_maximal_path,
    path_polygon,
    reflex_cut_end,
    reflex_split,
    sst_weights,
)
from convexcover.visibility import visibility_polygon


def square_dag(square4):
    arr = build_arrangement(square4)
    dags = build_anchor_dags(square4, arr)
    d0 = next(d for d in dags if d.anchor == pt(0, 0))
    return arr, d0


def test_clip_and_orient_square_diagonals(square4):
    arr = build_arrangement(square4)
    ring = square4.outer
    chords = clip_and_orient(ring, arr)
    assert len(chords) == 6
    segs = {(c.src, c.dst) for c in chords}
    # the antidiagonal is directed by ccw boundary order: (4,0) before (0,4)
    assert (pt(4, 0), pt(0, 4)) in segs
    assert (pt(0, 0), pt(4, 4)) in segs
    for c in chords:
        assert [arr.vertices[v] for v in (c.vids[0], c.vids[-1])] == [c.src, c.dst]
        if c.src == pt(0, 0):
            continue
        pos_src = square4.outer.index(c.src) if c.src in square4.outer else None
        assert pos_src is not None or c.src != c.dst


def test_nodes_are_the_subedges_in_the_closed_region(corpus_sample):
    # the definition: a sub-edge is a node when its midpoint lies in the
    # closed region, and a non-radial node has the anchor on its left
    for name, poly in corpus_sample:
        arr = build_arrangement(poly)
        for d in build_anchor_dags(poly, arr, with_partition=False):
            expected = set()
            for a, b in arr.edges:
                pa, pb = arr.vertices[a], arr.vertices[b]
                mid = pt((pa.x + pb.x) / 2, (pa.y + pb.y) / 2)
                if ring_location(mid, d.ring) is not Location.EXTERIOR:
                    expected.add((a, b))
            got = [tuple(sorted((arr.vertex_ids[n.src], arr.vertex_ids[n.dst])))
                   for n in d.nodes]
            assert sorted(got) == sorted(expected), (name, d.vertex_index, d.piece_tag)
            for n in d.nodes:
                # radial nodes are collinear with the anchor, the rest turn around it
                assert orientation(n.src, n.dst, d.anchor) != RIGHT, \
                    (name, d.vertex_index, n.index)


def test_reflex_piece_keeps_its_spike(corpus):
    # the first piece of s007 at (6,5) ends in a one-dimensional spike
    # down x = 6 that no face of the piece borders; only the walk along
    # the ring keeps its sub-edges as nodes
    name, poly = corpus[7]
    assert name == "s007"
    arr = build_arrangement(poly)
    piece = next(d for d in build_anchor_dags(poly, arr, with_partition=False)
                 if d.anchor == pt(6, 5) and d.piece_tag == 0)
    assert piece.ring == (pt(6, 5), pt(5, 4), pt(6, 3), pt(6, Fraction(4, 3)))
    segs = [(n.src, n.dst) for n in piece.nodes]
    assert (pt(6, 3), pt(6, Fraction(8, 3))) in segs
    assert (pt(6, Fraction(8, 3)), pt(6, Fraction(4, 3))) in segs


def test_reflex_cut_ends_where_the_extension_leaves(lshape, holed_square, corpus_sample):
    # extend_within clips the line uv against the polygon directly
    polys = [("lshape", lshape), ("holed_square", holed_square)] + list(corpus_sample)
    cuts = 0
    for name, poly in polys:
        arr = build_arrangement(poly)
        for v in poly.vertices():
            if poly.is_reflex(v):
                u, _ = poly.neighbors(v)
                assert reflex_cut_end(poly, arr, v) == extend_within(poly, u, v).b, (name, v)
                cuts += 1
    assert cuts > 10


def test_square_anchor_dag_structure(square4):
    arr, d0 = square_dag(square4)
    assert len(d0.chords) == 6
    assert len(d0.nodes) == 8
    assert d0.ring == square4.outer
    by_seg = {(n.src, n.dst): n.index for n in d0.nodes}
    # the two diagonal halves are separate nodes
    assert (pt(0, 0), pt(2, 2)) in by_seg
    assert (pt(2, 2), pt(4, 4)) in by_seg
    assert (pt(4, 0), pt(2, 2)) in by_seg
    assert (pt(2, 2), pt(0, 4)) in by_seg
    # edges demand a shared point and a non-right turn
    for i, succs in enumerate(d0.succ):
        for j in succs:
            assert d0.nodes[i].dst == d0.nodes[j].src
            assert orientation(d0.nodes[i].src, d0.nodes[i].dst,
                               d0.nodes[j].dst) != RIGHT


def test_square_anchor_sst_weights(square4):
    arr, d0 = square_dag(square4)
    d0.partition.assign_face_weights([False] * arr.face_count())
    sst_weights(d0)
    weights = {(n.src, n.dst): n.weight for n in d0.nodes}
    # radial subsegments sweep nothing
    assert weights[(pt(0, 0), pt(4, 0))] == 0
    assert weights[(pt(0, 0), pt(0, 4))] == 0
    assert weights[(pt(0, 0), pt(2, 2))] == 0
    assert weights[(pt(2, 2), pt(4, 4))] == 0
    # each antidiagonal half sweeps one face, each far edge two
    assert weights[(pt(4, 0), pt(2, 2))] == 1
    assert weights[(pt(2, 2), pt(0, 4))] == 1
    assert weights[(pt(4, 0), pt(4, 4))] == 2
    assert weights[(pt(4, 4), pt(0, 4))] == 2


def test_square_heaviest_path_covers_everything(square4):
    arr, d0 = square_dag(square4)
    d0.partition.assign_face_weights([False] * arr.face_count())
    sst_weights(d0)
    path, value = heaviest_maximal_path(d0)
    assert value == 4
    assert path_polygon(d0, path).ring == square4.outer


def test_heaviest_path_with_everything_covered_is_zero(square4):
    arr, d0 = square_dag(square4)
    d0.partition.assign_face_weights([True] * arr.face_count())
    sst_weights(d0)
    path, value = heaviest_maximal_path(d0)
    assert value == 0
    assert path  # a maximal path still exists


def test_cell_partition_square(square4):
    arr, d0 = square_dag(square4)
    part = d0.partition
    cells = partition_cells(part)
    assert len(part.cells) == len(cells) == 4
    assert len(part.rays) == 3
    assert sum(ring_area(c.ring) for c in cells) == square4.area()
    for cell in cells:
        assert cell.apex == pt(0, 0)
        assert 0 <= cell.face < arr.face_count()
    # each face of the square meets exactly one cell of this partition
    assert sorted(part.cells) == [0, 1, 2, 3]
    assert all(cell.designated for cell in cells)


def test_cell_partition_reps_inside_their_face(lshape):
    from convexcover.exact_geom import point_in_convex
    arr = build_arrangement(lshape)
    dags = build_anchor_dags(lshape, arr)
    for d in dags:
        for cell in partition_cells(d.partition):
            face = arr.faces[cell.face]
            assert ring_area(cell.ring) > 0
            assert point_in_convex(cell.rep, face.ring)


def test_cells_partition_visibility_area_on_corpus(corpus_sample):
    for name, poly in corpus_sample[:6]:
        arr = build_arrangement(poly)
        for d in build_anchor_dags(poly, arr):
            total = sum(ring_area(c.ring) for c in partition_cells(d.partition))
            assert total == ring_area(d.ring), (name, d.vertex_index)


def test_path_polygon_rejects_radial_only_path(square4):
    arr, d0 = square_dag(square4)
    radial = next(n.index for n in d0.nodes
                  if n.src == pt(0, 0) and n.dst == pt(0, 4))
    with pytest.raises(NonConvexClosure):
        path_polygon(d0, [radial])


def test_reflex_split_lshape(lshape):
    r1, r2 = reflex_split(lshape, build_arrangement(lshape), pt(1, 1))
    assert r1 == (pt(1, 1), pt(1, 2), pt(0, 2), pt(0, 1))
    assert r2 == (pt(1, 1), pt(0, 1), pt(0, 0), pt(2, 0), pt(2, 1))
    assert ring_area(r1) + ring_area(r2) == lshape.area()


def test_reflex_split_rejects_convex_vertex(lshape):
    with pytest.raises(PreconditionViolation):
        reflex_split(lshape, build_arrangement(lshape), pt(0, 0))


def test_reflex_split_hole_corner(holed_square):
    r1, r2 = reflex_split(holed_square, build_arrangement(holed_square), pt(1, 1))
    areas = sorted((ring_area(r1), ring_area(r2)))
    assert all(a > 0 for a in areas)
    vp = visibility_polygon(holed_square, pt(1, 1))
    assert areas[0] + areas[1] == ring_area(vp.ring)


def test_anchor_dags_one_per_convex_two_per_reflex(lshape, holed_square):
    for poly in (lshape, holed_square):
        arr = build_arrangement(poly)
        dags = build_anchor_dags(poly, arr)
        per_vertex = {}
        for d in dags:
            per_vertex.setdefault(d.vertex_index, []).append(d)
        verts = poly.vertex_list()
        for vi, group in per_vertex.items():
            expected = 2 if poly.is_reflex(verts[vi]) else 1
            assert len(group) == expected, verts[vi]
        assert set(per_vertex) == set(range(len(verts)))


def test_dags_are_acyclic_with_consistent_topo(corpus_sample):
    for name, poly in corpus_sample[:6]:
        arr = build_arrangement(poly)
        for d in build_anchor_dags(poly, arr):
            order = {n: i for i, n in enumerate(d.topo)}
            assert len(order) == len(d.nodes), name
            for i, succs in enumerate(d.succ):
                for j in succs:
                    assert order[i] < order[j], name
