"""Exhaustive-search oracles: path enumeration, naive weights, exact covers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from convexcover import PolygonWithHoles, build_arrangement, pt
from convexcover.errors import CapExceeded
from convexcover.exact_geom import (
    _homog,
    COLLINEAR,
    Segment,
    clip_convex,
    orientation,
    point_in_convex,
    segment_in_polygon,
)
from convexcover.oracle import (
    _sweeps_nothing,
    candidate_family,
    enumerate_maximal_paths,
    exact_min_restricted_cover,
    naive_path_weight,
    naive_sst_weight,
    sample_inscribed_convex,
)
from convexcover.peel_dag import (
    build_anchor_dags,
    heaviest_maximal_path,
    path_polygon,
    sst_weights,
)


def fresh_dags(poly):
    arr = build_arrangement(poly)
    dags = build_anchor_dags(poly, arr)
    nothing = [False] * len(arr.faces)
    for dag in dags:
        dag.partition.assign_face_weights(nothing)
        sst_weights(dag)
    return arr, dags


def anchor_dag(dags, p):
    return next(d for d in dags if d.anchor == p)


class TestEnumerateMaximalPaths:
    def test_square_corner_paths(self, square4):
        _, dags = fresh_dags(square4)
        dag = anchor_dag(dags, pt(0, 0))
        assert enumerate_maximal_paths(dag) == [
            [0],
            [1, 4, 5],
            [1, 7, 6],
            [2, 3, 6],
            [2, 5],
        ]

    def test_paths_run_source_to_sink(self, lshape):
        _, dags = fresh_dags(lshape)
        for dag in dags:
            sources = set(range(len(dag.nodes)))
            for succs in dag.succ:
                sources -= set(succs)
            for path in enumerate_maximal_paths(dag):
                assert path[0] in sources
                assert not dag.succ[path[-1]]
                for a, b in zip(path, path[1:]):
                    assert b in dag.succ[a]

    def test_node_cap(self, square4):
        _, dags = fresh_dags(square4)
        with pytest.raises(CapExceeded):
            enumerate_maximal_paths(dags[0], node_cap=1)

    def test_path_cap(self, square4):
        _, dags = fresh_dags(square4)
        dag = anchor_dag(dags, pt(0, 0))
        with pytest.raises(CapExceeded):
            enumerate_maximal_paths(dag, path_cap=4)
        assert len(enumerate_maximal_paths(dag, path_cap=5)) == 5


class TestNaiveWeights:
    def test_square_corner_path_weights(self, square4):
        # the [0] path hugs the left wall through the anchor: zero sweep
        _, dags = fresh_dags(square4)
        dag = anchor_dag(dags, pt(0, 0))
        expected = {
            (0,): Fraction(0),
            (1, 4, 5): Fraction(2),
            (1, 7, 6): Fraction(4),
            (2, 3, 6): Fraction(2),
            (2, 5): Fraction(1),
        }
        for path, want in expected.items():
            assert naive_path_weight(dag, list(path)) == want
            assert sum(d.weight for d in (dag.nodes[i] for i in path)) == want

    def test_degenerate_radial_path_is_zero(self, square4):
        _, dags = fresh_dags(square4)
        dag = anchor_dag(dags, pt(0, 0))
        node = dag.nodes[0]
        assert orientation(dag.anchor, node.src, node.dst) == COLLINEAR
        assert naive_path_weight(dag, [0]) == 0

    def test_naive_matches_fast_per_node(self, lshape, holed_square):
        for poly in (lshape, holed_square):
            _, dags = fresh_dags(poly)
            for dag in dags:
                for node in dag.nodes:
                    got = naive_sst_weight(dag.anchor, node, dag.partition)
                    assert got == node.weight

    def test_naive_path_matches_node_sums(self, lshape):
        _, dags = fresh_dags(lshape)
        for dag in dags:
            for path in enumerate_maximal_paths(dag):
                want = sum((dag.nodes[i].weight for i in path), Fraction(0))
                assert naive_path_weight(dag, path) == want

    def test_heaviest_path_matches_enumeration(self, square4, lshape, holed_square):
        for poly in (square4, lshape, holed_square):
            _, dags = fresh_dags(poly)
            for dag in dags:
                _, value = heaviest_maximal_path(dag)
                best = max(
                    sum((dag.nodes[i].weight for i in path), Fraction(0))
                    for path in enumerate_maximal_paths(dag)
                )
                assert value == best


PROPERTY_INSTANCES = ("square4", "lshape", "holed_square", "s007", "h002")


class _GraphCases(dict):
    """Per-instance graphs; a short repr keeps failure reports readable."""

    def __repr__(self) -> str:
        return f"<graphs of {', '.join(self)}>"


@pytest.fixture(scope="module")
def covered_mask_cases(request, corpus):
    """Graphs of each instance, with the faces each enumerable maximal
    path's polygon contains as a bitmask, found from face reps alone."""
    named = dict(corpus)
    cases = _GraphCases()
    for name in PROPERTY_INSTANCES:
        poly = named[name] if name in named else request.getfixturevalue(name)
        arr = build_arrangement(poly)
        dags = build_anchor_dags(poly, arr)
        paths = []
        for dag in dags:
            if len(dag.nodes) > 200:
                continue
            for path in enumerate_maximal_paths(dag):
                mask = 0
                if not _sweeps_nothing(dag, path):
                    piece = path_polygon(dag, path)
                    for f, face in enumerate(arr.faces):
                        if piece.contains(face.rep):
                            mask |= 1 << f
                paths.append((dag, path, mask))
        cases[name] = (arr, dags, paths)
    return cases


@pytest.mark.parametrize("name", PROPERTY_INSTANCES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_weights_under_drawn_covered_masks(covered_mask_cases, name, data):
    # the designated cell must keep fast weights equal to the naive sweep
    # and maximal-path weights equal to their uncovered face counts
    arr, dags, paths = covered_mask_cases[name]
    faces = arr.face_count()
    drawn = data.draw(st.integers(min_value=0, max_value=(1 << faces) - 1))
    covered = [bool(drawn >> f & 1) for f in range(faces)]
    uncovered = ((1 << faces) - 1) & ~drawn
    for dag in dags:
        dag.partition.assign_face_weights(covered)
        sst_weights(dag)
        for node in dag.nodes:
            assert node.weight == naive_sst_weight(dag.anchor, node, dag.partition)
    for dag, path, mask in paths:
        assert sum(dag.nodes[i].weight for i in path) == (mask & uncovered).bit_count()


class TestHomogeneousCoordinates:
    def test_triple_roundtrip(self):
        x, y, w = _homog(pt(Fraction(3, 2), Fraction(5, 6)))
        assert (x, y, w) == (9, 5, 6)
        assert Fraction(x, w) == Fraction(3, 2)
        assert Fraction(y, w) == Fraction(5, 6)

    def test_integer_points_keep_unit_weight(self):
        assert _homog(pt(7, -3)) == (7, -3, 1)

    def test_det_sign_matches_orientation(self):
        triples = [
            (pt(0, 0), pt(1, 0), pt(0, 1)),
            (pt(0, 0), pt(0, 1), pt(1, 0)),
            (pt(0, 0), pt(2, 2), pt(4, 4)),
            (pt(Fraction(1, 2), 0), pt(1, Fraction(1, 3)), pt(0, 2)),
        ]
        for a, b, c in triples:
            ax, ay, aw = _homog(a)
            bx, by, bw = _homog(b)
            cx, cy, cw = _homog(c)
            det = (
                ax * (by * cw - bw * cy)
                - ay * (bx * cw - bw * cx)
                + aw * (bx * cy - by * cx)
            )
            sign = (det > 0) - (det < 0)
            assert sign == orientation(a, b, c)


class TestCandidateFamily:
    def test_square_family(self, square4):
        arr, dags = fresh_dags(square4)
        family = candidate_family(arr, dags)
        assert len(family) == 9
        assert sorted(set(family.masks)) == [1, 2, 3, 4, 5, 8, 10, 12, 15]
        # mask 15 covers all four faces: the whole square is a candidate
        assert 15 in family.masks

    def test_masks_match_face_containment(self, square4):
        arr, dags = fresh_dags(square4)
        family = candidate_family(arr, dags)
        for poly, mask in zip(family.polygons, family.masks):
            for f, face in enumerate(arr.faces):
                assert bool(mask >> f & 1) == point_in_convex(face.rep, poly.ring)

    def test_polygons_deduplicated(self, lshape):
        arr, dags = fresh_dags(lshape)
        family = candidate_family(arr, dags)
        assert len(family) == 46
        assert len({p.ring for p in family.polygons}) == len(family)


class TestExactMinimum:
    def test_square_needs_one(self, square4):
        arr, dags = fresh_dags(square4)
        assert exact_min_restricted_cover(arr, candidate_family(arr, dags)) == 1

    def test_lshape_needs_two(self, lshape):
        arr, dags = fresh_dags(lshape)
        assert exact_min_restricted_cover(arr, candidate_family(arr, dags)) == 2

    def test_holed_square_needs_four(self, holed_square):
        arr, dags = fresh_dags(holed_square)
        family = candidate_family(arr, dags)
        assert len(family) == 340
        assert exact_min_restricted_cover(arr, family) == 4

    def test_size_cap_starves(self, holed_square):
        arr, dags = fresh_dags(holed_square)
        family = candidate_family(arr, dags)
        with pytest.raises(CapExceeded):
            exact_min_restricted_cover(arr, family, size_cap=1)

    def test_family_cap_starves(self, holed_square):
        arr, dags = fresh_dags(holed_square)
        family = candidate_family(arr, dags)
        with pytest.raises(CapExceeded):
            exact_min_restricted_cover(arr, family, family_cap=100)


class TestInscribedSampler:
    def test_deterministic_per_seed(self, square4):
        a = [s.ring for s in sample_inscribed_convex(square4, 5, 10)]
        b = [s.ring for s in sample_inscribed_convex(square4, 5, 10)]
        c = [s.ring for s in sample_inscribed_convex(square4, 6, 10)]
        assert a == b
        assert a != c
        assert len(a) == 10

    def test_samples_stay_inside(self, holed_square):
        hole_ccw = tuple(reversed(holed_square.holes[0]))
        for sample in sample_inscribed_convex(holed_square, 3, 15):
            ring = sample.ring
            n = len(ring)
            for i in range(n):
                edge = Segment(ring[i], ring[(i + 1) % n])
                assert segment_in_polygon(edge, holed_square)
            # convex hole: any overlap would show up as a nonempty clip
            assert clip_convex(ring, hole_ccw) is None

    def test_starves_on_thin_region(self):
        sliver = PolygonWithHoles((pt(0, 0), pt(4, 0), pt(4, Fraction(1, 4))))
        with pytest.raises(CapExceeded):
            sample_inscribed_convex(sliver, 1, 2)
