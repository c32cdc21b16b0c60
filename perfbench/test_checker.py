"""The benchmark's checker accepts correct outputs and rejects corrupted ones.

Run with `python3 -m pytest perfbench`. Needs nothing from convexcover.
"""

import random
from fractions import Fraction as F

import pytest

import checker
import gen


def ring(*pts):
    return tuple((F(x), F(y)) for x, y in pts)


LSHAPE = ring((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
L_COVER = [ring((0, 0), (2, 0), (2, 1), (0, 1)), ring((0, 0), (1, 0), (1, 2), (0, 2))]

FRAME = ring((0, 0), (4, 0), (4, 4), (0, 4))
FRAME_HOLE = ring((1, 1), (1, 3), (3, 3), (3, 1))
FRAME_COVER = [ring((0, 0), (4, 0), (4, 1), (0, 1)), ring((0, 3), (4, 3), (4, 4), (0, 4)),
               ring((0, 0), (1, 0), (1, 4), (0, 4)), ring((3, 0), (4, 0), (4, 4), (3, 4))]

DIAMOND = ring((2, 1), (3, 2), (2, 3), (1, 2))


def cover_problems(outer, holes, pieces, gains=None):
    region = checker.Region(outer, holes)
    faces = checker.arrangement_counts(outer, holes)[3]
    samples = region.sample(random.Random(0), 200)
    if gains is None:
        gains = [faces - 1, 1]
    return checker.check_cover(region, pieces, "greedy-cover", gains, faces, samples)


def test_arrangement_counts_match_the_documented_frame_stats():
    # `convexcover stats` on the frame reports D=20, V_D=44, U=48
    d, v, e, u = checker.arrangement_counts(FRAME, [FRAME_HOLE])
    assert (d, v, u) == (20, 44, 48)
    assert checker.arrangement_counts(ring((0, 0), (4, 0), (0, 4))) == (3, 3, 3, 1)


@pytest.mark.parametrize("outer, holes, pieces", [
    (LSHAPE, [], L_COVER),
    (FRAME, [FRAME_HOLE], FRAME_COVER),
])
def test_correct_covers_are_accepted(outer, holes, pieces):
    assert cover_problems(outer, holes, pieces) == []


def test_dropped_piece_is_rejected():
    problems = cover_problems(FRAME, [FRAME_HOLE], FRAME_COVER[:3])
    assert any("covered by no piece" in p for p in problems)


@pytest.mark.parametrize("outer, holes, pieces", [
    # past the L's notch
    (LSHAPE, [], [ring((0, 0), (2, 0), (2, F(3, 2)), (0, 1)), L_COVER[1]]),
    # into the frame's hole
    (FRAME, [FRAME_HOLE], [ring((0, 0), (4, 0), (4, F(3, 2)), (0, 1))] + FRAME_COVER[1:]),
])
def test_vertex_pushed_outside_is_rejected(outer, holes, pieces):
    assert any("leaves the polygon" in p for p in cover_problems(outer, holes, pieces))


@pytest.mark.parametrize("bad", [
    ring((0, 0), (2, 0), (2, 1), (1, F(1, 2)), (0, 1)),   # reflex corner
    ring((0, 0), (0, 1), (2, 1), (2, 0)),                 # clockwise
    ring((0, 0), (1, 0), (2, 0), (2, 1), (0, 1)),         # straight corner
    ring((0, 0), (2, 0), (0, 1), (2, 1)),                 # self-crossing
])
def test_non_convex_ring_is_rejected(bad):
    problems = cover_problems(LSHAPE, [], [bad, L_COVER[1]])
    assert any("not a strictly convex" in p for p in problems)


def test_wrong_gains_and_too_many_pieces_are_rejected():
    assert any("gains sum" in p for p in cover_problems(LSHAPE, [], L_COVER, gains=[1, 1]))
    assert any("exceed the bound" in p for p in cover_problems(LSHAPE, [], L_COVER * 3))


def peel_problems(piece, value, known=()):
    region = checker.Region(FRAME)
    return checker.check_peel(region, [DIAMOND], [piece], value, list(known))


def test_peel_value_is_recomputed_exactly():
    assert peel_problems(FRAME, F(14), [FRAME]) == []
    for off in (F(1, 1000), -F(1, 1000)):
        assert any("claimed value" in p for p in peel_problems(FRAME, 14 + off))


def test_peel_below_a_quarter_of_a_known_polygon_is_rejected():
    corner = ring((0, 0), (1, 0), (0, 1))
    assert peel_problems(corner, F(1, 2)) == []
    assert any("quarter" in p for p in peel_problems(corner, F(1, 2), [FRAME]))


def test_peel_outside_the_polygon_is_rejected():
    assert any("leaves" in p for p in peel_problems(ring((0, 0), (5, 0), (0, 4)), F(10)))


def test_generated_peel_inputs_are_what_the_checks_assume():
    for inst in gen.make_inputs("peel-rotten", 3):
        region = checker.Region(inst.outer)
        for poly in inst.known_convex + list(inst.regions):
            assert checker.strictly_convex(poly)
            assert region.area_inside(poly) == checker.area(poly)
        for i, a in enumerate(inst.regions):
            for b in inst.regions[i + 1:]:
                assert checker.overlap_area(a, b) == 0
