"""Exact visibility polygons anchored at polygon vertices.

The construction sweeps the interior angle at the anchor: candidate
directions (to every vertex, closed under quarter turns so no sector
spans 180 degrees or more) cut the angle into sectors, inside each of
which the nearest boundary edge is constant. Each sector contributes a
fan triangle; radial window edges appear where the nearest edge jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import List, Optional, Tuple

from .errors import InvariantViolation
from .exact_geom import (
    ccw_compare_from,
    COLLINEAR,
    line_intersection,
    orientation,
    Point,
    PolygonWithHoles,
    primitive_direction,
    Segment,
)


@dataclass(frozen=True)
class VisibilityPolygon:
    """Star-shaped region visible from a boundary vertex.

    ring starts at the anchor and runs counterclockwise.
    """
    anchor: Point
    ring: Tuple[Point, ...]


def _interior_cone(poly: PolygonWithHoles, v: Point) -> Tuple[Point, Point]:
    """Directions bounding the interior angle at v, counterclockwise."""
    prev, nxt = poly.neighbors(v)
    return nxt - v, prev - v


def _merge_collinear_chain(points: List[Point]) -> List[Point]:
    out: List[Point] = []
    for p in points:
        while len(out) >= 2 and orientation(out[-2], out[-1], p) == COLLINEAR:
            out.pop()
        if not out or p != out[-1]:
            out.append(p)
    return out


def visibility_polygon(poly: PolygonWithHoles, v: Point) -> VisibilityPolygon:
    """Region of points p with segment vp inside the closed polygon.

    Exact; the ring is simple with no collinear runs. Grazing contact
    along the boundary is permitted (closed-region visibility), but
    one-dimensional slivers behind a touching reflex vertex are not part
    of the two-dimensional region and do not appear in the ring.
    """
    d_start, d_end = _interior_cone(poly, v)
    cmp = ccw_compare_from(d_start)

    candidates = {primitive_direction(d_start), primitive_direction(d_end)}
    for w in poly.vertices():
        if w == v:
            continue
        d = w - v
        for rot in range(4):
            candidates.add(primitive_direction(d))
            d = Point(-d.y, d.x)
    dirs = [Point(Fraction(dx), Fraction(dy)) for dx, dy in candidates]
    dirs = [d for d in dirs if cmp(d, d_end) <= 0]
    dirs.sort(key=cmp_to_key(cmp))
    if primitive_direction(dirs[0]) != primitive_direction(d_start):
        raise InvariantViolation("direction sweep does not start on the cone's first edge")

    edges = list(poly.boundary_edges())

    def nearest_hit(mid: Point) -> Segment:
        """Boundary edge first hit by the open ray v + t*mid, t > 0."""
        best_t: Optional[Fraction] = None
        best_edge: Optional[Segment] = None
        for e in edges:
            ed = e.direction()
            denom = mid.cross(ed)
            if denom == 0:
                continue  # parallel; collinear edges cannot occur off candidate rays
            t = (e.a - v).cross(ed) / denom
            s = (e.a - v).cross(mid) / denom
            if t <= 0 or not (0 <= s <= 1):
                continue
            if best_t is None or t < best_t:
                best_t, best_edge = t, e
        if best_edge is None:
            raise InvariantViolation("ray escaped the polygon")
        return best_edge

    fan: List[Point] = [v]
    for d1, d2 in zip(dirs, dirs[1:]):
        mid = d1 + d2
        e = nearest_hit(mid)
        ed = e.direction()
        a = line_intersection(v, d1, e.a, ed)
        b = line_intersection(v, d2, e.a, ed)
        if a is None or b is None:
            raise InvariantViolation("sector ray is parallel to its nearest edge")
        for p in (a, b):
            if p != fan[-1]:
                fan.append(p)

    ring = _merge_collinear_chain(fan)
    # the chain merge cannot see around the ring closure; the anchor is a
    # genuine corner (input polygons have no straight vertices) so only
    # the seam between the last and first fan points needs a second look
    while len(ring) >= 3 and orientation(ring[-2], ring[-1], ring[0]) == COLLINEAR:
        ring.pop()
    return VisibilityPolygon(anchor=v, ring=tuple(ring))
