"""Largest anchored convex region avoiding a set of rotten polygons."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

from .arrangement import build_arrangement
from .errors import InvalidPolygonError, PreconditionViolation
from .exact_geom import (
    _homog,
    _parity_inside,
    clip_convex,
    ConvexPolygon,
    Point,
    PolygonWithHoles,
    ring_area,
    segment_in_polygon,
)
from .peel_dag import assign_area_weights, build_anchor_dags, heaviest_maximal_path, path_polygon

Homog = Tuple[int, int, int]


def _line_through(a: Homog, b: Homog) -> Homog:
    """Homogeneous line through a and b, reduced by its gcd.

    With positive third components, line . c has the sign of
    orientation(a, b, c): positive left of a->b, zero on the line.
    """
    ax, ay, aw = a
    bx, by, bw = b
    line = (ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx)
    g = math.gcd(*line)
    return (line[0] // g, line[1] // g, line[2] // g)


def _clip_to_lines(poly: List[Homog], lines: Tuple[Homog, ...]) -> List[Homog]:
    """Sutherland-Hodgman of a convex ring against the left sides of
    lines, in integers; empty when the overlap has no area."""
    for a, b, c in lines:
        sides = [a * x + b * y + c * w for x, y, w in poly]
        if max(sides) <= 0:
            return []
        if min(sides) >= 0:
            continue
        out = []
        m = len(poly)
        for j in range(m):
            p, sp = poly[j], sides[j]
            q, sq = poly[(j + 1) % m], sides[(j + 1) % m]
            if sp >= 0:
                out.append(p)
                if sq < 0:
                    # the crossing sp*q - sq*p lies on the line, w > 0
                    out.append((sp * q[0] - sq * p[0], sp * q[1] - sq * p[1],
                                sp * q[2] - sq * p[2]))
            elif sq >= 0:
                out.append((sq * p[0] - sp * q[0], sq * p[1] - sp * q[1],
                            sq * p[2] - sp * q[2]))
        poly = out
    return poly


def _twice_area(poly: List[Homog]) -> Tuple[int, int]:
    """Twice the signed area of a ring as (numerator, denominator):
    a fan of 3x3 determinants over the products of the w's."""
    x0, y0, w0 = poly[0]
    num, den = 0, 1
    for i in range(1, len(poly) - 1):
        x1, y1, w1 = poly[i]
        x2, y2, w2 = poly[i + 1]
        det = (x0 * (y1 * w2 - w1 * y2) - y0 * (x1 * w2 - w1 * x2)
               + w0 * (x1 * y2 - y1 * x2))
        d = w1 * w2
        num, den = num * d + det * den, den * d
    return num, den * w0


@dataclass(frozen=True)
class RottenSet:
    """Pairwise interior-disjoint simple regions inside the polygon.

    Regions are stored as counterclockwise rings; triangles is a
    triangulation of their union used for exact area clipping, and
    lines holds the homogeneous integer lines of each triangle's edges.
    """
    regions: Tuple[Tuple[Point, ...], ...]
    triangles: Tuple[Tuple[Point, ...], ...]
    lines: Tuple[Tuple[Homog, ...], ...] = field(repr=False, compare=False)

    @staticmethod
    def build(poly: PolygonWithHoles, regions: Sequence[Sequence[Point]]) -> "RottenSet":
        from .cover import triangulate
        rings: List[Tuple[Point, ...]] = []
        fills: List[PolygonWithHoles] = []
        for k, region in enumerate(regions):
            ring = tuple(region)
            try:
                fill = PolygonWithHoles(ring)
            except InvalidPolygonError as exc:
                raise PreconditionViolation(f"rotten region {k}: {exc}") from exc
            for e in fill.boundary_edges():
                if not segment_in_polygon(e, poly):
                    raise PreconditionViolation(
                        f"rotten region {k} leaves the polygon")
            for hole in poly.holes:
                if any(_parity_inside(hv, ring) for hv in hole):
                    raise PreconditionViolation(
                        f"rotten region {k} covers a hole of the polygon")
            rings.append(ring)
            fills.append(fill)
        tris: List[Tuple[Point, ...]] = []
        tri_owner: List[int] = []
        for k, fill in enumerate(fills):
            for t in triangulate(fill):
                tris.append(t.ring)
                tri_owner.append(k)
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                if tri_owner[i] == tri_owner[j]:
                    continue
                if clip_convex(tris[i], tris[j]) is not None:
                    raise PreconditionViolation(
                        f"rotten regions {tri_owner[i]} and {tri_owner[j]} overlap")
        lines = []
        for tri in tris:
            a, b, c = (_homog(p) for p in tri)
            lines.append((_line_through(a, b), _line_through(b, c), _line_through(c, a)))
        return RottenSet(tuple(rings), tuple(tris), tuple(lines))

    def good_area_of(self, convex_ring: Sequence[Point]) -> Fraction:
        """Area of the convex CCW ring minus its rotten overlap, exactly.

        Clips in integer homogeneous coordinates; the result is the same
        Fraction as subtracting ring_area(clip_convex(ring, t)) for each
        rotten triangle t.
        """
        ring = [_homog(p) for p in convex_ring]
        num, den = _twice_area(ring)
        for tri_lines in self.lines:
            overlap = _clip_to_lines(ring, tri_lines)
            if overlap:
                n, d = _twice_area(overlap)
                num, den = num * d - n * den, den * d
        return Fraction(num, 2 * den)


def good_area_of_triangle(corners: Tuple[Point, Point, Point],
                          rotten: RottenSet) -> Fraction:
    """Good area of one triangle; exact, zero for flat corners."""
    a, b, c = corners
    if ring_area((a, b, c)) <= 0:
        return Fraction(0)
    return rotten.good_area_of((a, b, c))


@dataclass
class PeelSolution:
    """One anchored convex region and its good area."""
    polygon: ConvexPolygon
    value: Fraction
    vertex_index: int
    algorithm: str = "rotten-peel"


def rotten_potato_peel(poly: PolygonWithHoles,
                       rotten: "RottenSet | Sequence[Sequence[Point]]") -> PeelSolution:
    """Best good-area convex region anchored at some polygon vertex.

    Accepts a prebuilt RottenSet or raw rotten rings. Node weights are
    triangle good areas (computed by direct clipping against the rotten
    triangulation), so the heaviest path value equals the good area of
    the returned region. Within a factor four of the optimum over all
    convex subregions.
    """
    if not isinstance(rotten, RottenSet):
        rotten = RottenSet.build(poly, rotten)
    arr = build_arrangement(poly)
    dags = build_anchor_dags(poly, arr, with_partition=False)

    best_value = Fraction(0)
    best_dag = None
    best_path: List[int] = []
    for dag in dags:
        assign_area_weights(dag, lambda tri: good_area_of_triangle(tri, rotten))
        path, value = heaviest_maximal_path(dag)
        if value > best_value:
            best_value, best_dag, best_path = value, dag, path

    if best_dag is None or best_value <= 0:
        # nothing has positive good area; fall back to any triangle
        from .cover import triangulate
        tri = triangulate(poly)[0]
        return PeelSolution(tri, rotten.good_area_of(tri.ring), 0)
    piece = path_polygon(best_dag, best_path)
    return PeelSolution(piece, best_value, best_dag.vertex_index)
