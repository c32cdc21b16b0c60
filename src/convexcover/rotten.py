"""Largest anchored convex region avoiding a set of rotten polygons."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .arrangement import build_arrangement
from .errors import InvalidPolygonError, PreconditionViolation
from .exact_geom import (
    clip_convex,
    ConvexPolygon,
    Point,
    PolygonWithHoles,
    ring_area,
    segment_in_polygon,
)
from .peel_dag import assign_area_weights, build_anchor_dags, heaviest_maximal_path, path_polygon


@dataclass(frozen=True)
class RottenSet:
    """Pairwise interior-disjoint simple regions inside the polygon.

    Regions are stored as counterclockwise rings; triangles is a
    triangulation of their union used for exact area clipping.
    """
    regions: Tuple[Tuple[Point, ...], ...]
    triangles: Tuple[Tuple[Point, ...], ...]

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
                from .exact_geom import _parity_inside
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
        return RottenSet(tuple(rings), tuple(tris))

    def good_area_of(self, convex_ring: Sequence[Point]) -> Fraction:
        """Area of the convex ring minus its rotten overlap, exactly."""
        ring = tuple(convex_ring)
        total = ring_area(ring)
        for tri in self.triangles:
            overlap = clip_convex(ring, tri)
            if overlap is not None:
                total -= ring_area(overlap)
        return total


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
