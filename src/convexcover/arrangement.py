"""Diagonal extensions of a polygon and their arrangement.

A diagonal extension is the maximal segment inside the closed polygon
that is collinear with a pair of mutually visible vertices (edges
included). The arrangement of all extensions partitions the polygon
into convex faces; those faces are the unit-weight elements that the
greedy cover counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvariantViolation, PreconditionViolation
from .exact_geom import (
    ccw_compare_from,
    COLLINEAR,
    ConvexPolygon,
    Location,
    orientation,
    Point,
    point_at,
    point_location,
    PolygonWithHoles,
    Rational,
    ring_area,
    Segment,
    segment_in_polygon,
    segment_intersection,
    segment_param,
)


@dataclass(frozen=True)
class DiagonalExtension:
    """Maximal in-polygon segment through one or more visible vertex pairs."""
    segment: Segment
    generators: Tuple[Tuple[Point, Point], ...]


def _line_polygon_components(poly: PolygonWithHoles, origin: Point, direction: Point):
    """Maximal sub-segments of the line origin + t*direction inside poly.

    Returns a list of closed parameter intervals (lo, hi), lo < hi,
    positive-length components only.
    """
    probe = Segment(origin, origin + direction)
    params = set()
    for e in poly.boundary_edges():
        sa = orientation(origin, origin + direction, e.a)
        sb = orientation(origin, origin + direction, e.b)
        if sa == COLLINEAR and sb == COLLINEAR:
            params.add(segment_param(e.a, probe))
            params.add(segment_param(e.b, probe))
        elif sa == COLLINEAR:
            params.add(segment_param(e.a, probe))
        elif sb == COLLINEAR:
            params.add(segment_param(e.b, probe))
        elif sa != sb:
            d, ed = direction, e.direction()
            denom = d.cross(ed)
            t = (e.a - origin).cross(ed) / denom
            params.add(t)
    cuts = sorted(params)
    components = []
    run_start: Optional[Rational] = None
    for t0, t1 in zip(cuts, cuts[1:]):
        mid = point_at(probe, (t0 + t1) / 2)
        inside = point_location(mid, poly) is not Location.EXTERIOR
        if inside:
            if run_start is None:
                run_start = t0
        else:
            if run_start is not None:
                components.append((run_start, t0))
                run_start = None
    if run_start is not None:
        components.append((run_start, cuts[-1]))
    return components


def extend_within(poly: PolygonWithHoles, u: Point, v: Point) -> Segment:
    """Maximal segment inside the closed polygon collinear with uv.

    Raises PreconditionViolation when uv itself does not lie in poly.
    """
    if u == v:
        raise PreconditionViolation("extension of a degenerate segment")
    if not segment_in_polygon(Segment(u, v), poly):
        raise PreconditionViolation("segment %s-%s leaves the polygon" % (u, v))
    direction = v - u
    probe = Segment(u, u + direction)
    for lo, hi in _line_polygon_components(poly, u, direction):
        if lo <= 0 and 1 <= hi:
            return Segment(point_at(probe, lo), point_at(probe, hi))
    raise PreconditionViolation("no component contains %s-%s" % (u, v))


def _canon_segment(s: Segment) -> Segment:
    return s if s.a <= s.b else Segment(s.b, s.a)


def diagonal_extensions(poly: PolygonWithHoles) -> List[DiagonalExtension]:
    """All distinct diagonal extensions, coincident collinear ones merged.

    At most n(n-1)/2 results for n vertices; generators record every
    visible vertex pair that produced each maximal segment.
    """
    verts = poly.vertex_list()
    merged: Dict[Tuple[Point, Point], List[Tuple[Point, Point]]] = {}
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            u, v = verts[i], verts[j]
            if not segment_in_polygon(Segment(u, v), poly):
                continue
            ext = _canon_segment(extend_within(poly, u, v))
            merged.setdefault((ext.a, ext.b), []).append((u, v))
    out = []
    for (a, b) in sorted(merged):
        out.append(DiagonalExtension(Segment(a, b), tuple(merged[(a, b)])))
    return out


@dataclass
class Face:
    """One bounded cell of the arrangement inside the polygon."""
    ring: Tuple[Point, ...]
    vids: Tuple[int, ...]                      # ring as vids: face left of vids[k]->vids[k+1]
    rep: Point
    area: Rational
    covered: bool = False


@dataclass
class Arrangement:
    polygon: PolygonWithHoles
    extensions: List[DiagonalExtension]
    vertices: List[Point]                      # V_D, deterministic order
    vertex_ids: Dict[Point, int]
    ext_points: List[List[int]]                # per extension: vids in order along it
    ext_position: List[Dict[int, int]]         # per vid: extension -> index in ext_points
    edges: List[Tuple[int, int]]               # undirected sub-edges (vid pairs)
    faces: List[Face]
    halfedge_face: Dict[Tuple[int, int], Optional[int]]  # face left of vid->vid

    def face_count(self) -> int:
        return len(self.faces)

    def uncovered_count(self) -> int:
        return sum(1 for f in self.faces if not f.covered)

    def reset_cover(self) -> None:
        for f in self.faces:
            f.covered = False

    def shared_extension(self, a: int, b: int) -> int:
        """Index of the one extension through vertices a and b."""
        common = self.ext_position[a].keys() & self.ext_position[b].keys()
        if len(common) != 1:
            raise InvariantViolation(f"{len(common)} extensions pass through two vertices")
        return common.pop()


def _fan_rep(ring: Sequence[Point]) -> Point:
    """Centroid of the first non-degenerate fan triangle of the ring."""
    base = ring[0]
    n = len(ring)
    for i in range(1, n - 1):
        if orientation(base, ring[i], ring[i + 1]) != COLLINEAR:
            cx = (base.x + ring[i].x + ring[i + 1].x) / 3
            cy = (base.y + ring[i].y + ring[i + 1].y) / 3
            return Point(cx, cy)
    raise InvariantViolation("degenerate face ring")


def build_arrangement(poly: PolygonWithHoles,
                      extensions: Optional[List[DiagonalExtension]] = None) -> Arrangement:
    """Exact arrangement of the diagonal extensions inside the polygon.

    Faces are extracted by half-edge walking; cells outside the region
    (hole interiors, the unbounded cell) are discarded by locating each
    cycle's representative point.
    """
    if extensions is None:
        extensions = diagonal_extensions(poly)
    segs = [ext.segment for ext in extensions]
    per_ext_params: List[Dict[Rational, Point]] = [
        {Fraction(0): s.a, Fraction(1): s.b} for s in segs]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            x = segment_intersection(segs[i], segs[j])
            if x is None:
                continue
            if isinstance(x, Segment):
                raise InvariantViolation("distinct extensions overlap; merging failed")
            per_ext_params[i][segment_param(x, segs[i])] = x
            per_ext_params[j][segment_param(x, segs[j])] = x

    all_points = sorted({p for d in per_ext_params for p in d.values()})
    vertex_ids = {p: i for i, p in enumerate(all_points)}

    ext_points: List[List[int]] = []
    ext_position: List[Dict[int, int]] = [{} for _ in all_points]
    edge_set = set()
    for i, d in enumerate(per_ext_params):
        vids = [vertex_ids[d[t]] for t in sorted(d)]
        ext_points.append(vids)
        for k, v in enumerate(vids):
            ext_position[v][i] = k
        for v0, v1 in zip(vids, vids[1:]):
            edge_set.add((min(v0, v1), max(v0, v1)))
    edges = sorted(edge_set)

    # half-edge structure: outgoing edges sorted counterclockwise per vertex
    outgoing: Dict[int, List[int]] = {}
    for a, b in edges:
        outgoing.setdefault(a, []).append(b)
        outgoing.setdefault(b, []).append(a)
    base = Point(Fraction(1), Fraction(0))
    for v, nbrs in outgoing.items():
        cm = ccw_compare_from(base)
        nbrs.sort(key=cmp_to_key(
            lambda p, q: cm(all_points[p] - all_points[v], all_points[q] - all_points[v])))
    position = {}
    for v, nbrs in outgoing.items():
        for k, w in enumerate(nbrs):
            position[(v, w)] = k

    def next_halfedge(a: int, b: int) -> Tuple[int, int]:
        nbrs = outgoing[b]
        k = position[(b, a)]
        return (b, nbrs[(k - 1) % len(nbrs)])

    halfedges = []
    for a, b in edges:
        halfedges.append((a, b))
        halfedges.append((b, a))
    visited = set()
    cycles = []
    for he in halfedges:
        if he in visited:
            continue
        cycle = []
        cur = he
        while cur not in visited:
            visited.add(cur)
            cycle.append(cur)
            cur = next_halfedge(*cur)
        cycles.append(cycle)

    face_records = []
    halfedge_face: Dict[Tuple[int, int], Optional[int]] = {he: None for he in halfedges}
    for cycle in cycles:
        ring = tuple(all_points[a] for a, b in cycle)
        area = ring_area(ring)
        if area <= 0:
            continue
        rep = _fan_rep(ring)
        if point_location(rep, poly) is not Location.INTERIOR:
            continue
        face_records.append((rep, ring, area, cycle))
    face_records.sort(key=lambda r: r[0])
    faces = []
    for idx, (rep, ring, area, cycle) in enumerate(face_records):
        faces.append(Face(ring=ring, vids=tuple(a for a, _ in cycle), rep=rep, area=area))
        for he in cycle:
            halfedge_face[he] = idx

    return Arrangement(
        polygon=poly,
        extensions=extensions,
        vertices=all_points,
        vertex_ids=vertex_ids,
        ext_points=ext_points,
        ext_position=ext_position,
        edges=edges,
        faces=faces,
        halfedge_face=halfedge_face,
    )


def mark_covered(arr: Arrangement, piece: ConvexPolygon) -> int:
    """Flag every face whose representative lies in the piece; count new flags.

    Restricted pieces are unions of faces, so the representative test is
    exact for them.
    """
    newly = 0
    for f in arr.faces:
        if not f.covered and piece.contains(f.rep):
            f.covered = True
            newly += 1
    return newly
