"""Convex cover construction: greedy peeling with a triangulation fallback."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arrangement import Arrangement, build_arrangement, mark_covered
from .errors import InvalidPolygonError, InvariantViolation
from .exact_geom import (
    clip_convex,
    ConvexPolygon,
    LEFT,
    orientation,
    Point,
    point_in_convex,
    PolygonWithHoles,
    Segment,
    segment_in_polygon,
    segment_intersection,
)
from .peel_dag import best_restricted, build_anchor_dags


@dataclass
class CoverSolution:
    """Convex pieces whose union is the polygon, plus how they were found."""
    polygon: PolygonWithHoles
    arrangement: Arrangement            # the faces the pieces cover
    pieces: List[ConvexPolygon]
    algorithm: str                      # "greedy-cover" or "triangulation"
    iterations: int = 0
    gains: List[int] = field(default_factory=list)

    @property
    def face_count(self) -> int:
        return self.arrangement.face_count()

    @property
    def fallback_used(self) -> bool:
        return self.algorithm == "triangulation"


def greedy_cover(poly: PolygonWithHoles, max_iters: Optional[int] = None) -> CoverSolution:
    """Cover the polygon with restricted convex polygons, best gain first.

    Each round takes the anchored polygon (or reflex pair) covering the
    most yet-uncovered arrangement faces. Faces are counted in integers:
    each face weighs 1 on one designated cell of each anchor partition,
    and a node's weight is the bit count of its face mask ANDed with
    the mask of uncovered faces. If the round budget (vertex count by default)
    runs out before every face is covered, the triangulation fallback
    replaces the partial cover.
    """
    arr = build_arrangement(poly)
    dags = build_anchor_dags(poly, arr, with_partition=True)
    budget = poly.vertex_count() if max_iters is None else max_iters

    pieces: List[ConvexPolygon] = []
    gains: List[int] = []
    while arr.uncovered_count() > 0:
        if len(gains) >= budget:
            return CoverSolution(poly, arr, triangulate(poly), "triangulation",
                                 iterations=len(gains))
        choice = best_restricted(arr, dags)
        if choice is None or choice.value <= 0:
            raise InvariantViolation("greedy step found no progress with faces uncovered")
        gained = 0
        for piece in choice.polygons:
            gained += mark_covered(arr, piece)
        if gained == 0:
            raise InvariantViolation("chosen pieces cover no new face")
        pieces.extend(choice.polygons)
        gains.append(gained)
    return CoverSolution(poly, arr, pieces, "greedy-cover",
                         iterations=len(gains), gains=gains)


def _bridge_hole(ring: List[Point], hole: Tuple[Point, ...],
                 blockers: List[Segment]) -> List[Point]:
    """Splice a hole into the ring via its closest mutually visible vertex."""
    m = min(hole)
    k = hole.index(m)
    rotated = hole[k:] + hole[:k]

    def visible(w: Point) -> bool:
        if w == m:
            return False
        cut = Segment(m, w)
        for e in blockers:
            x = segment_intersection(cut, e)
            if x is None:
                continue
            if isinstance(x, Segment):
                return False
            if x != m and x != w:
                return False
        return True

    best: Optional[Tuple[Fraction, Point, int]] = None
    for i, w in enumerate(ring):
        if not visible(w):
            continue
        d = w - m
        key = (d.dot(d), w, i)
        if best is None or key < best:
            best = key
    if best is None:
        raise InvalidPolygonError("hole cannot be bridged to the outer boundary")
    i = best[2]
    w = ring[i]
    return ring[:i + 1] + list(rotated) + [m, w] + ring[i + 1:]


def triangulate(poly: PolygonWithHoles) -> List[ConvexPolygon]:
    """Exactly n + 2h - 2 triangles with corners at polygon vertices.

    Holes are joined to the outer ring by zero-width bridges (each hole
    from its lexicographically smallest vertex, holes in that order),
    then the combined ring is ear clipped.
    """
    ring = list(poly.outer)
    pending = sorted(poly.holes, key=min)
    for hole in pending:
        blockers = []
        for r in [ring] + [list(h) for h in pending if h is not hole] + [list(hole)]:
            n = len(r)
            for i in range(n):
                blockers.append(Segment(r[i], r[(i + 1) % n]))
        ring = _bridge_hole(ring, hole, blockers)

    triangles: List[ConvexPolygon] = []
    work = list(ring)
    guard = 0
    while len(work) > 3:
        guard += 1
        if guard > 4 * len(ring) * len(ring):
            raise InvalidPolygonError("ear clipping failed to terminate")
        clipped = False
        for i in range(len(work)):
            a, b, c = work[i - 1], work[i], work[(i + 1) % len(work)]
            if orientation(a, b, c) != LEFT:
                continue
            tri = (a, b, c)
            blocked = False
            for p in work:
                if p in tri:
                    continue
                if point_in_convex(p, tri):
                    blocked = True
                    break
            if blocked:
                continue
            triangles.append(ConvexPolygon(tri))
            del work[i]
            clipped = True
            break
        if not clipped:
            raise InvalidPolygonError("no ear found; boundary may be invalid")
    triangles.append(ConvexPolygon(tuple(work)))
    expected = poly.vertex_count() + 2 * poly.hole_count() - 2
    if len(triangles) != expected:
        raise InvariantViolation("triangle count disagrees with Euler count")
    return triangles


@dataclass
class VerificationReport:
    """Outcome of the three cover checks, with human-readable notes."""
    convex_ok: bool
    containment_ok: bool
    coverage_ok: bool
    messages: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.convex_ok and self.containment_ok and self.coverage_ok


def check_pieces(poly: PolygonWithHoles, pieces: Sequence[ConvexPolygon]
                 ) -> Tuple[bool, bool, List[str]]:
    """Convexity and containment in the region of every piece.

    Returns (convex_ok, containment_ok, messages). Pieces are
    re-validated from their rings so the check does not trust the
    construction path.
    """
    messages: List[str] = []
    convex_ok = True
    for idx, piece in enumerate(pieces):
        try:
            ConvexPolygon(piece.ring)
        except InvalidPolygonError as exc:
            convex_ok = False
            messages.append(f"piece {idx} is not convex: {exc}")

    containment_ok = True
    hole_triangles: List[Tuple[Point, ...]] = []
    for hole in poly.holes:
        filled = PolygonWithHoles(tuple(reversed(hole)))
        hole_triangles.extend(t.ring for t in triangulate(filled))
    for idx, piece in enumerate(pieces):
        for e in piece.edges():
            if not segment_in_polygon(e, poly):
                containment_ok = False
                messages.append(f"piece {idx} leaves the region along {e}")
                break
        else:
            # edges inside is not enough: the piece could swallow a hole
            for tri in hole_triangles:
                overlap = clip_convex(piece.ring, tri)
                if overlap is not None:
                    containment_ok = False
                    messages.append(f"piece {idx} overlaps a hole")
                    break
    return convex_ok, containment_ok, messages


def verify_cover(poly: PolygonWithHoles, arr: Optional[Arrangement],
                 pieces: Sequence[ConvexPolygon]) -> VerificationReport:
    """Check convexity, containment in the region, and full face coverage.

    Coverage is decided on the arrangement (built here when arr is
    None): its cover marks are reset, then every face representative
    must land in some piece.
    """
    convex_ok, containment_ok, messages = check_pieces(poly, pieces)
    if arr is None:
        arr = build_arrangement(poly)
    arr.reset_cover()
    coverage_ok = True
    for piece in pieces:
        mark_covered(arr, piece)
    missing = [f for f in arr.faces if not f.covered]
    if missing:
        coverage_ok = False
        for f in missing[:5]:
            messages.append(f"face with representative {f.rep} is uncovered")
        if len(missing) > 5:
            messages.append(f"... and {len(missing) - 5} more uncovered faces")
    return VerificationReport(convex_ok, containment_ok, coverage_ok, messages)
