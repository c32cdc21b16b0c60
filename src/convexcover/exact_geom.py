"""Exact rational geometry: primitives, predicates, polygons with holes.

Every coordinate is a fractions.Fraction and every predicate or
construction below is exact; no floating point is used anywhere. The
region type is a counterclockwise outer ring with clockwise hole rings,
treated as a closed set minus open hole interiors.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import InvalidPolygonError, PreconditionViolation

Rational = Fraction

# orientation() results
LEFT = 1
COLLINEAR = 0
RIGHT = -1


class GeometryError(Exception):
    ...


def rat(value) -> Rational:
    """Coerce an int, Fraction or 'p/q' string to Rational.

    Floats are rejected: binary floats do not round-trip decimal input
    and this library promises loss-free arithmetic end to end.
    """
    if isinstance(value, float):
        raise GeometryError("float coordinate %r is not exact; use an int or 'p/q' string" % (value,))
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise GeometryError("bad rational %r" % (value,)) from exc


class Point(NamedTuple):
    x: Rational
    y: Rational

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, k: Rational) -> "Point":
        return Point(self.x * k, self.y * k)

    def cross(self, other: "Point") -> Rational:
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Point") -> Rational:
        return self.x * other.x + self.y * other.y


class Segment(NamedTuple):
    a: Point
    b: Point

    def direction(self) -> Point:
        return self.b - self.a

    def reversed(self) -> "Segment":
        return Segment(self.b, self.a)


def pt(x, y) -> Point:
    return Point(rat(x), rat(y))


def _homog(p: Point) -> Tuple[int, int, int]:
    """Integer homogeneous coordinates (x*w, y*w, w) with w > 0."""
    xd, yd = p.x.denominator, p.y.denominator
    w = xd * yd // math.gcd(xd, yd)
    return p.x.numerator * (w // xd), p.y.numerator * (w // yd), w


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the turn p->q->r: LEFT, COLLINEAR or RIGHT."""
    v = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if v > 0:
        return LEFT
    if v < 0:
        return RIGHT
    return COLLINEAR


def on_segment(p: Point, s: Segment) -> bool:
    """True iff p lies on the closed segment s."""
    if orientation(s.a, s.b, p) != COLLINEAR:
        return False
    return (min(s.a.x, s.b.x) <= p.x <= max(s.a.x, s.b.x)
            and min(s.a.y, s.b.y) <= p.y <= max(s.a.y, s.b.y))


def segment_param(p: Point, s: Segment) -> Rational:
    """Parameter t with p = a + t*(b-a); caller guarantees p is on line(s)."""
    d = s.direction()
    if d.x == 0 and d.y == 0:
        raise GeometryError("degenerate segment has no parameterization")
    return (p - s.a).dot(d) / d.dot(d)


def point_at(s: Segment, t: Rational) -> Point:
    d = s.direction()
    return Point(s.a.x + t * d.x, s.a.y + t * d.y)


def line_intersection(p: Point, dp: Point, q: Point, dq: Point) -> Optional[Point]:
    """Intersection of the lines p + s*dp and q + t*dq; None if parallel."""
    denom = dp.cross(dq)
    if denom == 0:
        return None
    s = (q - p).cross(dq) / denom
    return Point(p.x + s * dp.x, p.y + s * dp.y)


def segment_intersection(s1: Segment, s2: Segment) -> Union[None, Point, Segment]:
    """Exact intersection of two closed segments.

    Returns None (disjoint), a Point (single contact, including endpoint
    touches), or a Segment (collinear overlap of positive length).
    """
    d1, d2 = s1.direction(), s2.direction()
    denom = d1.cross(d2)
    if denom != 0:
        w = s2.a - s1.a
        t1 = w.cross(d2) / denom
        t2 = w.cross(d1) / denom
        if 0 <= t1 <= 1 and 0 <= t2 <= 1:
            return point_at(s1, t1)
        return None
    # parallel; bail out unless collinear
    if (s2.a - s1.a).cross(d1) != 0:
        return None
    if d1.x == 0 and d1.y == 0:
        # s1 degenerate
        if on_segment(s1.a, s2):
            return s1.a
        return None
    lo2 = segment_param(s2.a, s1)
    hi2 = segment_param(s2.b, s1)
    if lo2 > hi2:
        lo2, hi2 = hi2, lo2
    lo = max(Fraction(0), lo2)
    hi = min(Fraction(1), hi2)
    if lo > hi:
        return None
    if lo == hi:
        return point_at(s1, lo)
    return Segment(point_at(s1, lo), point_at(s1, hi))


def ring_area(ring: Sequence[Point]) -> Rational:
    """Signed shoelace area; positive for counterclockwise rings."""
    total = Fraction(0)
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        total += a.cross(b)
    return total / 2


def ring_edges(ring: Sequence[Point]):
    n = len(ring)
    for i in range(n):
        yield Segment(ring[i], ring[(i + 1) % n])


def primitive_direction(d: Point) -> tuple:
    """Canonical integer direction (dx, dy) with gcd 1, same orientation as d."""
    if d.x == 0 and d.y == 0:
        raise GeometryError("zero vector has no direction")
    nx, ny = Fraction(d.x), Fraction(d.y)
    scale = nx.denominator * ny.denominator // math.gcd(nx.denominator, ny.denominator)
    ix, iy = int(nx * scale), int(ny * scale)
    g = math.gcd(abs(ix), abs(iy))
    return (ix // g, iy // g)


def ccw_compare_from(base: Point):
    """Comparator ordering directions by CCW angle from base, in [0, 360).

    Directions are indexed pairs (dx, dy): Points, or the int tuples of
    primitive_direction, which keep the arithmetic in ints.
    """
    bx, by = base

    def half(d: Point) -> int:
        c = bx * d[1] - by * d[0]
        if c > 0:
            return 0
        if c < 0:
            return 1
        return 0 if bx * d[0] + by * d[1] > 0 else 1

    def cmp(d1: Point, d2: Point) -> int:
        h1, h2 = half(d1), half(d2)
        if h1 != h2:
            return -1 if h1 < h2 else 1
        c = d1[0] * d2[1] - d1[1] * d2[0]
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    return cmp


def normalize_convex_ring(points: Sequence[Point]) -> Optional[tuple]:
    """Canonical strictly-convex CCW ring, or None if degenerate.

    Deduplicates, merges collinear runs, verifies all strict left turns,
    and rotates the ring to start at its lexicographically smallest vertex.
    """
    pts = []
    for p in points:
        if not pts or p != pts[-1]:
            pts.append(p)
    while len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        return None
    # drop vertices that are collinear with (or reverse into) their neighbors
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        out = []
        n = len(pts)
        for i in range(n):
            if orientation(pts[i - 1], pts[i], pts[(i + 1) % n]) == COLLINEAR:
                changed = True
            else:
                out.append(pts[i])
        pts = out
    if len(pts) < 3:
        return None
    n = len(pts)
    for i in range(n):
        if orientation(pts[i - 1], pts[i], pts[(i + 1) % n]) != LEFT:
            return None
    # all-left turns can still wind more than once; a convex ring's edge
    # directions cross the positive-x half line exactly once
    wraps = 0
    prev_cmp = ccw_compare_from(Point(Fraction(1), Fraction(0)))
    dirs = [pts[(i + 1) % n] - pts[i] for i in range(n)]
    for i in range(n):
        if prev_cmp(dirs[i], dirs[(i + 1) % n]) > 0:
            wraps += 1
    if wraps != 1:
        return None
    start = min(range(n), key=lambda i: pts[i])
    return tuple(pts[start:] + pts[:start])


def clip_convex(subject: Sequence[Point], clip: Sequence[Point]) -> Optional[tuple]:
    """Intersection of two convex CCW rings (Sutherland-Hodgman), or None.

    Zero-area intersections (point or edge contact) count as empty.
    """
    output = list(subject)
    n = len(clip)
    for i in range(n):
        ca, cb = clip[i], clip[(i + 1) % n]
        if not output:
            return None
        inputs = output
        output = []
        m = len(inputs)
        for j in range(m):
            cur = inputs[j]
            nxt = inputs[(j + 1) % m]
            cur_in = orientation(ca, cb, cur) != RIGHT
            nxt_in = orientation(ca, cb, nxt) != RIGHT
            if cur_in:
                output.append(cur)
                if not nxt_in:
                    x = line_intersection(ca, cb - ca, cur, nxt - cur)
                    output.append(x)
            elif nxt_in:
                x = line_intersection(ca, cb - ca, cur, nxt - cur)
                output.append(x)
    if not output:
        return None
    return normalize_convex_ring(output)


def convex_hull(points: Sequence[Point]) -> Optional[tuple]:
    """Strict convex hull (monotone chain), canonical CCW ring or None."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return None
    lower = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) != LEFT:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) != LEFT:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        return None
    return normalize_convex_ring(ring)


def point_in_convex(p: Point, ring: Sequence[Point]) -> bool:
    """Closed containment test against a convex CCW ring."""
    n = len(ring)
    for i in range(n):
        if orientation(ring[i], ring[(i + 1) % n], p) == RIGHT:
            return False
    return True


class Location(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def _check_ring(ring: Sequence[Point], what: str) -> None:
    n = len(ring)
    if n < 3:
        raise InvalidPolygonError("%s has %d vertices, need at least 3" % (what, n))
    if len(set(ring)) != n:
        raise InvalidPolygonError("%s repeats a vertex" % what)
    for i in range(n):
        if orientation(ring[i - 1], ring[i], ring[(i + 1) % n]) == COLLINEAR:
            raise InvalidPolygonError(
                "%s has collinear vertices at %s" % (what, (ring[i],)))
    edges = list(ring_edges(ring))
    for i in range(n):
        for j in range(i + 1, n):
            touch = {ring[i], ring[(i + 1) % n]} & {ring[j], ring[(j + 1) % n]}
            x = segment_intersection(edges[i], edges[j])
            if touch:
                # adjacent edges may only meet at the shared vertex
                if isinstance(x, Segment) or (isinstance(x, Point) and x not in touch):
                    raise InvalidPolygonError("%s is self-intersecting" % what)
            elif x is not None:
                raise InvalidPolygonError("%s is self-intersecting" % what)


def _parity_inside(p: Point, ring: Sequence[Point]) -> bool:
    """Crossing-number parity for p strictly off the ring boundary."""
    inside = False
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            # x coordinate of the edge at height p.y
            t = (p.y - a.y) / (b.y - a.y)
            xcross = a.x + t * (b.x - a.x)
            if xcross > p.x:
                inside = not inside
    return inside


def ring_location(p: Point, ring: Sequence[Point]) -> Location:
    """Locate p against the region bounded by one simple ring.

    The ring may run either way and may have collinear runs
    (split-piece boundaries), unlike the validated polygon types.
    """
    for e in ring_edges(ring):
        if on_segment(p, e):
            return Location.BOUNDARY
    return Location.INTERIOR if _parity_inside(p, ring) else Location.EXTERIOR


class PolygonWithHoles:
    """Closed polygonal region: one CCW outer ring minus CW hole rings.

    Validation enforces: simple rings, no repeated or collinear vertices,
    outer counterclockwise and holes clockwise (interior on the left of
    every directed edge), holes strictly inside the outer ring, holes
    pairwise disjoint.
    """

    def __init__(self, outer: Sequence[Point], holes: Sequence[Sequence[Point]] = ()):
        outer = tuple(outer)
        holes = tuple(tuple(h) for h in holes)
        _check_ring(outer, "outer ring")
        if ring_area(outer) <= 0:
            raise InvalidPolygonError("outer ring must be counterclockwise")
        for k, h in enumerate(holes):
            _check_ring(h, "hole %d" % k)
            if ring_area(h) >= 0:
                raise InvalidPolygonError("hole %d must be clockwise" % k)
        outer_edges = list(ring_edges(outer))
        hole_edges = [list(ring_edges(h)) for h in holes]
        for k, h in enumerate(holes):
            for e in hole_edges[k]:
                for oe in outer_edges:
                    if segment_intersection(e, oe) is not None:
                        raise InvalidPolygonError("hole %d touches the outer ring" % k)
            for v in h:
                if not _parity_inside(v, outer):
                    raise InvalidPolygonError("hole %d is not strictly inside" % k)
        for k1 in range(len(holes)):
            for k2 in range(k1 + 1, len(holes)):
                for e1 in hole_edges[k1]:
                    for e2 in hole_edges[k2]:
                        if segment_intersection(e1, e2) is not None:
                            raise InvalidPolygonError(
                                "holes %d and %d intersect" % (k1, k2))
                if _parity_inside(holes[k2][0], holes[k1]):
                    raise InvalidPolygonError("hole %d contains hole %d" % (k1, k2))
                if _parity_inside(holes[k1][0], holes[k2]):
                    raise InvalidPolygonError("hole %d contains hole %d" % (k2, k1))
        self.outer = outer
        self.holes = holes

    @property
    def rings(self) -> Tuple[Tuple[Point, ...], ...]:
        return (self.outer,) + self.holes

    def vertices(self) -> Iterator[Point]:
        for ring in self.rings:
            yield from ring

    def vertex_list(self) -> list:
        return list(self.vertices())

    def vertex_count(self) -> int:
        return len(self.outer) + sum(len(h) for h in self.holes)

    def hole_count(self) -> int:
        return len(self.holes)

    def boundary_edges(self) -> Iterator[Segment]:
        for ring in self.rings:
            yield from ring_edges(ring)

    def area(self) -> Rational:
        total = ring_area(self.outer)
        for h in self.holes:
            total += ring_area(h)  # holes are clockwise, negative area
        return total

    def neighbors(self, v: Point) -> Tuple[Point, Point]:
        """(previous, next) of vertex v along its ring's stored order."""
        for ring in self.rings:
            for i, p in enumerate(ring):
                if p == v:
                    return ring[i - 1], ring[(i + 1) % len(ring)]
        raise PreconditionViolation("%s is not a vertex" % (v,))

    def is_reflex(self, v: Point) -> bool:
        """True iff the interior angle at vertex v exceeds 180 degrees.

        Holes are stored clockwise, so the interior is on the left of
        every directed edge and one orientation test works for all rings.
        """
        prev, nxt = self.neighbors(v)
        return orientation(prev, v, nxt) == RIGHT

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolygonWithHoles)
                and self.outer == other.outer and self.holes == other.holes)

    def __hash__(self) -> int:
        return hash((self.outer, self.holes))

    def __repr__(self) -> str:
        return "PolygonWithHoles(%d vertices, %d holes)" % (
            self.vertex_count(), self.hole_count())


def point_location(p: Point, poly: PolygonWithHoles) -> Location:
    """Locate p against the closed region: a hole's interior is exterior."""
    loc = ring_location(p, poly.outer)
    if loc is not Location.INTERIOR:
        return loc
    for h in poly.holes:
        loc = ring_location(p, h)
        if loc is Location.BOUNDARY:
            return loc
        if loc is Location.INTERIOR:
            return Location.EXTERIOR
    return Location.INTERIOR


def segment_in_polygon(seg: Segment, poly: PolygonWithHoles) -> bool:
    """True iff the closed segment lies inside the closed region.

    The segment is cut at every boundary crossing and each piece is
    decided by its midpoint, which keeps the test exact.
    """
    if seg.a == seg.b:
        return point_location(seg.a, poly) is not Location.EXTERIOR
    params = {Fraction(0), Fraction(1)}
    for e in poly.boundary_edges():
        x = segment_intersection(seg, e)
        if x is None:
            continue
        if isinstance(x, Point):
            params.add(segment_param(x, seg))
        else:
            params.add(segment_param(x.a, seg))
            params.add(segment_param(x.b, seg))
    cuts = sorted(t for t in params if 0 <= t <= 1)
    for t in cuts:
        if point_location(point_at(seg, t), poly) is Location.EXTERIOR:
            return False
    for t0, t1 in zip(cuts, cuts[1:]):
        mid = point_at(seg, (t0 + t1) / 2)
        if point_location(mid, poly) is Location.EXTERIOR:
            return False
    return True


class ConvexPolygon:
    """Strictly convex CCW ring in canonical form.

    Canonical means: consecutive collinear vertices merged, ring starts
    at the lexicographically smallest vertex. Construction rejects
    degenerate input (fewer than 3 distinct corners after merging).
    """

    def __init__(self, ring: Sequence[Point]):
        canon = normalize_convex_ring(ring)
        if canon is None:
            raise InvalidPolygonError("not a convex ring: %r" % (list(ring),))
        self.ring: Tuple[Point, ...] = canon

    def area(self) -> Rational:
        return ring_area(self.ring)

    def contains(self, p: Point) -> bool:
        return point_in_convex(p, self.ring)

    def edges(self) -> Iterator[Segment]:
        return ring_edges(self.ring)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolygon) and self.ring == other.ring

    def __hash__(self) -> int:
        return hash(self.ring)

    def __repr__(self) -> str:
        return "ConvexPolygon(%s)" % (list(self.ring),)
