"""Exact output checks for the benchmark, written apart from the program.

Nothing here imports convexcover. Points are (Fraction, Fraction) pairs
and rings are tuples of points; every predicate is exact. The checks
are properties a correct output must have, never a stored copy of an
earlier output:

* cover: every piece is strictly convex and lies in the closed polygon,
  a seeded sample of rational points of P is covered, the piece areas
  sum to at least area(P), the piece count is at most n + 2h - 2, and
  the greedy gains sum to the face count U;
* peel: the piece is convex and lies in P, its claimed value equals its
  good area recomputed here, and that value is at least a quarter of
  the good area of every convex polygon the generator knows lies in P.

Each check returns a list of messages; an empty list means accepted.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

Pt = Tuple[Fraction, Fraction]
Ring = Tuple[Pt, ...]


def orient(p: Pt, q: Pt, r: Pt) -> int:
    """+1 for a left turn p->q->r, -1 for a right turn, 0 if collinear."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def area(ring: Sequence[Pt]) -> Fraction:
    """Signed shoelace area, positive for counterclockwise rings."""
    total = Fraction(0)
    n = len(ring)
    for i in range(n):
        (ax, ay), (bx, by) = ring[i], ring[(i + 1) % n]
        total += ax * by - ay * bx
    return total / 2


def strictly_convex(ring: Sequence[Pt]) -> bool:
    """Counterclockwise, at least three corners, every other corner
    strictly left of every edge (so no collinear or repeated corners and
    no ring that winds twice)."""
    n = len(ring)
    if n < 3:
        return False
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        for j in range(n):
            if j != i and j != (i + 1) % n and orient(a, b, ring[j]) <= 0:
                return False
    return True


def clip(subject: Sequence[Pt], convex: Sequence[Pt]) -> List[Pt]:
    """Part of the convex subject inside the convex CCW ring (closed
    half-planes, Sutherland-Hodgman). The result may repeat points or be
    flat; only its area is used."""
    out = list(subject)
    n = len(convex)
    for i in range(n):
        if not out:
            break
        a, b = convex[i], convex[(i + 1) % n]
        src, out = out, []
        for j in range(len(src)):
            p, q = src[j], src[(j + 1) % len(src)]
            sp, sq = orient(a, b, p), orient(a, b, q)
            if sp >= 0:
                out.append(p)
            if sp * sq < 0:
                # p and q strictly on opposite sides of line ab
                dx, dy = q[0] - p[0], q[1] - p[1]
                ex, ey = b[0] - a[0], b[1] - a[1]
                t = ((a[0] - p[0]) * ey - (a[1] - p[1]) * ex) / (dx * ey - dy * ex)
                out.append((p[0] + t * dx, p[1] + t * dy))
    return out


def overlap_area(subject: Sequence[Pt], convex: Sequence[Pt]) -> Fraction:
    out = clip(subject, convex)
    return area(out) if len(out) >= 3 else Fraction(0)


def _int(x: Fraction) -> int:
    if Fraction(x).denominator != 1:
        raise ValueError(f"polygon corners must be integers, got {x}")
    return int(x)


def _locate_h(x: int, y: int, w: int, ring: Sequence[Tuple[int, int]]) -> int:
    """locate() for the point (x/w, y/w), w > 0, against an integer ring,
    in integer arithmetic."""
    n = len(ring)
    inside = False
    for i in range(n):
        (ax, ay), (bx, by) = ring[i], ring[(i + 1) % n]
        if (bx - ax) * (y - ay * w) == (by - ay) * (x - ax * w) \
                and min(ax, bx) * w <= x <= max(ax, bx) * w \
                and min(ay, by) * w <= y <= max(ay, by) * w:
            return 0
        if (ay * w > y) != (by * w > y):
            # the edge crosses the horizontal through p right of p
            if ((ax * w - x) * (by - ay) + (y - ay * w) * (bx - ax)) * (by - ay) > 0:
                inside = not inside
    return 1 if inside else -1


def locate(p: Pt, ring: Sequence[Pt]) -> int:
    """+1 strictly inside the simple integer ring, 0 on it, -1 outside."""
    x, y = Fraction(p[0]), Fraction(p[1])
    w = x.denominator * y.denominator
    return _locate_h(x.numerator * y.denominator, y.numerator * x.denominator, w,
                     [(_int(a), _int(b)) for a, b in ring])


def triangulate(ring: Sequence[Pt]) -> List[Ring]:
    """Ear clipping of a simple ring (either orientation) into CCW
    triangles with disjoint interiors."""
    work = list(ring) if area(ring) > 0 else list(reversed(ring))
    tris: List[Ring] = []
    while len(work) > 3:
        m = len(work)
        for i in range(m):
            a, b, c = work[i - 1], work[i], work[(i + 1) % m]
            if orient(a, b, c) <= 0:
                continue
            tri = (a, b, c)
            if any(p not in tri and all(orient(tri[k], tri[(k + 1) % 3], p) >= 0
                                        for k in range(3)) for p in work):
                continue
            tris.append(tri)
            del work[i]
            break
        else:
            raise ValueError("ring has no ear; it is not simple")
    if orient(*work) > 0:
        tris.append(tuple(work))
    return tris


class Region:
    """A polygon with holes as the checker sees it: outer ring CCW,
    hole rings CW, plus triangulations of the outer ring and of each
    hole for exact area-of-intersection tests."""

    def __init__(self, outer: Sequence[Pt], holes: Sequence[Sequence[Pt]] = ()):
        self.outer: Ring = tuple(outer)
        self.holes: Tuple[Ring, ...] = tuple(tuple(h) for h in holes)
        self.outer_tris = triangulate(self.outer)
        self.hole_tris = [t for h in self.holes for t in triangulate(h)]
        self.area = area(self.outer) + sum(area(h) for h in self.holes)

    @property
    def n(self) -> int:
        return len(self.outer) + sum(len(h) for h in self.holes)

    def area_inside(self, convex: Sequence[Pt]) -> Fraction:
        """Area of convex ∩ P."""
        return (sum(overlap_area(convex, t) for t in self.outer_tris)
                - sum(overlap_area(convex, t) for t in self.hole_tris))

    def strictly_inside(self, p: Pt) -> bool:
        return locate(p, self.outer) == 1 and all(locate(p, h) == -1 for h in self.holes)

    def sample(self, rng: random.Random, count: int, den: int = 1009) -> List[Pt]:
        """count rational points strictly inside P, with denominator den."""
        xs = [p[0] for p in self.outer]
        ys = [p[1] for p in self.outer]
        pts: List[Pt] = []
        while len(pts) < count:
            p = (min(xs) + (max(xs) - min(xs)) * Fraction(rng.randrange(1, den), den),
                 min(ys) + (max(ys) - min(ys)) * Fraction(rng.randrange(1, den), den))
            if self.strictly_inside(p):
                pts.append(p)
        return pts


IntPt = Tuple[int, int]
HomPt = Tuple[int, int, int]        # (x, y, w) for the point (x/w, y/w), reduced, w > 0


def _hom(x: int, y: int, w: int) -> HomPt:
    g = gcd(gcd(x, y), w)
    return (x // g, y // g, w // g)


def _at(a: IntPt, d: IntPt, t: Fraction) -> HomPt:
    return _hom(a[0] * t.denominator + t.numerator * d[0],
                a[1] * t.denominator + t.numerator * d[1], t.denominator)


def _extensions(outer: Sequence[IntPt], holes: Sequence[Sequence[IntPt]]):
    """Maximal segments inside the closed region through pairs of
    mutually visible corners (edges included), each once, as
    (corner a, direction d, t_lo, t_hi) for the points a + t*d."""
    rings = [outer] + list(holes)

    def in_region(x: int, y: int, w: int) -> bool:
        return _locate_h(x, y, w, outer) >= 0 and all(_locate_h(x, y, w, h) <= 0 for h in holes)

    def hits(a: IntPt, dx: int, dy: int) -> List[Fraction]:
        ts = []
        for ring in rings:
            for i in range(len(ring)):
                (cx, cy), (ex, ey) = ring[i], ring[(i + 1) % len(ring)]
                fx, fy = ex - cx, ey - cy
                gx, gy = cx - a[0], cy - a[1]
                den = dx * fy - dy * fx
                if den:
                    s = gx * dy - gy * dx           # edge parameter times den
                    if 0 <= s * den <= den * den:
                        ts.append(Fraction(gx * fy - gy * fx, den))
                elif gx * dy - gy * dx == 0:        # edge on the line
                    dd = dx * dx + dy * dy
                    ts += [Fraction(gx * dx + gy * dy, dd), Fraction((ex - a[0]) * dx + (ey - a[1]) * dy, dd)]
        return ts

    corners = [p for ring in rings for p in ring]
    segs = {}
    for i, a in enumerate(corners):
        for b in corners[i + 1:]:
            dx, dy = b[0] - a[0], b[1] - a[1]
            ts = sorted(set(hits(a, dx, dy)) | {Fraction(0), Fraction(1)})

            def inside(k: int) -> bool:     # is the piece between ts[k] and ts[k+1] in P?
                m = (ts[k] + ts[k + 1]) / 2
                w = m.denominator
                return in_region(a[0] * w + m.numerator * dx, a[1] * w + m.numerator * dy, w)
            lo, hi = ts.index(0), ts.index(1)
            if not all(inside(k) for k in range(lo, hi)):
                continue
            while lo > 0 and inside(lo - 1):
                lo -= 1
            while hi < len(ts) - 1 and inside(hi):
                hi += 1
            ends = frozenset((_at(a, (dx, dy), ts[lo]), _at(a, (dx, dy), ts[hi])))
            segs.setdefault(ends, (a, (dx, dy), ts[lo], ts[hi]))
    return list(segs.values())


def arrangement_counts(outer: Sequence[Pt], holes: Sequence[Sequence[Pt]] = ()
                       ) -> Tuple[int, int, int, int]:
    """(D, V, E, U) of the arrangement of diagonal extensions, computed
    here from the definition: D maximal in-region segments through pairs
    of mutually visible corners (edges included), V their endpoints and
    crossings, E the pieces they cut each other into, and U the faces
    inside the region, by Euler's formula U = E - V + 1 - h (the
    segments form one connected graph and each hole is one face).
    Corners must be integers; all arithmetic is in ints."""
    ints = lambda ring: [(_int(x), _int(y)) for x, y in ring]
    segs = _extensions(ints(outer), [ints(h) for h in holes])
    on_seg: List[set] = [{_at(a, d, lo), _at(a, d, hi)} for a, d, lo, hi in segs]
    for i, (a, d, lo, hi) in enumerate(segs):
        for j in range(i + 1, len(segs)):
            b, e, lo2, hi2 = segs[j]
            den = d[0] * e[1] - d[1] * e[0]
            if den == 0:
                continue                    # parallel; collinear ones only share endpoints
            wx, wy = b[0] - a[0], b[1] - a[1]
            t, u = wx * e[1] - wy * e[0], wx * d[1] - wy * d[0]
            if den < 0:
                den, t, u = -den, -t, -u
            # a + (t/den) d = b + (u/den) e; keep it if both parameters are in range
            if lo.numerator * den <= t * lo.denominator and t * hi.denominator <= hi.numerator * den \
                    and lo2.numerator * den <= u * lo2.denominator \
                    and u * hi2.denominator <= hi2.numerator * den:
                x = _hom(a[0] * den + t * d[0], a[1] * den + t * d[1], den)
                on_seg[i].add(x)
                on_seg[j].add(x)
    v = len(set().union(*on_seg))
    e = sum(len(pts) - 1 for pts in on_seg)
    return len(segs), v, e, e - v + 1 - len(holes)


def in_closed(p: Pt, convex: Sequence[Pt]) -> bool:
    n = len(convex)
    return all(orient(convex[i], convex[(i + 1) % n], p) >= 0 for i in range(n))


def piece_problems(region: Region, idx: int, piece: Sequence[Pt]) -> List[str]:
    """A piece must be strictly convex and lie in the closed polygon.

    A convex piece is a closed set equal to the closure of its interior,
    so it lies in the closed polygon exactly when area(piece ∩ P) equals
    area(piece)."""
    if not strictly_convex(piece):
        return [f"piece {idx} is not a strictly convex CCW ring"]
    if region.area_inside(piece) != area(piece):
        return [f"piece {idx} leaves the polygon"]
    return []


def check_cover(region: Region, pieces: Sequence[Sequence[Pt]], algorithm: str,
                gains: Sequence[int], faces: int, samples: Sequence[Pt]) -> List[str]:
    """faces is U as counted by arrangement_counts; samples are points of P."""
    problems: List[str] = []
    for idx, piece in enumerate(pieces):
        problems += piece_problems(region, idx, piece)
    if problems:
        return problems
    for p in samples:
        if not any(in_closed(p, piece) for piece in pieces):
            problems.append(f"sample point {p} is covered by no piece")
            break
    if sum(area(piece) for piece in pieces) < region.area:
        problems.append("piece areas sum to less than the polygon's area")
    bound = region.n + 2 * len(region.holes) - 2
    if len(pieces) > bound:
        problems.append(f"{len(pieces)} pieces exceed the bound n + 2h - 2 = {bound}")
    if algorithm == "greedy-cover" and sum(gains) != faces:
        problems.append(f"gains sum to {sum(gains)}, not to the face count {faces}")
    if algorithm not in ("greedy-cover", "triangulation"):
        problems.append(f"unknown algorithm {algorithm!r}")
    return problems


def good_area(convex: Sequence[Pt], regions: Sequence[Sequence[Pt]]) -> Fraction:
    """Area of the convex ring minus its overlap with the convex regions."""
    return area(convex) - sum(overlap_area(convex, r) for r in regions)


def check_peel(region: Region, regions: Sequence[Sequence[Pt]], pieces: Sequence[Sequence[Pt]],
               value: Fraction, known_convex: Sequence[Sequence[Pt]]) -> List[str]:
    if len(pieces) != 1:
        return [f"a peel has exactly one piece, got {len(pieces)}"]
    piece = pieces[0]
    problems = piece_problems(region, 0, piece)
    if problems:
        return problems
    actual = good_area(piece, regions)
    if value != actual:
        problems.append(f"claimed value {value} but the good area is {actual}")
    for k in known_convex:
        if 4 * value < good_area(k, regions):
            problems.append(f"value {value} is below a quarter of the good area "
                            f"of a known convex polygon {k}")
            break
    return problems
