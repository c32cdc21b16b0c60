"""Seeded inputs for the benchmark's workloads.

Everything is drawn from one random.Random seeded by the workload seed,
so the same seed gives the same inputs. Instances are star polygons on
an integer grid: distinct grid points sorted by angle around their
centroid, redrawn until no three consecutive corners are collinear and
every fan triangle (centroid, corner, next corner) turns left, which
makes the ring simple and star-shaped from the centroid. Holes are the
test corpus's two small shapes placed at a random grid offset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Any, Dict, List, Sequence, Tuple

from checker import Pt, Ring, area, arrangement_counts, locate, orient, strictly_convex

# clockwise, as holes are stored
HOLE_SHAPES = (
    ((0, 0), (0, 1), (1, 1), (1, 0)),
    ((0, 0), (1, 1), (2, 0)),
)


@dataclass
class Instance:
    name: str
    outer: Ring
    holes: Tuple[Ring, ...] = ()
    regions: Tuple[Ring, ...] = ()          # rotten regions (peel only)
    known_convex: List[Ring] = field(default_factory=list)
    faces: int = 0                          # U, counted by the checker


IntRing = Tuple[Tuple[int, int], ...]


def star_ring(rng: random.Random, n: int, span: int) -> Tuple[IntRing, Pt]:
    """n distinct points of the (span+1)² grid as a star-shaped CCW ring,
    and its centre. Integer arithmetic on n times the offsets from the
    centroid."""
    while True:
        seen = set()
        while len(seen) < n:
            seen.add((rng.randint(0, span), rng.randint(0, span)))
        sx, sy = sum(p[0] for p in seen), sum(p[1] for p in seen)
        off = {p: (n * p[0] - sx, n * p[1] - sy) for p in seen}
        if (0, 0) in off.values():
            continue

        def angle_cmp(p, q) -> int:
            (ux, uy), (vx, vy) = off[p], off[q]
            hp, hq = (uy < 0 or (uy == 0 and ux < 0)), (vy < 0 or (vy == 0 and vx < 0))
            if hp != hq:
                return hp - hq
            return -orient((0, 0), off[p], off[q])
        ring = sorted(seen, key=cmp_to_key(angle_cmp))     # ties are rejected below
        if all(orient(ring[i - 1], ring[i], ring[(i + 1) % n]) != 0
               and orient((0, 0), off[ring[i]], off[ring[(i + 1) % n]]) > 0 for i in range(n)):
            return tuple(ring), (Fraction(sx, n), Fraction(sy, n))


def _segments_meet(a: Pt, b: Pt, c: Pt, d: Pt) -> bool:
    """Closed segments ab and cd share a point."""
    o1, o2, o3, o4 = orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True

    def on(p: Pt, q: Pt, r: Pt) -> bool:
        return (orient(p, q, r) == 0 and min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))
    return on(a, b, c) or on(a, b, d) or on(c, d, a) or on(c, d, b)


def hole_fits(hole: IntRing, outer: IntRing) -> bool:
    """The hole lies strictly inside the outer ring, touching nothing."""
    edges = lambda r: [(r[i], r[(i + 1) % len(r)]) for i in range(len(r))]
    return (all(locate(p, outer) == 1 for p in hole)
            and not any(_segments_meet(*e, *f) for e in edges(hole) for f in edges(outer)))


def convex_fans(outer: Ring, c: Pt) -> List[Ring]:
    """Fan triangles around the star centre, and for each corner the
    longest run of following fan triangles whose union stays strictly
    convex. All lie in the star polygon."""
    n = len(outer)
    fans: List[Ring] = []
    for i in range(n):
        fans.append((c, outer[i], outer[(i + 1) % n]))
        run = [c, outer[i], outer[(i + 1) % n]]
        for k in range(2, n):
            cand = run + [outer[(i + k) % n]]
            if not strictly_convex(cand):
                break
            run = cand
        if len(run) > 3:
            fans.append(tuple(run))
    return fans


def rotten_regions(rng: random.Random, outer: Ring, c: Pt, count: int) -> Tuple[Ring, ...]:
    """count triangles, each a shrunken copy of a distinct fan triangle
    about its centroid, so they are disjoint and inside the polygon."""
    n = len(outer)
    regions = []
    for i in sorted(rng.sample(range(n), count)):
        tri = (c, outer[i], outer[(i + 1) % n])
        g = (sum(p[0] for p in tri) / 3, sum(p[1] for p in tri) / 3)
        s = Fraction(rng.randint(2, 6), 10)
        regions.append(tuple((g[0] + s * (p[0] - g[0]), g[1] + s * (p[1] - g[1]))
                             for p in tri))
    return tuple(regions)


# ---------------------------------------------------------------- workloads
#
# A workload is a list of slots. A slot fixes an instance's kind, its
# size n, the number r of reflex corners of its outer ring, and targets
# for its area and its face count U; draws are repeated until r matches
# and area and U lie within TOLERANCE of their targets. Running time
# grows with U, piece counts with r and good areas with the area, so
# fixing these per slot gives every seed nearly the same work and the
# same quality figures while the shapes themselves change. Targets are
# near the median area and U of the most common r for each n.

TOLERANCE = Fraction(5, 100)


@dataclass(frozen=True)
class Slot:
    n: int                  # vertex count of the outer ring (0: corpus-style holed)
    span: int               # grid coordinates run from 0 to span
    reflex: int             # reflex corners of the outer ring
    area: int               # target area of the polygon
    faces: int              # target U
    regions: int = 0        # rotten triangles (peel only)


# (n, r, area, U) on the 10x10 grid
SMALL = {4: (0, 16, 4), 5: (1, 21, 12), 6: (1, 26, 24), 7: (2, 29, 44),
         8: (2, 32, 73), 9: (3, 35, 107), 10: (3, 36, 166)}
CORPUS = ([Slot(n, 9, *SMALL[n]) for n in range(4, 11)] * 2
          + [Slot(n, 9, *SMALL[n]) for n in (8, 9)] + [Slot(0, 9, 1, 29, 107)] * 3)
LADDER = [Slot(12, 29, 4, 330, 310)] * 4
PEEL = [Slot(n, 9, *SMALL[n], regions=4) for n in (8, 9, 10, 8, 9, 9)]
WORKLOADS = {"corpus-cli": CORPUS, "ladder-cover": LADDER, "peel-rotten": PEEL}


def reflex_count(ring: Ring) -> int:
    n = len(ring)
    return sum(orient(ring[i - 1], ring[i], ring[(i + 1) % n]) < 0 for i in range(n))


def draw(rng: random.Random, name: str, slot: Slot) -> Instance:
    while True:
        holes: Tuple[IntRing, ...] = ()
        if slot.n == 0:
            # as in the test corpus: 4 to 7 outer corners around one small hole
            shape = HOLE_SHAPES[rng.randrange(len(HOLE_SHAPES))]
            outer, c = star_ring(rng, rng.randint(max(4, 7 - len(shape)), 10 - len(shape)), slot.span)
            ox, oy = rng.randint(1, 7), rng.randint(1, 7)
            holes = (tuple((x + ox, y + oy) for x, y in shape),)
        else:
            outer, c = star_ring(rng, slot.n, slot.span)
        if reflex_count(outer) != slot.reflex:
            continue
        if abs(area(outer) + sum(area(h) for h in holes) - slot.area) > TOLERANCE * slot.area:
            continue
        if holes and not hole_fits(holes[0], outer):
            continue
        faces = arrangement_counts(outer, holes)[3]
        if abs(faces - slot.faces) > TOLERANCE * slot.faces:
            continue
        exact = lambda ring: tuple((Fraction(x), Fraction(y)) for x, y in ring)
        inst = Instance(name, exact(outer), tuple(exact(h) for h in holes), faces=faces)
        if slot.regions:
            inst.regions = rotten_regions(rng, inst.outer, c, slot.regions)
            inst.known_convex = convex_fans(inst.outer, c)
        return inst


def make_inputs(workload: str, seed: int) -> List[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    return [draw(rng, f"{workload[0]}{k:02d}", slot)
            for k, slot in enumerate(WORKLOADS[workload])]


def encode(x: Fraction) -> Any:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def decode(v: Any) -> Fraction:
    """An int or a "p/q" string as written by the program; anything else
    (a float, say) raises ValueError."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"not an exact number: {v!r}")
    return Fraction(v)


def ring_json(ring: Sequence[Pt]) -> List[List[Any]]:
    return [[encode(x), encode(y)] for x, y in ring]


def ring_from_json(ring: Sequence[Sequence[Any]]) -> Ring:
    return tuple((decode(x), decode(y)) for x, y in ring)


def instance_json(inst: Instance) -> Dict[str, Any]:
    return {"name": inst.name, "outer": ring_json(inst.outer),
            "holes": [ring_json(h) for h in inst.holes]}


def regions_json(inst: Instance) -> Dict[str, Any]:
    return {"regions": [ring_json(r) for r in inst.regions]}
