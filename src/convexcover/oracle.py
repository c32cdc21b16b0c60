"""Slow reference computations used to cross-check the fast paths.

Everything here is deliberately naive: path enumeration, brute-force
subset search, per-cell containment sums, rejection sampling. The fast
algorithms are validated against these on small instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Set, Tuple

from .arrangement import Arrangement
from .errors import CapExceeded, InvariantViolation
from .exact_geom import (
    _homog,
    COLLINEAR,
    convex_hull,
    ConvexPolygon,
    line_intersection,
    Location,
    orientation,
    Point,
    point_location,
    PolygonWithHoles,
    pt,
    segment_in_polygon,
)
from .peel_dag import CellPartition, DirectedSubsegment, PeelDag, path_polygon


def enumerate_maximal_paths(dag: PeelDag, node_cap: int = 200,
                            path_cap: int = 200000) -> List[List[int]]:
    """All source-to-sink paths, or CapExceeded when the graph is too big."""
    if len(dag.nodes) > node_cap:
        raise CapExceeded(f"{len(dag.nodes)} nodes exceed the cap of {node_cap}")
    sources = [i for i in range(len(dag.nodes)) if not dag.pred[i]]
    paths: List[List[int]] = []
    stack: List[int] = []

    def walk(i: int) -> None:
        stack.append(i)
        if not dag.succ[i]:
            if len(paths) >= path_cap:
                raise CapExceeded(f"more than {path_cap} maximal paths")
            paths.append(list(stack))
        else:
            for j in sorted(dag.succ[i]):
                walk(j)
        stack.pop()

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, node_cap * 4 + 100))
    try:
        for s in sorted(sources):
            walk(s)
    finally:
        sys.setrecursionlimit(old)
    return paths


class PartitionCell:
    """One strip of a cell partition, rebuilt from the partition's arrays.

    The strip lies in the cone between rays d1 and d2 at the apex, above
    its inner chord (the apex when there is none) and below its outer
    chord; t_inner and t_outer are where those chords cross the mid-ray
    apex + t*(d1 + d2).
    """

    def __init__(self, face: int, designated: bool, apex: Point,
                 rays: Tuple[Point, Point], outer: Tuple[Point, Point],
                 inner: Optional[Tuple[Point, Point]],
                 t_inner: Fraction, t_outer: Fraction):
        self.face = face
        self.designated = designated
        self.apex = apex
        self.rays = rays
        self.outer = outer
        self.inner = inner
        d1, d2 = rays
        self.rep = apex + (d1 + d2).scaled((t_inner + t_outer) / 2)

    @property
    def ring(self) -> Tuple[Point, ...]:
        corners = [self.apex] if self.inner is None else []
        for chord, rays in ((self.inner, self.rays[::-1]), (self.outer, self.rays)):
            if chord is None:
                continue
            a, b = chord
            for d in rays:
                x = line_intersection(self.apex, d, a, b - a)
                if x is None:
                    raise InvariantViolation("cell ray is parallel to its chord")
                corners.append(x)
        return tuple(p for i, p in enumerate(corners) if p != corners[i - 1])


def partition_cells(partition: CellPartition) -> List[PartitionCell]:
    """The partition's cells in its own order, with their geometry.

    Rebuilt from the integer arrays and the chords: the depth order
    gives each cell its chord and inner neighbour, the mid-ray
    parameters are recomputed in Fractions, and a face's designated cell
    is its first cell. Cached on the partition, whose cells never change.
    """
    cache = getattr(partition, "_oracle_cells", None)
    if cache is not None:
        return cache
    anchor = partition.anchor
    chord_of: List[int] = [-1] * len(partition.cells)
    for ci, (first, last) in enumerate(partition.chord_spans):
        for c, depth in zip(range(first, last), partition.chord_depths[ci]):
            chord_of[partition.cone_start[c] + depth] = ci
    rays = [Point(Fraction(dx), Fraction(dy)) for dx, dy in partition.rays]
    seen: Set[int] = set()
    cells: List[PartitionCell] = []
    for c in range(len(rays) - 1):
        pair = (rays[c], rays[c + 1])
        dmid = pair[0] + pair[1]
        inner: Optional[Tuple[Point, Point]] = None
        t_inner = Fraction(0)
        for k in range(partition.cone_start[c], partition.cone_start[c + 1]):
            chord = partition.chords[chord_of[k]]
            cd = chord.dst - chord.src
            t_outer = (chord.src - anchor).cross(cd) / dmid.cross(cd)
            face = partition.cells[k]
            cells.append(PartitionCell(face, face not in seen, anchor, pair,
                                       (chord.src, chord.dst), inner, t_inner, t_outer))
            seen.add(face)
            inner, t_inner = (chord.src, chord.dst), t_outer
    partition._oracle_cells = cells
    return cells


def cell_weights(partition: CellPartition) -> List[int]:
    """Weight of each cell: 1 on the designated cell of an uncovered face."""
    return [1 if cell.designated and partition.uncovered >> cell.face & 1 else 0
            for cell in partition_cells(partition)]


def _rep_triples(partition: CellPartition) -> List[Tuple[int, int, int]]:
    # cached on the partition; cell geometry never changes
    cache = getattr(partition, "_oracle_rep_triples", None)
    if cache is None:
        cache = [_homog(cell.rep) for cell in partition_cells(partition)]
        partition._oracle_rep_triples = cache
    return cache


def naive_sst_weight(v: Point, s: "DirectedSubsegment",
                     partition: CellPartition) -> int:
    """Sum of weights of cells whose representative the SST contains.

    Containment per cell is the closed point-in-triangle test, evaluated
    in integer homogeneous coordinates: with positive third components
    the sign of det(a, b, c) equals orientation(a, b, c), exactly.
    """
    if orientation(v, s.src, s.dst) == COLLINEAR:
        return 0
    corners = [_homog(v), _homog(s.src), _homog(s.dst)]
    coefs = []
    for k in range(3):
        ax, ay, aw = corners[k]
        bx, by, bw = corners[(k + 1) % 3]
        coefs.append((ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx))
    total = 0
    for weight, (cx, cy, cw) in zip(cell_weights(partition), _rep_triples(partition)):
        if all(a * cx + b * cy + c * cw >= 0 for a, b, c in coefs):
            total += weight
    return total


def _sweeps_nothing(dag: PeelDag, path: Sequence[int]) -> bool:
    """True iff the path never leaves a line through the anchor: it
    sweeps a degenerate polygon that covers nothing."""
    return all(orientation(dag.anchor, dag.nodes[i].src, dag.nodes[i].dst)
               == COLLINEAR for i in path)


def naive_path_weight(dag: PeelDag, path: Sequence[int]) -> int:
    """Face weight of a path polygon counted cell by cell."""
    part = dag.partition
    if _sweeps_nothing(dag, path):
        return 0
    poly = path_polygon(dag, path)
    total = 0
    for cell, weight in zip(partition_cells(part), cell_weights(part)):
        if poly.contains(cell.rep):
            total += weight
    return total


@dataclass(frozen=True)
class CandidateFamily:
    """Every anchored restricted polygon, with its face-coverage bitset."""
    polygons: Tuple[ConvexPolygon, ...]
    masks: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.polygons)


def candidate_family(arr: Arrangement, dags: Sequence[PeelDag],
                     node_cap: int = 200, path_cap: int = 20000
                     ) -> CandidateFamily:
    """Deduplicated path polygons of all maximal paths of all graphs."""
    seen: Set[Tuple[Point, ...]] = set()
    polys: List[ConvexPolygon] = []
    masks: List[int] = []
    for dag in dags:
        for path in enumerate_maximal_paths(dag, node_cap, path_cap):
            if _sweeps_nothing(dag, path):
                continue
            poly = path_polygon(dag, path)
            if poly.ring in seen:
                continue
            seen.add(poly.ring)
            mask = 0
            for fi, face in enumerate(arr.faces):
                if poly.contains(face.rep):
                    mask |= 1 << fi
            polys.append(poly)
            masks.append(mask)
    return CandidateFamily(tuple(polys), tuple(masks))


def exact_min_restricted_cover(arr: Arrangement, family: CandidateFamily,
                               size_cap: int = 6, family_cap: int = 5000) -> int:
    """Minimum number of family polygons covering all faces.

    Exhaustive search with iterative deepening; raises CapExceeded when
    the candidate family or the search depth grows beyond the caps.
    """
    if len(family) > family_cap:
        raise CapExceeded(f"candidate family of {len(family)} exceeds {family_cap}")
    masks = sorted(set(family.masks), reverse=True)
    # drop dominated candidates
    keep: List[int] = []
    for m in masks:
        if not any(m | k == k for k in keep):
            keep.append(m)
    full = (1 << arr.face_count()) - 1
    if not keep:
        raise CapExceeded("no candidates enumerated")

    per_face: List[List[int]] = []
    for fi in range(arr.face_count()):
        owners = [m for m in keep if m >> fi & 1]
        if not owners:
            raise CapExceeded("a face is not covered by any candidate")
        per_face.append(owners)

    def search(covered: int, depth: int) -> bool:
        if covered == full:
            return True
        if depth == 0:
            return False
        fi = min((f for f in range(arr.face_count()) if not covered >> f & 1),
                 key=lambda f: len(per_face[f]))
        for m in per_face[fi]:
            if search(covered | m, depth - 1):
                return True
        return False

    for k in range(1, size_cap + 1):
        if search(0, k):
            return k
    raise CapExceeded(f"no cover of size <= {size_cap} found")


def sample_inscribed_convex(poly: PolygonWithHoles, seed: int,
                            count: int, denom: int = 4) -> List[ConvexPolygon]:
    """Random convex polygons inside the region, by rejection.

    Hulls of small batches of interior grid points, kept when every hull
    edge stays inside the region. Deterministic for a fixed seed.
    """
    from .cover import triangulate
    from .exact_geom import Segment, clip_convex

    rng = random.Random(seed)
    xs = [v.x for v in poly.outer]
    ys = [v.y for v in poly.outer]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    hole_triangles: List[Tuple[Point, ...]] = []
    for hole in poly.holes:
        filled = PolygonWithHoles(tuple(reversed(hole)))
        hole_triangles.extend(t.ring for t in triangulate(filled))
    out: List[ConvexPolygon] = []
    attempts = 0
    while len(out) < count and attempts < 10000 * count:
        attempts += 1
        pts: List[Point] = []
        for _ in range(rng.randint(3, 6)):
            x = Fraction(rng.randint(int(x0 * denom), int(x1 * denom)), denom)
            y = Fraction(rng.randint(int(y0 * denom), int(y1 * denom)), denom)
            p = pt(x, y)
            if point_location(p, poly) is Location.INTERIOR:
                pts.append(p)
        if len(pts) < 3:
            continue
        hull = convex_hull(pts)
        if hull is None or len(hull) < 3:
            continue
        n = len(hull)
        if not all(segment_in_polygon(Segment(hull[i], hull[(i + 1) % n]), poly)
                   for i in range(n)):
            continue
        # edges inside is not enough: the hull could swallow a hole
        if any(clip_convex(hull, tri) is not None for tri in hole_triangles):
            continue
        out.append(ConvexPolygon(hull))
    if len(out) < count:
        raise CapExceeded("rejection sampling starved; region too thin")
    return out
