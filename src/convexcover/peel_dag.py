"""Per-anchor peel structures: chords, directed subsegments, weights, paths.

For an anchor vertex v with star-shaped region P_v, every arrangement
segment clipped to P_v yields directed chords; chord pieces between
consecutive arrangement vertices are the nodes of an acyclic turn graph.
A node weight is the weight of the triangle (v, node); maximal paths
correspond exactly to restricted convex polygons containing v, and the
heaviest one is found by dynamic programming.

Weights come in two flavours: face counting for cover iterations (each
arrangement face spreads its weight uniformly over the cells it
contributes to the partition around v) and plain good area for peeling
around rotten regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Tuple

from .arrangement import Arrangement
from .errors import CycleDetected, NonConvexClosure, PreconditionViolation
from .exact_geom import (
    ccw_compare_from,
    COLLINEAR,
    line_intersection,
    Location,
    on_segment,
    orientation,
    Point,
    point_at,
    PolygonWithHoles,
    primitive_direction,
    Rational,
    RIGHT,
    ring_location,
    Segment,
    segment_param,
)
from .visibility import VisibilityPolygon, visibility_polygon


@dataclass(frozen=True)
class ClippedSegment:
    """One connected component of an arrangement segment inside P_v.

    lo and hi are parameters along the parent extension segment; src and
    dst order the chord by the boundary positions of its endpoints,
    counterclockwise from the anchor.
    """
    ext_index: int
    src: Point
    dst: Point
    lo: Rational
    hi: Rational
    forward: bool  # src sits at parameter lo


@dataclass
class DirectedSubsegment:
    """Graph node: the piece of a chord between adjacent V_D points."""
    index: int
    chord: int
    src: Point
    dst: Point
    weight: Fraction = Fraction(0)


@dataclass(slots=True)
class Cell:
    """Strip of the partition around the anchor.

    Only face and weight sit on the hot path; the ring and the interior
    representative are assembled on demand from the bounding rays,
    chords and mid-ray parameters.
    """
    face: int
    weight: Fraction
    apex: Point
    ray_pair: Tuple[Point, Point]          # cone directions d1, d2
    outer_chord: Tuple[Point, Point]       # chord bounding the strip outside
    inner_chord: Optional[Tuple[Point, Point]]
    t_inner: Fraction                      # mid-ray parameter range
    t_outer: Fraction
    _rep: Optional[Point] = None

    @property
    def rep(self) -> Point:
        if self._rep is None:
            d1, d2 = self.ray_pair
            mid = (self.t_inner + self.t_outer) / 2
            self._rep = self.apex + (d1 + d2).scaled(mid)
        return self._rep

    @property
    def ring(self) -> Tuple[Point, ...]:
        d1, d2 = self.ray_pair
        oa, ob = self.outer_chord
        od = ob - oa
        a = line_intersection(self.apex, d1, oa, od)
        b = line_intersection(self.apex, d2, oa, od)
        assert a is not None and b is not None
        if self.inner_chord is None:
            corners = [self.apex, a, b]
        else:
            ia, ib = self.inner_chord
            idd = ib - ia
            pa = line_intersection(self.apex, d1, ia, idd)
            pb = line_intersection(self.apex, d2, ia, idd)
            assert pa is not None and pb is not None
            corners = [pa, a, b, pb]
        return tuple(p for i, p in enumerate(corners) if p != corners[i - 1])


@dataclass
class CellPartition:
    """Cells around one anchor, organised by angular cone and depth."""
    anchor: Point
    rays: List[Point]                      # primitive directions, ccw
    cells: List[Cell]
    cone_cells: List[List[int]]            # per cone, cell ids by depth
    chord_spans: Dict[int, Tuple[int, int]]  # chord -> (first cone, last cone + 1)
    chord_depths: Dict[int, List[int]]       # chord -> depth per crossed cone
    face_cell_count: Dict[int, int]
    ray_index: Dict[Tuple[int, int], int]

    def assign_face_weights(self, covered: Sequence[bool]) -> None:
        zero = Fraction(0)
        for cell in self.cells:
            if covered[cell.face]:
                cell.weight = zero
            else:
                cell.weight = Fraction(1, self.face_cell_count[cell.face])


@dataclass
class PeelDag:
    """Everything the greedy step needs for one anchor piece."""
    vertex_index: int
    piece_tag: int
    anchor: Point
    ring: Tuple[Point, ...]
    chords: List[ClippedSegment]
    nodes: List[DirectedSubsegment]
    succ: List[List[int]]
    pred: List[List[int]]
    topo: List[int]
    partition: Optional[CellPartition] = None
    node_span: List[Tuple[int, int, int]] = field(default_factory=list)
    # node_span[i] = (chord, first ray index, last ray index) of node i


def _boundary_position(ring: Sequence[Point], p: Point) -> Tuple[int, Rational]:
    """Canonical (edge index, parameter in [0,1)) of a boundary point."""
    n = len(ring)
    for i in range(n):
        e = Segment(ring[i], ring[(i + 1) % n])
        if on_segment(p, e):
            t = segment_param(p, e)
            if t == 1:
                return ((i + 1) % n, Fraction(0))
            return (i, t)
    raise PreconditionViolation("point is not on the region boundary")


def _line_ring_hits(ring: Sequence[Point], origin: Point, direction: Point) -> List[Rational]:
    """Parameters where the line origin + t*direction meets the ring."""
    params: List[Rational] = []
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        ed = b - a
        denom = direction.cross(ed)
        if denom == 0:
            if orientation(a, b, origin) == COLLINEAR:
                params.append(segment_param(a, Segment(origin, origin + direction)))
                params.append(segment_param(b, Segment(origin, origin + direction)))
            continue
        s = (a - origin).cross(direction) / denom
        if 0 <= s <= 1:
            params.append((a - origin).cross(ed) / denom)
    return params


def _components_on_line(ring: Sequence[Point], origin: Point, direction: Point
                        ) -> List[Tuple[Rational, Rational]]:
    """Maximal intervals of the line lying inside the closed ring region."""
    params = sorted(set(_line_ring_hits(ring, origin, direction)))
    if len(params) < 2:
        return []
    comps: List[Tuple[Rational, Rational]] = []
    run: Optional[Tuple[Rational, Rational]] = None
    for lo, hi in zip(params, params[1:]):
        mid = point_at(Segment(origin, origin + direction), (lo + hi) / 2)
        if ring_location(mid, ring) is not Location.EXTERIOR:
            run = (run[0], hi) if run else (lo, hi)
        else:
            if run:
                comps.append(run)
            run = None
    if run:
        comps.append(run)
    return comps


def clip_and_orient(ring: Sequence[Point], anchor: Point, arr: Arrangement
                    ) -> List[ClippedSegment]:
    """Clip every arrangement segment to the region and orient the pieces.

    Zero-length components are discarded. Orientation follows the
    counterclockwise boundary order of the endpoints, starting at the
    anchor, so chords touching the anchor point away from it.
    """
    chords: List[ClippedSegment] = []
    for ei, ext in enumerate(arr.extensions):
        seg = ext.segment
        d = seg.direction()
        comps = []
        for lo, hi in _components_on_line(ring, seg.a, d):
            lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
            if lo < hi:
                comps.append((lo, hi))
        for lo, hi in comps:
            pa, pb = point_at(seg, lo), point_at(seg, hi)
            if _boundary_position(ring, pa) <= _boundary_position(ring, pb):
                chords.append(ClippedSegment(ei, pa, pb, lo, hi, True))
            else:
                chords.append(ClippedSegment(ei, pb, pa, lo, hi, False))
    return chords


def _chord_is_radial(chord: ClippedSegment, anchor: Point) -> bool:
    return orientation(chord.src, chord.dst, anchor) == COLLINEAR


def _chord_points(chord: ClippedSegment, arr: Arrangement) -> List[Point]:
    """V_D points along the chord, ordered from src to dst."""
    pts = [arr.vertex_point(vid)
           for _, vid in arr.points_on_extension(chord.ext_index, chord.lo, chord.hi)]
    if not chord.forward:
        pts.reverse()
    assert pts and pts[0] == chord.src and pts[-1] == chord.dst
    return pts


def build_dag(vertex_index: int, piece_tag: int, anchor: Point,
              ring: Sequence[Point], arr: Arrangement,
              with_partition: bool = True) -> PeelDag:
    """Assemble nodes, turn edges and (optionally) the cell partition."""
    chords = clip_and_orient(ring, anchor, arr)
    nodes: List[DirectedSubsegment] = []
    chord_pts: List[List[Point]] = []
    for ci, chord in enumerate(chords):
        pts = _chord_points(chord, arr)
        chord_pts.append(pts)
        for a, b in zip(pts, pts[1:]):
            nodes.append(DirectedSubsegment(len(nodes), ci, a, b))

    by_src: Dict[Point, List[int]] = {}
    by_dst: Dict[Point, List[int]] = {}
    for nd in nodes:
        by_src.setdefault(nd.src, []).append(nd.index)
        by_dst.setdefault(nd.dst, []).append(nd.index)

    succ: List[List[int]] = [[] for _ in nodes]
    pred: List[List[int]] = [[] for _ in nodes]
    for q, incoming in by_dst.items():
        outgoing = by_src.get(q, ())
        for i in incoming:
            for j in outgoing:
                if orientation(nodes[i].src, q, nodes[j].dst) != RIGHT:
                    succ[i].append(j)
                    pred[j].append(i)

    topo = _topological_order(len(nodes), succ, pred)
    dag = PeelDag(vertex_index, piece_tag, anchor, tuple(ring),
                    chords, nodes, succ, pred, topo)
    if with_partition:
        dag.partition = cell_partition(ring, anchor, chords, arr, chord_pts)
        dag.node_span = _node_spans(dag, chord_pts)
    return dag


def _topological_order(n: int, succ: List[List[int]], pred: List[List[int]]) -> List[int]:
    import heapq
    indeg = [len(p) for p in pred]
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != n:
        raise CycleDetected("turn graph is not acyclic")
    return order


def cell_partition(ring: Sequence[Point], anchor: Point,
                   chords: Sequence[ClippedSegment], arr: Arrangement,
                   chord_pts: Optional[List[List[Point]]] = None) -> CellPartition:
    """Split the region into strips bounded by chords inside angular cones.

    Rays go to every arrangement vertex in the region; between two
    consecutive rays the crossing chords are nested, so the strips
    between them partition the cone. Each strip inherits the face of the
    chord sub-edge it leans on, read off the half-edge record.
    """
    if chord_pts is None:
        chord_pts = [_chord_points(c, arr) for c in chords]
    dir_set = set()
    for pts in chord_pts:
        for p in pts:
            if p != anchor:
                dir_set.add(primitive_direction(p - anchor))

    d_start = ring[1] - anchor
    cmp = ccw_compare_from(d_start)
    rays = [Point(Fraction(dx), Fraction(dy)) for dx, dy in dir_set]
    rays.sort(key=cmp_to_key(cmp))
    ray_index = {primitive_direction(d): i for i, d in enumerate(rays)}
    ncones = len(rays) - 1
    dmids = [rays[c] + rays[c + 1] for c in range(ncones)]

    # Walking a chord in CCW boundary order keeps the anchor side on its
    # left, so the near face of every strip leaning on a chord sub-edge is
    # the face left of that directed sub-edge.
    zero = Fraction(0)
    cone_entries: List[List[Tuple[Fraction, int, int]]] = [[] for _ in range(ncones)]
    chord_spans: Dict[int, Tuple[int, int]] = {}
    chord_depths: Dict[int, List[int]] = {}
    for ci, chord in enumerate(chords):
        if _chord_is_radial(chord, anchor):
            continue
        pts = chord_pts[ci]
        rs = [ray_index[primitive_direction(p - anchor)] for p in pts]
        chord_spans[ci] = (rs[0], rs[-1])
        chord_depths[ci] = [0] * (rs[-1] - rs[0])
        cd = chord.dst - chord.src
        numer = (chord.src - anchor).cross(cd)
        for j in range(len(pts) - 1):
            assert rs[j] < rs[j + 1]
            va, vb = arr.vertex_ids[pts[j]], arr.vertex_ids[pts[j + 1]]
            face = arr.halfedge_face.get((va, vb))
            assert face is not None, "strip leans on an exterior face"
            for c in range(rs[j], rs[j + 1]):
                denom = dmids[c].cross(cd)
                assert denom != 0
                cone_entries[c].append((numer / denom, ci, face))

    cells: List[Cell] = []
    cone_cells: List[List[int]] = [[] for _ in range(ncones)]
    face_cell_count: Dict[int, int] = {}
    for c in range(ncones):
        layers = sorted(cone_entries[c])
        rpair = (rays[c], rays[c + 1])
        inner: Optional[Tuple[Point, Point]] = None
        prev_t = zero
        for t, ci, face in layers:
            chord = chords[ci]
            chord_depths[ci][c - chord_spans[ci][0]] = len(cone_cells[c])
            cells.append(Cell(face=face, weight=zero, apex=anchor, ray_pair=rpair,
                              outer_chord=(chord.src, chord.dst), inner_chord=inner,
                              t_inner=prev_t, t_outer=t))
            face_cell_count[face] = face_cell_count.get(face, 0) + 1
            cone_cells[c].append(len(cells) - 1)
            inner, prev_t = (chord.src, chord.dst), t

    return CellPartition(anchor=anchor, rays=rays, cells=cells,
                         cone_cells=cone_cells,
                         chord_spans=chord_spans, chord_depths=chord_depths,
                         face_cell_count=face_cell_count, ray_index=ray_index)


def _node_spans(dag: PeelDag, chord_pts: List[List[Point]]) -> List[Tuple[int, int, int]]:
    part = dag.partition
    spans: List[Tuple[int, int, int]] = []
    k = 0
    for ci, pts in enumerate(chord_pts):
        radial = _chord_is_radial(dag.chords[ci], dag.anchor)
        for a, b in zip(pts, pts[1:]):
            nd = dag.nodes[k]
            assert nd.src == a and nd.dst == b
            if radial:
                spans.append((ci, 0, 0))
            else:
                r0 = part.ray_index[primitive_direction(a - dag.anchor)]
                r1 = part.ray_index[primitive_direction(b - dag.anchor)]
                spans.append((ci, r0, r1))
            k += 1
    assert k == len(dag.nodes)
    return spans


def sst_weights(dag: PeelDag) -> None:
    """Node weight = total cell weight swept between the anchor and node.

    Uses prefix sums over strip depths per cone; a chord piece crossing a
    cone at depth d sweeps exactly the d+1 strips below it.
    """
    part = dag.partition
    assert part is not None
    prefixes: List[List[Fraction]] = []
    for c, cell_ids in enumerate(part.cone_cells):
        acc = Fraction(0)
        pref = []
        for cid in cell_ids:
            acc += part.cells[cid].weight
            pref.append(acc)
        prefixes.append(pref)
    for nd in dag.nodes:
        ci, r0, r1 = dag.node_span[nd.index]
        if r0 == r1:
            nd.weight = Fraction(0)
            continue
        base = part.chord_spans[ci][0]
        depths = part.chord_depths[ci]
        nd.weight = sum(prefixes[c][depths[c - base]] for c in range(r0, r1))


def assign_area_weights(dag: PeelDag, good_area) -> None:
    """Node weight = good_area(triangle(anchor, src, dst)); good_area
    must give 0 for a flat triangle."""
    for nd in dag.nodes:
        nd.weight = good_area((dag.anchor, nd.src, nd.dst))


def heaviest_maximal_path(dag: PeelDag) -> Tuple[List[int], Fraction]:
    """One maximal path of maximum total node weight, and that weight.

    Ties break toward the lowest node index at every choice, so reruns
    are reproducible. The chosen path is extended with zero-weight nodes
    until maximal on both ends.
    """
    if not dag.nodes:
        return [], Fraction(0)
    val: List[Fraction] = [Fraction(0)] * len(dag.nodes)
    for i in dag.topo:
        best = Fraction(0)
        for j in dag.pred[i]:
            if val[j] > best:
                best = val[j]
        val[i] = best + dag.nodes[i].weight

    end = min(range(len(dag.nodes)), key=lambda i: (-val[i], i))
    path = [end]
    # walk back along an optimal chain; when the residual hits zero the
    # chain continues through zero-value predecessors until a source
    while dag.pred[path[0]]:
        i = path[0]
        need = val[i] - dag.nodes[i].weight
        prevs = [j for j in dag.pred[i] if val[j] == need]
        assert prevs, "dynamic programming backtrack lost the trail"
        path.insert(0, min(prevs))
    # every successor of a maximum-value node necessarily weighs zero
    while dag.succ[path[-1]]:
        j = min(dag.succ[path[-1]])
        assert dag.nodes[j].weight == 0
        path.append(j)
    return path, val[end]


def path_polygon(dag: PeelDag, path: Sequence[int]) -> "ConvexPolygon":
    """Convex polygon swept by a maximal path around the anchor."""
    from .errors import InvalidPolygonError
    from .exact_geom import ConvexPolygon
    if not path:
        raise NonConvexClosure("empty path has no polygon")
    # fan closure: anchor, then the swept chain; duplicated and collinear
    # points (paths starting at the anchor, radial spurs, boundary runs
    # through a straight anchor) all collapse during normalization
    pts = [dag.anchor, dag.nodes[path[0]].src]
    for i in path:
        pts.append(dag.nodes[i].dst)
    try:
        return ConvexPolygon(pts)
    except InvalidPolygonError as exc:
        raise NonConvexClosure(f"path closure is not convex: {exc}") from exc


def reflex_split(poly: PolygonWithHoles, v: Point
                 ) -> Tuple[Tuple[Point, ...], Tuple[Point, ...]]:
    """Split the star region of a reflex vertex into its two halves.

    The cut continues the boundary edge arriving at v through v to the
    far side of the region v sees. Both halves keep v on their boundary,
    straight or convex there.
    """
    if not poly.is_reflex(v):
        raise PreconditionViolation(f"{v} is not a reflex vertex")
    pieces = _split_star(visibility_polygon(poly, v), poly)
    assert len(pieces) == 2, "reflex cut must leave two positive pieces"
    return pieces[0], pieces[1]


def _split_star(vp: VisibilityPolygon, poly: PolygonWithHoles
                ) -> List[Tuple[Point, ...]]:
    v = vp.anchor
    u, _ = poly.neighbors(v)
    d = v - u
    comps = _components_on_line(vp.ring, v, d)
    own = [c for c in comps if c[0] <= 0 <= c[1]]
    assert own, "cut direction must enter the region"
    hi = own[0][1]
    assert hi > 0
    z = v + d.scaled(hi)

    ring = list(vp.ring)
    n = len(ring)
    j, t = _boundary_position(ring, z)
    if t == 0:
        first = ring[:j + 1]
        second = [v, z] + ring[j + 1:] if j + 1 < n else [v, z]
    else:
        first = ring[:j + 1] + [z]
        second = [v, z] + ring[j + 1:]

    pieces = []
    for cand in (first, second):
        cand = [p for i, p in enumerate(cand) if p != cand[i - 1] or len(cand) == 1]
        if len(cand) >= 3 and _ring_area_positive(cand):
            pieces.append(tuple(cand))
    assert pieces, "reflex cut destroyed the region"
    return pieces


def _ring_area_positive(ring: Sequence[Point]) -> bool:
    from .exact_geom import ring_area
    return ring_area(ring) > 0


def build_anchor_dags(poly: PolygonWithHoles, arr: Arrangement,
                      with_partition: bool = True) -> List[PeelDag]:
    """One graph per convex vertex, one per piece of each reflex vertex."""
    dags: List[PeelDag] = []
    for vi, v in enumerate(poly.vertices()):
        vp = visibility_polygon(poly, v)
        rings = _split_star(vp, poly) if poly.is_reflex(v) else [vp.ring]
        dags.extend(build_dag(vi, tag, v, ring, arr, with_partition)
                    for tag, ring in enumerate(rings))
    return dags


@dataclass(frozen=True)
class GreedyChoice:
    value: Fraction
    vertex_index: int
    polygons: Tuple["ConvexPolygon", ...]


def best_restricted(arr: Arrangement, dags: Sequence[PeelDag]) -> Optional[GreedyChoice]:
    """Best anchored restricted polygon(s) for the current cover state.

    Convex anchors propose one polygon; reflex anchors propose the pair
    from their two pieces, valued by the sum. Zero-gain members of a
    pair are dropped from the proposal. Ties prefer higher value, then
    fewer polygons, then the lowest vertex index.
    """
    covered = [f.covered for f in arr.faces]
    per_vertex: Dict[int, List[Tuple[Fraction, PeelDag, List[int]]]] = {}
    for dag in dags:
        dag.partition.assign_face_weights(covered)
        sst_weights(dag)
        path, w = heaviest_maximal_path(dag)
        per_vertex.setdefault(dag.vertex_index, []).append((w, dag, path))

    best: Optional[GreedyChoice] = None
    for vi in sorted(per_vertex):
        entries = per_vertex[vi]
        value = sum((w for w, _, _ in entries), Fraction(0))
        polys = tuple(path_polygon(dag, path) for w, dag, path in entries if w > 0)
        if not polys:
            continue
        cand = GreedyChoice(value, vi, polys)
        if best is None or (cand.value, -len(cand.polygons), -cand.vertex_index) > \
                (best.value, -len(best.polygons), -best.vertex_index):
            best = cand
    return best
