"""Per-anchor peel structures: chords, directed subsegments, weights, paths.

For an anchor vertex v with star-shaped region P_v, the chords are read
off the arrangement: P_v is a union of faces bounded by sub-edges, and
each maximal run of its sub-edges along one extension is a chord,
directed by the boundary order around v. Chord pieces between
consecutive arrangement vertices are the nodes of an acyclic turn graph.
A node weight is the weight of the triangle (v, node); maximal paths
correspond exactly to restricted convex polygons containing v, and the
heaviest one is found by dynamic programming.

Weights come in two flavours: face counting for cover iterations and
plain good area for peeling around rotten regions. Face counting is in
integers: the partition around v gives each arrangement face one
designated cell, which weighs 1 while the face is uncovered (every other
cell weighs 0), and each node keeps a bitmask of the designated cells it
sweeps, so its weight is one masked bit count per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .arrangement import Arrangement
from .errors import CycleDetected, InvariantViolation, NonConvexClosure, PreconditionViolation
from .exact_geom import (
    ccw_compare_from,
    COLLINEAR,
    on_segment,
    orientation,
    Point,
    PolygonWithHoles,
    primitive_direction,
    Rational,
    RIGHT,
    ring_area,
    Segment,
    segment_param,
)
from .visibility import VisibilityPolygon, visibility_polygon


@dataclass(frozen=True)
class ClippedSegment:
    """One chord: a maximal run of region sub-edges along one extension.

    vids lists its V_D vertex ids from src to dst; src comes first in
    the counterclockwise boundary order that starts at the anchor.
    """
    ext_index: int
    src: Point
    dst: Point
    vids: Tuple[int, ...]


@dataclass
class DirectedSubsegment:
    """Graph node: the piece of a chord between adjacent V_D points.

    The weight is an int face count for cover rounds and a Fraction good
    area for the peel.
    """
    index: int
    chord: int
    src: Point
    dst: Point
    weight: int | Fraction = 0


@dataclass
class CellPartition:
    """Cells around one anchor as integer arrays, and one face mask per node.

    Consecutive rays (primitive integer directions, counterclockwise)
    bound the cones. The chords crossing a cone are nested, and the
    strips between them are its cells. cells holds each cell's face id,
    cone by cone and from the anchor outwards: cone c owns
    cells[cone_start[c]:cone_start[c + 1]]. Chord ci crosses cones
    chord_spans[ci][0] up to chord_spans[ci][1] - 1, and
    chord_depths[ci] holds its depth in each of them; a radial chord
    crosses none and has span (0, 0).

    The first cell of each face in this order is the face's designated
    cell. It carries the face's unit weight and every other cell weighs
    0, so a polygon that is a union of faces weighs the number of
    uncovered faces in it. Bit f of node_masks[i] is set when node i
    sweeps the designated cell of face f.
    """
    anchor: Point
    chords: Sequence[ClippedSegment]
    rays: List[Tuple[int, int]]
    cells: List[int]
    cone_start: List[int]
    chord_spans: List[Tuple[int, int]]
    chord_depths: List[List[int]]
    node_masks: List[int]
    uncovered: int = 0                     # bit f set while face f is uncovered

    def assign_face_weights(self, covered: Sequence[bool]) -> None:
        self.uncovered = sum(1 << f for f, done in enumerate(covered) if not done)


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


def clip_and_orient(ring: Sequence[Point], arr: Arrangement) -> List[ClippedSegment]:
    """Read the region's chords off the arrangement and orient them.

    Walking the ring (which starts at the anchor) along its extensions
    marks the boundary sub-edges and numbers the boundary vertices in
    walk order. The region's sub-edges are the marked ones (which keeps
    one-dimensional spikes of a split piece) and those of the faces
    flooded from the anchor without crossing a marked one. A chord is a
    maximal run of them along one extension, directed from its
    first-walked end.
    """
    corners = [arr.vertex_ids.get(p) for p in ring]
    if None in corners:
        raise InvariantViolation("region corner is not an arrangement vertex")
    walk = corners[:1]
    for a, b in zip(corners, corners[1:] + corners[:1]):
        ei = arr.shared_extension(a, b)
        i, j = arr.ext_position[a][ei], arr.ext_position[b][ei]
        line = arr.ext_points[ei]
        walk.extend(line[i + 1:j + 1] if i < j else line[j:i][::-1])
    seq = {v: k for k, v in enumerate(dict.fromkeys(walk))}
    marked = set(zip(walk, walk[1:])) | set(zip(walk[1:], walk))

    # both half-edges of an in-region sub-edge end up in inside: a marked
    # one was added both ways, and an unmarked one borders two flooded faces
    inside = set(marked)
    stack = [arr.halfedge_face[(walk[0], walk[1])]]
    seen = set(stack)
    while stack:
        f = stack.pop()
        if f is None:
            raise InvariantViolation("region flood left the polygon")
        vids = arr.faces[f].vids
        for a, b in zip(vids, vids[1:] + vids[:1]):
            inside.add((a, b))
            g = arr.halfedge_face[(b, a)]
            if (a, b) not in marked and g not in seen:
                seen.add(g)
                stack.append(g)

    chords: List[ClippedSegment] = []
    for ei, line in enumerate(arr.ext_points):
        run = line[:1]
        for p, q in zip(line, line[1:] + [-1]):  # no vid -1: it ends the last run
            if (p, q) in inside:
                run.append(q)
                continue
            if len(run) > 1:
                if run[0] not in seq or run[-1] not in seq:
                    raise InvariantViolation("chord ends off the region boundary")
                if seq[run[0]] > seq[run[-1]]:
                    run.reverse()
                chords.append(ClippedSegment(ei, arr.vertices[run[0]],
                                             arr.vertices[run[-1]], tuple(run)))
            run = [q]
    return chords


def _chord_is_radial(chord: ClippedSegment, anchor: Point) -> bool:
    return orientation(chord.src, chord.dst, anchor) == COLLINEAR


def build_dag(vertex_index: int, piece_tag: int, anchor: Point,
              ring: Sequence[Point], arr: Arrangement,
              with_partition: bool = True) -> PeelDag:
    """Assemble nodes, turn edges and (optionally) the cell partition."""
    chords = clip_and_orient(ring, arr)
    nodes: List[DirectedSubsegment] = []
    by_src: Dict[int, List[int]] = {}
    by_dst: Dict[int, List[int]] = {}
    for ci, chord in enumerate(chords):
        vids = chord.vids
        for a, b in zip(vids, vids[1:]):
            by_src.setdefault(a, []).append(len(nodes))
            by_dst.setdefault(b, []).append(len(nodes))
            nodes.append(DirectedSubsegment(len(nodes), ci, arr.vertices[a], arr.vertices[b]))

    succ: List[List[int]] = [[] for _ in nodes]
    pred: List[List[int]] = [[] for _ in nodes]
    for q, incoming in by_dst.items():
        outgoing = by_src.get(q, ())
        for i in incoming:
            for j in outgoing:
                if orientation(nodes[i].src, nodes[i].dst, nodes[j].dst) != RIGHT:
                    succ[i].append(j)
                    pred[j].append(i)

    topo = _topological_order(len(nodes), succ, pred)
    dag = PeelDag(vertex_index, piece_tag, anchor, tuple(ring),
                    chords, nodes, succ, pred, topo)
    if with_partition:
        dag.partition = cell_partition(ring, anchor, chords, arr)
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
                   chords: Sequence[ClippedSegment], arr: Arrangement) -> CellPartition:
    """Split the region into strips bounded by chords inside angular cones.

    Rays go to every arrangement vertex in the region; between two
    consecutive rays the crossing chords are nested, so the strips
    between them partition the cone. Each strip inherits the face of the
    chord sub-edge it leans on, read off the half-edge record.
    The node masks follow the node order of build_dag, chord by chord,
    then sub-edge by sub-edge along the chord.
    """
    anchor_vid = arr.vertex_ids[anchor]
    direction: Dict[int, Tuple[int, int]] = {}
    for chord in chords:
        for v in chord.vids:
            if v != anchor_vid and v not in direction:
                direction[v] = primitive_direction(arr.vertices[v] - anchor)
    rays = sorted(set(direction.values()),
                  key=cmp_to_key(ccw_compare_from(primitive_direction(ring[1] - anchor))))
    ray_index = {d: i for i, d in enumerate(rays)}
    dmids = [(ax + bx, ay + by) for (ax, ay), (bx, by) in zip(rays, rays[1:])]

    # A chord's line meets the mid-ray anchor + t*dmid of a cone it
    # crosses at t = ((src - anchor) x e) / (dmid x e) for any positive
    # multiple e of dst - src; e = primitive(dst - src) leaves one
    # rational numerator per chord and one int denominator per cone.
    # Walking a chord in CCW boundary order keeps the anchor side on its
    # left, so the near face of every strip leaning on a chord sub-edge is
    # the face left of that directed sub-edge.
    cone_entries: List[List[Tuple[Fraction, int, int]]] = [[] for _ in dmids]
    chord_rays: List[Optional[List[int]]] = [None] * len(chords)
    chord_spans: List[Tuple[int, int]] = [(0, 0)] * len(chords)
    chord_depths: List[List[int]] = [[] for _ in chords]
    for ci, chord in enumerate(chords):
        if _chord_is_radial(chord, anchor):
            continue
        vids = chord.vids
        rs = [ray_index[direction[v]] for v in vids]
        chord_rays[ci] = rs
        chord_spans[ci] = (rs[0], rs[-1])
        chord_depths[ci] = [0] * (rs[-1] - rs[0])
        ex, ey = primitive_direction(chord.dst - chord.src)
        s = chord.src - anchor
        numer = s.x * ey - s.y * ex
        num, den = numer.numerator, numer.denominator
        for j in range(len(vids) - 1):
            if rs[j] >= rs[j + 1]:
                raise InvariantViolation("chord does not turn counterclockwise about the anchor")
            face = arr.halfedge_face.get((vids[j], vids[j + 1]))
            if face is None:
                raise InvariantViolation("strip leans on an exterior face")
            for c in range(rs[j], rs[j + 1]):
                mx, my = dmids[c]
                denom = mx * ey - my * ex
                if denom == 0:
                    raise InvariantViolation("chord is parallel to a mid-ray it crosses")
                cone_entries[c].append((Fraction(num, den * denom), ci, face))

    # entries arrive in chord order and a chord crosses a cone once, so a
    # stable sort by t alone is the (t, chord, face) order
    cells: List[int] = []
    cone_start = [0]
    designated = bytearray(arr.face_count())
    chord_cone_masks: List[List[int]] = [[0] * len(d) for d in chord_depths]
    for c, entries in enumerate(cone_entries):
        entries.sort(key=itemgetter(0))
        mask = 0                           # designated faces up to this depth
        for depth, (_, ci, face) in enumerate(entries):
            if not designated[face]:
                designated[face] = 1
                mask |= 1 << face
            k = c - chord_spans[ci][0]
            chord_depths[ci][k] = depth
            chord_cone_masks[ci][k] = mask
            cells.append(face)
        cone_start.append(len(cells))

    # Each face is designated in one cone only, so the masks of distinct
    # cones are disjoint and a node's mask is the difference of two
    # running ORs along its chord.
    node_masks: List[int] = []
    for ci, chord in enumerate(chords):
        rs = chord_rays[ci]
        if rs is None:
            node_masks.extend([0] * (len(chord.vids) - 1))
            continue
        run = [0]
        for m in chord_cone_masks[ci]:
            run.append(run[-1] | m)
        first = rs[0]
        node_masks.extend(run[b - first] ^ run[a - first] for a, b in zip(rs, rs[1:]))

    return CellPartition(anchor=anchor, chords=chords, rays=rays, cells=cells,
                         cone_start=cone_start, chord_spans=chord_spans,
                         chord_depths=chord_depths, node_masks=node_masks)


def sst_weights(dag: PeelDag) -> None:
    """Node weight = number of uncovered faces whose designated cell the
    node sweeps between itself and the anchor: one masked bit count."""
    part = dag.partition
    if part is None:
        raise PreconditionViolation("graph was built without a cell partition")
    uncovered = part.uncovered
    for nd, mask in zip(dag.nodes, part.node_masks):
        nd.weight = (mask & uncovered).bit_count()


def assign_area_weights(dag: PeelDag, good_area) -> None:
    """Node weight = good_area(triangle(anchor, src, dst)); good_area
    must give 0 for a flat triangle."""
    for nd in dag.nodes:
        nd.weight = good_area((dag.anchor, nd.src, nd.dst))


def heaviest_maximal_path(dag: PeelDag) -> Tuple[List[int], int | Fraction]:
    """One maximal path of maximum total node weight, and that weight.

    Ties break toward the lowest node index at every choice, so reruns
    are reproducible. The chosen path is extended with zero-weight nodes
    until maximal on both ends.
    """
    if not dag.nodes:
        return [], 0
    # sums start at int 0: face counts stay ints, good areas stay Fractions
    val: List[int | Fraction] = [0] * len(dag.nodes)
    for i in dag.topo:
        best = 0
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
        if not prevs:
            raise InvariantViolation("dynamic programming backtrack lost the trail")
        path.insert(0, min(prevs))
    # every successor of a maximum-value node necessarily weighs zero
    while dag.succ[path[-1]]:
        j = min(dag.succ[path[-1]])
        if dag.nodes[j].weight != 0:
            raise InvariantViolation("a successor of the heaviest end node has weight")
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


def reflex_split(poly: PolygonWithHoles, arr: Arrangement, v: Point
                 ) -> Tuple[Tuple[Point, ...], Tuple[Point, ...]]:
    """Split the star region of a reflex vertex into its two halves.

    The cut continues the boundary edge arriving at v through v to the
    far side of the region v sees. Both halves keep v on their boundary,
    straight or convex there.
    """
    if not poly.is_reflex(v):
        raise PreconditionViolation(f"{v} is not a reflex vertex")
    pieces = _split_star(visibility_polygon(poly, v), reflex_cut_end(poly, arr, v))
    if len(pieces) != 2:
        raise InvariantViolation("reflex cut must leave two positive pieces")
    return pieces[0], pieces[1]


def reflex_cut_end(poly: PolygonWithHoles, arr: Arrangement, v: Point) -> Point:
    """Far end of the reflex cut at v.

    The cut runs from v away from the vertex u before it until it leaves
    the polygon, which is where the extension through u and v ends.
    """
    u, _ = poly.neighbors(v)
    ui, vi = arr.vertex_ids[u], arr.vertex_ids[v]
    ei = arr.shared_extension(ui, vi)
    line = arr.ext_points[ei]
    z = line[-1] if arr.ext_position[ui][ei] < arr.ext_position[vi][ei] else line[0]
    if z == vi:
        raise InvariantViolation("cut direction must enter the region")
    return arr.vertices[z]


def _split_star(vp: VisibilityPolygon, z: Point) -> List[Tuple[Point, ...]]:
    """Cut the ring of vp along the segment from its anchor to the boundary point z."""
    v = vp.anchor
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
        if len(cand) >= 3 and ring_area(cand) > 0:
            pieces.append(tuple(cand))
    if not pieces:
        raise InvariantViolation("reflex cut destroyed the region")
    return pieces


def build_anchor_dags(poly: PolygonWithHoles, arr: Arrangement,
                      with_partition: bool = True) -> List[PeelDag]:
    """One graph per convex vertex, one per piece of each reflex vertex."""
    dags: List[PeelDag] = []
    for vi, v in enumerate(poly.vertices()):
        vp = visibility_polygon(poly, v)
        rings = (_split_star(vp, reflex_cut_end(poly, arr, v)) if poly.is_reflex(v)
                 else [vp.ring])
        dags.extend(build_dag(vi, tag, v, ring, arr, with_partition)
                    for tag, ring in enumerate(rings))
    return dags


@dataclass(frozen=True)
class GreedyChoice:
    value: int                             # uncovered faces the polygons cover
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
    per_vertex: Dict[int, List[Tuple[int, PeelDag, List[int]]]] = {}
    for dag in dags:
        dag.partition.assign_face_weights(covered)
        sst_weights(dag)
        path, w = heaviest_maximal_path(dag)
        per_vertex.setdefault(dag.vertex_index, []).append((w, dag, path))

    best: Optional[GreedyChoice] = None
    for vi in sorted(per_vertex):
        entries = per_vertex[vi]
        value = sum(w for w, _, _ in entries)
        polys = tuple(path_polygon(dag, path) for w, dag, path in entries if w > 0)
        if not polys:
            continue
        cand = GreedyChoice(value, vi, polys)
        if best is None or (cand.value, -len(cand.polygons), -cand.vertex_index) > \
                (best.value, -len(best.polygons), -best.vertex_index):
            best = cand
    return best
