"""Command line front end: cover, peel, verify, stats, render.

Exit codes: 0 success, 2 bad usage or invalid input, 3 verification
failure, 4 internal error (the program is at fault, not the input: one
"error: internal:" line, no traceback). Solution data goes to stdout (or
the -o file); anything meant for humans goes to stderr, so reruns stay
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from .arrangement import build_arrangement
from .cover import check_pieces, greedy_cover, verify_cover
from .errors import (CapExceeded, CycleDetected, InvalidPolygonError, InvariantViolation,
                     NonConvexClosure, PreconditionViolation)
from .fileio import (
    decode_number,
    decode_rings,
    dump_json,
    encode_number,
    encode_ring,
    load_instance,
    load_regions,
    load_solution,
    solution_to_dict,
)
from .rotten import RottenSet, rotten_potato_peel


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_cover(args: argparse.Namespace) -> int:
    name, poly = load_instance(args.instance)
    t0 = time.monotonic()
    sol = greedy_cover(poly, max_iters=args.max_iters)
    dt = time.monotonic() - t0
    meta: Dict[str, Any] = {
        "iterations": sol.iterations,
        "faces": sol.face_count,
        "pieces": len(sol.pieces),
    }
    if sol.algorithm == "greedy-cover":
        meta["gains"] = sol.gains
    text = dump_json(solution_to_dict(name, sol.algorithm, sol.pieces, meta))
    _write_output(text, args.output)
    print(f"{name}: {len(sol.pieces)} pieces by {sol.algorithm} "
          f"in {dt:.3f}s", file=sys.stderr)
    vr = verify_cover(poly, sol.arrangement, sol.pieces)
    if not vr.ok:
        for msg in vr.messages:
            print(f"verification failed: {msg}", file=sys.stderr)
        return 3
    return 0


def cmd_peel(args: argparse.Namespace) -> int:
    name, poly = load_instance(args.instance)
    regions = load_regions(args.rotten)
    t0 = time.monotonic()
    sol = rotten_potato_peel(poly, regions)
    dt = time.monotonic() - t0
    meta = {
        "value": encode_number(sol.value),
        "vertex_index": sol.vertex_index,
        "regions": [encode_ring(r) for r in regions],
    }
    text = dump_json(solution_to_dict(name, sol.algorithm, [sol.polygon], meta))
    _write_output(text, args.output)
    print(f"{name}: good area {sol.value} anchored at vertex "
          f"{sol.vertex_index} in {dt:.3f}s", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    name, poly = load_instance(args.instance)
    sol_name, algorithm, polygons, meta = load_solution(args.solution)
    report: Dict[str, Any] = {"instance": name, "algorithm": algorithm}

    if algorithm == "rotten-peel":
        regions = decode_rings(meta.get("regions", []), "regions")
        rotten = RottenSet.build(poly, regions)
        ok = True
        notes: List[str] = []
        if len(polygons) != 1:
            ok = False
            notes.append("peel solution must contain exactly one polygon")
        else:
            piece = polygons[0]
            convex_ok, containment_ok, messages = check_pieces(poly, [piece])
            if not (convex_ok and containment_ok):
                ok = False
                notes.extend(messages)
            claimed = decode_number(meta.get("value", 0))
            actual = rotten.good_area_of(piece.ring)
            report["value"] = encode_number(actual)
            if claimed != actual:
                ok = False
                notes.append(f"claimed value {claimed} but recomputed {actual}")
        report["ok"] = ok
        report["messages"] = notes
    else:
        vr = verify_cover(poly, None, polygons)
        report.update({
            "ok": vr.ok,
            "convex_ok": vr.convex_ok,
            "containment_ok": vr.containment_ok,
            "coverage_ok": vr.coverage_ok,
            "messages": vr.messages,
        })
        if args.oracle:
            report["oracle"] = _oracle_report(poly, len(polygons))

    sys.stdout.write(dump_json(report))
    return 0 if report["ok"] else 3


def _oracle_report(poly, piece_count: int) -> Dict[str, Any]:
    """Compare the cover size against the exhaustive anchored optimum."""
    import math
    from .oracle import candidate_family, exact_min_restricted_cover
    from .peel_dag import build_anchor_dags
    arr = build_arrangement(poly)
    dags = build_anchor_dags(poly, arr, with_partition=True)
    try:
        opt = exact_min_restricted_cover(arr, candidate_family(arr, dags))
    except CapExceeded as exc:
        return {"status": f"skipped: {exc}"}
    bound = (math.log(arr.face_count()) + 1) * opt
    return {
        "status": "ok",
        "optimum": opt,
        "bound": f"{bound:.6f}",
        "within_bound": piece_count <= bound,
    }


def cmd_stats(args: argparse.Namespace) -> int:
    name, poly = load_instance(args.instance)
    arr = build_arrangement(poly)
    stats = {
        "D": len(arr.extensions),
        "V_D": len(arr.vertices),
        "U": arr.face_count(),
    }
    sys.stdout.write(dump_json(stats))
    print(f"{name}: {poly.vertex_count()} vertices, "
          f"{poly.hole_count()} holes", file=sys.stderr)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from .render import render_svg
    name, poly = load_instance(args.instance)
    pieces = []
    if args.solution:
        _, _, pieces, _ = load_solution(args.solution)
    arr = build_arrangement(poly) if args.show_arrangement else None
    _write_output(render_svg(poly, pieces, arr), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="convexcover",
        description="Convex covers and rotten-region peels of polygons with holes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cover", help="cover the polygon with convex pieces")
    p.add_argument("instance")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("peel", help="largest convex region avoiding rotten parts")
    p.add_argument("instance")
    p.add_argument("rotten")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_peel)

    p = sub.add_parser("verify", help="check a solution file")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--oracle", action="store_true",
                   help="also compare against the exhaustive optimum")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="arrangement statistics")
    p.add_argument("instance")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("render", help="draw an instance (and solution) as SVG")
    p.add_argument("instance")
    p.add_argument("solution", nargs="?", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--show-arrangement", action="store_true")
    p.set_defaults(func=cmd_render)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InvalidPolygonError, PreconditionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, CycleDetected, NonConvexClosure) as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
