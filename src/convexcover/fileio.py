"""Instance and solution files: JSON with exact rational coordinates.

Numbers are integers or strings of the form "p/q"; floats are rejected
so nothing is ever rounded. Serialization is canonical (sorted keys,
fixed separators) and reruns produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import InvalidPolygonError
from .exact_geom import (
    ConvexPolygon,
    Point,
    PolygonWithHoles,
    pt,
    Rational,
)


def decode_number(value: Any) -> Rational:
    if isinstance(value, bool):
        raise InvalidPolygonError("boolean is not a coordinate")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidPolygonError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        raise InvalidPolygonError(
            "float coordinates are not accepted; use int or \"p/q\"")
    raise InvalidPolygonError(f"bad coordinate {value!r}")


def encode_number(value: Rational) -> Any:
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def decode_point(value: Any) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidPolygonError(f"a point must be a pair, got {value!r}")
    return pt(decode_number(value[0]), decode_number(value[1]))


def encode_point(p: Point) -> List[Any]:
    return [encode_number(p.x), encode_number(p.y)]


def decode_ring(value: Any) -> Tuple[Point, ...]:
    if not isinstance(value, list):
        raise InvalidPolygonError("a ring must be a list of points")
    return tuple(decode_point(v) for v in value)


def encode_ring(ring: Sequence[Point]) -> List[List[Any]]:
    return [encode_point(p) for p in ring]


def decode_rings(value: Any, what: str) -> List[Tuple[Point, ...]]:
    if not isinstance(value, list):
        raise InvalidPolygonError(f"{what} must be a list of rings")
    return [decode_ring(r) for r in value]


def parse_instance(data: Dict[str, Any]) -> Tuple[str, PolygonWithHoles]:
    if not isinstance(data, dict) or "outer" not in data:
        raise InvalidPolygonError("instance must be an object with an outer ring")
    name = data.get("name", "unnamed")
    outer = decode_ring(data["outer"])
    holes = decode_rings(data.get("holes", []), "holes")
    return str(name), PolygonWithHoles(outer, holes)


def load_instance(path: str) -> Tuple[str, PolygonWithHoles]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(json.load(fh))


def parse_regions(data: Dict[str, Any]) -> List[Tuple[Point, ...]]:
    if not isinstance(data, dict) or "regions" not in data:
        raise InvalidPolygonError("rotten file must be an object with regions")
    return decode_rings(data["regions"], "regions")


def load_regions(path: str) -> List[Tuple[Point, ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_regions(json.load(fh))


def solution_to_dict(instance_name: str, algorithm: str,
                     polygons: Sequence[ConvexPolygon],
                     metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    return {
        "instance": instance_name,
        "algorithm": algorithm,
        "polygons": [encode_ring(p.ring) for p in polygons],
        "metadata": metadata or {},
    }


def dump_json(data: Dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def parse_solution(data: Dict[str, Any]) -> Tuple[str, str, List[ConvexPolygon], Dict[str, Any]]:
    if not isinstance(data, dict) or "polygons" not in data:
        raise InvalidPolygonError("solution must be an object with polygons")
    name = str(data.get("instance", "unnamed"))
    algorithm = str(data.get("algorithm", "unknown"))
    polygons = [ConvexPolygon(decode_ring(r)) for r in data["polygons"]]
    meta = data.get("metadata", {})
    if not isinstance(meta, dict):
        raise InvalidPolygonError("metadata must be an object")
    return name, algorithm, polygons, meta


def load_solution(path: str) -> Tuple[str, str, List[ConvexPolygon], Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solution(json.load(fh))
