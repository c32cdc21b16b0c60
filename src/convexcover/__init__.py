"""Approximate minimum convex cover and rotten potato peeling.

Exact rational geometry throughout: a polygon with holes is discretized
by its diagonal extensions, restricted convex polygons are searched as
heaviest paths in per-vertex peel graphs, and a greedy loop assembles a
logarithmic-factor convex cover with a triangulation fallback. The same
machinery peels the largest convex region avoiding marked rotten areas
within a factor of four.
"""

from .arrangement import (Arrangement, DiagonalExtension, Face, build_arrangement,
                          diagonal_extensions)
from .cover import CoverSolution, VerificationReport, greedy_cover, triangulate, verify_cover
from .errors import (CycleDetected, InvalidPolygonError, InvariantViolation, NonConvexClosure,
                     PreconditionViolation)
from .exact_geom import ConvexPolygon, Point, PolygonWithHoles, pt
from .peel_dag import PeelDag, build_anchor_dags, heaviest_maximal_path, sst_weights
from .rotten import PeelSolution, RottenSet, rotten_potato_peel
from .visibility import VisibilityPolygon, visibility_polygon

__all__ = [
    # problems and their solutions
    "PolygonWithHoles",
    "Point",
    "pt",
    "ConvexPolygon",
    "greedy_cover",
    "CoverSolution",
    "rotten_potato_peel",
    "RottenSet",
    "PeelSolution",
    # intermediate machinery
    "diagonal_extensions",
    "DiagonalExtension",
    "build_arrangement",
    "Arrangement",
    "Face",
    "visibility_polygon",
    "VisibilityPolygon",
    "build_anchor_dags",
    "PeelDag",
    "sst_weights",
    "heaviest_maximal_path",
    "triangulate",
    "verify_cover",
    "VerificationReport",
    # errors
    "InvalidPolygonError",
    "PreconditionViolation",
    "CycleDetected",
    "NonConvexClosure",
    "InvariantViolation",
]
