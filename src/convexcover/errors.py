"""Exceptions shared across the package."""


class InvalidPolygonError(Exception):
    """Input rings violate the polygon-with-holes invariants."""


class PreconditionViolation(Exception):
    """An operation was called outside its stated precondition."""


class CycleDetected(Exception):
    """A peel graph turned out not to be acyclic."""


class NonConvexClosure(Exception):
    """A path polygon failed to close into a convex ring."""


class CapExceeded(Exception):
    """An oracle hit its hard size cap."""


class InvariantViolation(Exception):
    """An internal invariant failed: the program is at fault, not its input."""
