"""Exception hierarchy.

Two families matter to callers: ``InputError`` (the input data is bad:
degenerate coordinates, non-generic direction, points that are not
vertices) and ``CrossCheckError`` (two independent computations of the
same quantity disagreed -- always a bug, never a condition to recover
from).  The CLI maps them to exit codes 2 and 3.
"""


class PolysweepError(Exception):
    pass


class InputError(PolysweepError):
    """The input violates a documented precondition."""


class NotFullDimensional(InputError):
    pass


class NonVertexPoint(InputError):
    """An input point lies in the convex hull of the other points."""

    def __init__(self, index: int):
        super().__init__(f"input point {index} is not a vertex of the hull")
        self.index = index


class NotGeneric(InputError):
    """A user-supplied sweep direction gives two vertices equal height."""


class NotSimple(InputError):
    """Operation requires a simple polytope (vertex degree == dim)."""


class NotCDExpressible(PolysweepError):
    """ab-polynomial has no cd form; the source poset is not Eulerian."""


class NotInImage(PolysweepError):
    """Vector is not in the image of the c-operator."""


class CrossCheckError(PolysweepError):
    """Independent computation routes disagreed."""
