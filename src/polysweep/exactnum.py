"""Exact scalars, vectors and one integer elimination kernel.

Scalars are Python ints where the values are integral and
``fractions.Fraction`` otherwise (arbitrary precision, always reduced,
positive denominator), so every sign test downstream is exact.  Vectors
are plain tuples.  Nothing here mutates its arguments; all values can
be shared freely.

The elimination is fraction-free: each row is scaled to integers by the
lcm of its denominators, rows are combined with integer multipliers,
and every combined row is divided by its content.  Ranks, kernel
vectors and hyperplane normals therefore come out of integer arithmetic
alone, and normals are primitive int tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DegenerateSpan

QVector = tuple  # tuple of ints and Fractions


def vec(*entries) -> QVector:
    return tuple(Fraction(e) for e in entries)


def dot(a: QVector, b: QVector):
    """a.b; an int when both vectors are integral."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def vsub(a: QVector, b: QVector) -> QVector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vadd(a: QVector, b: QVector) -> QVector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vscale(c, a: QVector) -> QVector:
    """c * a, with no coercion: an integer vector times an int stays integer."""
    return tuple(c * x for x in a)


# ---------------------------------------------------------------------------
# Fraction-free Gauss-Jordan elimination.


def _integer_row(row) -> list[int]:
    """The row times the lcm of its denominators, divided by its content;
    a zero row stays zero."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def primitive(v: QVector) -> tuple:
    """The positive multiple of a nonzero rational vector with integer
    entries of content 1."""
    ints = _integer_row(v)
    if not any(ints):
        raise ValueError("the zero vector has no primitive multiple")
    return tuple(ints)


def _eliminate(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan: (pivot rows, pivot columns).  Pivot row r
    has content 1 and is zero in every pivot column except pivots[r]."""
    m = [r for r in map(_integer_row, rows) if any(r)]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return m[: len(pivots)], pivots


def matrix_rank(rows) -> int:
    rows = list(rows)
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]))[1])


def affine_rank(points) -> int:
    """Dimension of the affine hull; 0 for a single point."""
    points = list(points)
    if not points:
        raise ValueError("affine_rank of no points")
    p0 = points[0]
    return len(_eliminate([vsub(p, p0) for p in points[1:]], len(p0))[1])


# ---------------------------------------------------------------------------
# Hyperplanes.


def hyperplane_through(points, ambient_dim: int) -> tuple[tuple, object]:
    """(normal, offset) of the hyperplane {x : normal.x = offset} spanned
    by the points.  The normal is the primitive integer vector of the
    one-dimensional kernel of the difference matrix, first nonzero entry
    positive, so equal hyperplanes give equal pairs.

    The points must span an affine subspace of dimension ambient_dim - 1.
    """
    points = list(points)
    if not points:
        raise DegenerateSpan("no points")
    p0 = points[0]
    n = len(p0)
    rows, pivots = _eliminate([vsub(p, p0) for p in points[1:]], n)
    if len(pivots) != ambient_dim - 1:
        raise DegenerateSpan(
            f"points span affine dimension {len(pivots)}, need {ambient_dim - 1}"
        )
    if len(pivots) != n - 1:
        raise ValueError(f"points of R^{n} span no hyperplane of R^{ambient_dim}")
    # x[free] = L and x[pivot c] = -row[free] * L / row[c] solve every
    # row; L, the lcm of the pivots, keeps them integral
    (free,) = set(range(n)).difference(pivots)
    big = lcm(*(row[c] for row, c in zip(rows, pivots)))
    x = [0] * n
    x[free] = big
    for row, c in zip(rows, pivots):
        x[c] = -row[free] * (big // row[c])
    normal = primitive(x)
    if next(e for e in normal if e) < 0:
        normal = tuple(-e for e in normal)
    return normal, dot(normal, p0)
