"""Exact rational scalars, vectors and the small linear-algebra kit.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator), so every sign test downstream is exact.  Vectors
are plain tuples of Fractions.  Nothing here mutates its arguments; all
values can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DegenerateSpan

Rational = Fraction
QVector = tuple  # tuple[Fraction, ...]


def vec(*entries) -> QVector:
    return tuple(Fraction(e) for e in entries)


def vec_from(entries) -> QVector:
    return tuple(Fraction(e) for e in entries)


def dot(a: QVector, b: QVector) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vsub(a: QVector, b: QVector) -> QVector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vadd(a: QVector, b: QVector) -> QVector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vscale(c, a: QVector) -> QVector:
    """c * a, with no coercion: an integer vector times an int stays integer."""
    return tuple(c * x for x in a)


def is_zero_vector(a: QVector) -> bool:
    return all(x == 0 for x in a)


def format_rational(x: Fraction) -> str:
    """"p/q" or plain "p" for integers."""
    return str(x)


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# Exact Gaussian elimination.


def row_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def matrix_rank(rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    _, pivots = row_echelon(rows)
    return len(pivots)


def affine_rank(points) -> int:
    """Dimension of the affine hull; 0 for a single point."""
    points = list(points)
    if not points:
        raise ValueError("affine_rank of no points")
    p0 = points[0]
    return matrix_rank([list(vsub(p, p0)) for p in points[1:]])


def pivot_columns(rows) -> list[int]:
    rows = [list(r) for r in rows]
    if not rows:
        return []
    _, pivots = row_echelon(rows)
    return pivots


def null_space(rows) -> list[QVector]:
    """Basis of {x : Ax = 0} for the matrix with the given rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = row_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -rref[r][fc]
        basis.append(tuple(x))
    return basis


def canonical_integer_vector(v: QVector) -> QVector:
    """Scale a nonzero rational vector to integer entries, content 1,
    first nonzero entry positive."""
    if is_zero_vector(v):
        raise ValueError("zero vector has no canonical form")
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [x * den for x in v]
    g = 0
    for x in ints:
        g = gcd(g, int(x))
    ints = [x / g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# Hyperplanes.


class Hyperplane:
    """{x : normal.x = offset} with a canonical integer normal, so
    hyperplanes can be deduplicated by equality."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal: QVector, offset):
        if is_zero_vector(normal):
            raise ValueError("hyperplane needs a nonzero normal")
        self.normal = tuple(Fraction(x) for x in normal)
        self.offset = Fraction(offset)

    def __eq__(self, other):
        return (
            isinstance(other, Hyperplane)
            and self.normal == other.normal
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.normal, self.offset))

    def __repr__(self):
        return f"Hyperplane(normal={self.normal}, offset={self.offset})"


def hyperplane_through(points, ambient_dim: int) -> Hyperplane:
    """The hyperplane spanned by the points, canonically scaled.

    The points must span an affine subspace of dimension ambient_dim - 1.
    """
    points = list(points)
    if not points:
        raise DegenerateSpan("no points")
    p0 = points[0]
    diffs = [list(vsub(p, p0)) for p in points[1:]]
    rank = matrix_rank(diffs)
    if rank != ambient_dim - 1:
        raise DegenerateSpan(
            f"points span affine dimension {rank}, need {ambient_dim - 1}"
        )
    if diffs:
        kernel = null_space(diffs)
    else:  # a single point in ambient dimension 1
        kernel = [(Fraction(1),)]
    if len(kernel) != 1:
        raise ValueError(f"points of R^{len(p0)} span no hyperplane of R^{ambient_dim}")
    normal = canonical_integer_vector(kernel[0])
    return Hyperplane(normal, dot(normal, p0))


def side(h: Hyperplane, x: QVector) -> int:
    """Sign of normal.x - offset: +1, 0 or -1."""
    s = dot(h.normal, x) - h.offset
    return (s > 0) - (s < 0)
