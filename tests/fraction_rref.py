"""Rational Gauss-Jordan elimination over ``Fraction``: the reference
that the integer kernel in ``polysweep.exactnum`` is tested against.

No library code calls these; they are kept as oracles.  Entries may be
ints or Fractions; the arithmetic is always over Fraction.
``hyperplane_through`` is the oracle for the facet hyperplanes that
``hull_lattice`` finds from integer rows.
"""

from fractions import Fraction
from math import gcd

from polysweep.errors import InputError


class DegenerateSpan(InputError):
    """Points do not span an affine subspace of the required dimension."""


def row_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    m = [[Fraction(x) for x in r] for r in rows]
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


def pivot_columns(rows) -> list[int]:
    rows = [list(r) for r in rows]
    if not rows:
        return []
    _, pivots = row_echelon(rows)
    return pivots


def matrix_rank(rows) -> int:
    return len(pivot_columns(rows))


def null_space(rows) -> list[tuple]:
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


def canonical_integer_vector(v) -> tuple:
    """Scale a nonzero rational vector to integer entries, content 1,
    first nonzero entry positive."""
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no canonical form")
    v = [Fraction(x) for x in v]
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
    diffs = [[Fraction(x) - y for x, y in zip(p, p0)] for p in points[1:]]
    rank = matrix_rank(diffs)
    if rank != ambient_dim - 1:
        raise DegenerateSpan(f"points span affine dimension {rank}, need {ambient_dim - 1}")
    if rank != n - 1:
        raise ValueError(f"points of R^{n} span no hyperplane of R^{ambient_dim}")
    (kernel,) = null_space(diffs or [[0] * n])
    normal = tuple(int(x) for x in canonical_integer_vector(kernel))
    return normal, sum(Fraction(a) * b for a, b in zip(normal, p0))
