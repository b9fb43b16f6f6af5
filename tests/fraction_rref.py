"""Rational Gauss-Jordan elimination over ``Fraction``: the reference
that the integer kernel in ``polysweep.exactnum`` is tested against.

No library code calls these; they are kept as oracles.  Entries may be
ints or Fractions; the arithmetic is always over Fraction.
"""

from fractions import Fraction
from math import gcd


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
