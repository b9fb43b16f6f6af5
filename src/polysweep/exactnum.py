"""Exact scalars, vectors and one integer elimination kernel.

Scalars are Python ints where the values are integral and
``fractions.Fraction`` otherwise (arbitrary precision, always reduced,
positive denominator), so every sign test downstream is exact.
``exact`` is the one entry point for a scalar from outside: it returns
an int for an integral value, a reduced Fraction otherwise, refuses a
float, and refuses a numeral string too long to read.  Vectors are
plain tuples.  Nothing here mutates its arguments; all values can be
shared freely.

The elimination is fraction-free: each row is scaled to integers by the
lcm of its denominators (``integer_multiple``, the one such rule, which
the hull and the vertex figures call too; a row of ints is its own
multiple and reads no denominator), and one forward pass of Bareiss
elimination (1968) combines the rows with integer multipliers and
divides each combined row by the previous pivot, a division that is
always exact.  No row is divided by its content.  A kernel vector is
back-substituted in ints and divided by its content once.  Ranks and
kernel vectors therefore come out of integer arithmetic alone, and a
kernel line is a primitive int tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InputError

QVector = tuple  # tuple of ints and Fractions

# The most digits, and the largest exponent, of a numeral string.  The
# values the CLI prints then stay far below Python's 4300-digit limit on
# int to str: a 6-simplex whose coordinates are 1/b with 48-digit b, swept
# by toric --method sweep under a direction of such numerals, prints polar
# heights of about 2,000 digits.  And no numeral such as 1e200000000
# expands into a huge integer.
MAX_NUMERAL_DIGITS = 50


def exact(x):
    """x as an int when it is integral, a reduced Fraction otherwise.

    x is an int, a Fraction (or another rational) or a numeral string
    such as "-3", "7/2" or "1.5e3".  A float raises TypeError: its
    binary value is rarely the number written (0.1 is not 1/10).  A
    numeral with more than MAX_NUMERAL_DIGITS digits, or an exponent
    beyond MAX_NUMERAL_DIGITS, raises InputError before it is parsed.
    """
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(
            f"{x!r} is a float; give it as an exact rational, e.g. 1/10"
        )
    if isinstance(x, str):
        x = _numeral(x)
    elif not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _numeral(text: str) -> Fraction:
    _, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "")
    if sum(map(str.isdigit, text)) > MAX_NUMERAL_DIGITS or (
        exponent.isdecimal() and int(exponent) > MAX_NUMERAL_DIGITS
    ):
        shown = text if len(text) <= 20 else text[:20] + "..."
        raise InputError(
            f"the numeral {shown!r} is refused: a numeral may have at most "
            f"{MAX_NUMERAL_DIGITS} digits and an exponent of at most "
            f"{MAX_NUMERAL_DIGITS} in absolute value"
        )
    return Fraction(text)


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
# Fraction-free elimination (Bareiss).


def integer_multiple(v: QVector) -> tuple[tuple, int]:
    """(m v, m), m the lcm of the denominators of v's entries, so m v is
    an int tuple; (v, 1) at once when every entry is an int."""
    if all(type(x) is int for x in v):
        return tuple(v), 1
    m = lcm(*(x.denominator for x in v))
    return tuple([x.numerator * (m // x.denominator) for x in v]), m


def primitive(v: QVector) -> tuple:
    """The positive multiple of a nonzero rational vector with integer
    entries of content 1."""
    ints, _ = integer_multiple(v)
    g = gcd(*ints)
    if not g:
        raise ValueError("the zero vector has no primitive multiple")
    return tuple([x // g for x in ints]) if g > 1 else ints


def _eliminate(rows, ncols: int) -> tuple[list, list[int]]:
    """Bareiss elimination, one forward pass: (echelon rows, pivot
    columns).  Echelon row r is zero left of pivots[r], and its entry
    there is the minor of the (swapped) rows 0..r on pivot columns 0..r."""
    m = [r for r, _ in map(integer_multiple, rows) if any(r)]
    n = len(m)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        for pr in range(r, n):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        # every row below is scaled by p and divided by the previous
        # pivot, the ones already zero at c too: by Sylvester's identity
        # each division is exact, and the entries stay minors; a row zero
        # at c stays as it is only when p is the previous pivot
        for i in range(r + 1, n):
            f = m[i][c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], prow)]
            elif p != prev:
                m[i] = [p * x // prev for x in m[i]]
        prev = p
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


def primitive_kernel(rows, ncols: int) -> tuple | None:
    """The primitive integer vector spanning the kernel of the rows,
    first nonzero entry positive, so that equal kernels give equal
    vectors; None unless the rows have rank ncols - 1."""
    echelon, pivots = _eliminate(rows, ncols)
    if len(pivots) != ncols - 1:
        return None
    # x[free] is the last pivot, the determinant of the pivot rows on the
    # pivot columns, so the solution is integral (Cramer) and back-
    # substitution divides exactly; row.x sums the columns right of c,
    # as the row is zero left of c and x[c] is still 0
    (free,) = set(range(ncols)).difference(pivots)
    x = [0] * ncols
    x[free] = echelon[-1][pivots[-1]] if echelon else 1
    for row, c in zip(reversed(echelon), reversed(pivots)):
        x[c] = -sum(map(mul, row, x)) // row[c]
    # divided by its content once, signed to make the first nonzero
    # entry positive; x[free] is nonzero, so the content is too
    g = gcd(*x) if next(e for e in x if e) > 0 else -gcd(*x)
    return tuple([e // g for e in x])
