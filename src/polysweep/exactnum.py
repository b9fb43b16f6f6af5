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
multiple and reads no denominator), rows are combined with integer
multipliers, and every combined row is divided by its content.
Ranks and kernel vectors therefore come out of integer arithmetic alone,
and a kernel line is a primitive int tuple.
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
# Fraction-free Gauss-Jordan elimination.


def integer_multiple(v: QVector) -> tuple[tuple, int]:
    """(m v, m), m the lcm of the denominators of v's entries, so m v is
    an int tuple; (v, 1) at once when every entry is an int."""
    if all(type(x) is int for x in v):
        return tuple(v), 1
    m = lcm(*(x.denominator for x in v))
    return tuple([x.numerator * (m // x.denominator) for x in v]), m


def _integer_row(row) -> tuple:
    """The row's integer multiple divided by its content; a zero row
    stays zero."""
    ints, _ = integer_multiple(row)
    g = gcd(*ints)
    return tuple([x // g for x in ints]) if g > 1 else ints


def primitive(v: QVector) -> tuple:
    """The positive multiple of a nonzero rational vector with integer
    entries of content 1."""
    ints = _integer_row(v)
    if not any(ints):
        raise ValueError("the zero vector has no primitive multiple")
    return ints


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


def primitive_kernel(rows, ncols: int) -> tuple | None:
    """The primitive integer vector spanning the kernel of the rows,
    first nonzero entry positive, so that equal kernels give equal
    vectors; None unless the rows have rank ncols - 1."""
    echelon, pivots = _eliminate(rows, ncols)
    if len(pivots) != ncols - 1:
        return None
    # x[free] = L and x[pivot c] = -row[free] * L / row[c] solve every
    # row; L, the lcm of the pivots, keeps them integral
    (free,) = set(range(ncols)).difference(pivots)
    big = lcm(*(row[c] for row, c in zip(echelon, pivots)))
    x = [0] * ncols
    x[free] = big
    for row, c in zip(echelon, pivots):
        x[c] = -row[free] * (big // row[c])
    # divided by its content, signed to make the first nonzero entry
    # positive; x[free] is nonzero, so the content is too
    g = gcd(*x) if next(e for e in x if e) > 0 else -gcd(*x)
    return tuple([e // g for e in x])
