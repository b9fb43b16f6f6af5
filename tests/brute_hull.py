"""The hull as it was before its closure went level by level: the
reference that ``polysweep.polytope.hull_lattice`` is tested against.

No library code calls it; it is kept as an oracle.  It tries every
d-subset of the integer rows for a facet, as the library still does,
then closes the facet vertex sets under intersection and gives each
face the rank of its rows, one elimination per face.  Its ranks and
kernels come from its own copy of the integer Gauss-Jordan elimination
that ``polysweep.exactnum`` used before its Bareiss kernel, so that the
hull and its oracle share no elimination.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from polysweep.errors import NonVertexPoint, NotFullDimensional
from polysweep.exactnum import dot, exact, integer_multiple
from polysweep.polytope import FaceLattice, VRep, bits


def _integer_row(row) -> tuple:
    """The row's integer multiple divided by its content; a zero row
    stays zero."""
    ints, _ = integer_multiple(row)
    g = gcd(*ints)
    return tuple([x // g for x in ints]) if g > 1 else ints


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


def primitive_kernel(rows, ncols: int) -> tuple | None:
    """The primitive integer vector spanning the kernel of the rows,
    first nonzero entry positive; None unless the rows have rank
    ncols - 1."""
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
    g = gcd(*x) if next(e for e in x if e) > 0 else -gcd(*x)
    return tuple([e // g for e in x])


def brute_hull_lattice(v: VRep) -> FaceLattice:
    """Face lattice of conv(vertices), with the exceptions and messages
    of ``hull_lattice``."""
    d, pts = v.dim, v.vertices
    n = len(pts)
    if n == 0:
        raise NotFullDimensional("no points")
    rows = []
    for p in pts:
        ints, m = integer_multiple(p)
        rows.append((*ints, -m))
    rank = matrix_rank(rows) - 1
    if rank != d:
        raise NotFullDimensional(f"points span dimension {rank}, not {d}")
    if d == 0:
        if n > 1:
            raise NonVertexPoint(1)
        return FaceLattice(0, [(0, -1), (1, 0)], coords=v)

    full = (1 << n) - 1
    facets: dict[int, tuple] = {}
    seen = set()
    for subset in itertools.combinations(rows, d):
        h = primitive_kernel(subset, d + 1)
        if h is None or h in seen:
            continue
        seen.add(h)
        gaps = [dot(h, r) for r in rows]
        if min(gaps) >= 0:
            h = tuple(-x for x in h)
        elif max(gaps) > 0:
            continue
        content = gcd(*h[:d])
        facets[sum(1 << i for i, g in enumerate(gaps) if g == 0)] = (
            tuple(x // content for x in h[:d]),
            exact(Fraction(h[d], content)),
        )
    facet_masks = facets.keys()

    for i in range(n):
        meet = full
        for m in facet_masks:
            if m >> i & 1:
                meet &= m
        if meet != 1 << i:
            raise NonVertexPoint(i)

    # every face is the meet of the facets containing it
    faces = {full, 0}
    for m in facet_masks:
        faces |= {f & m for f in faces}

    def face_dim(mask: int) -> int:
        return matrix_rank([rows[i] for i in bits(mask)]) - 1 if mask else -1

    return FaceLattice(d, [(m, face_dim(m)) for m in faces], coords=v, facets=facets)
