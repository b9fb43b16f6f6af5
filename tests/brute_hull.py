"""The hull as it was before its closure went level by level: the
reference that ``polysweep.polytope.hull_lattice`` is tested against.

No library code calls it; it is kept as an oracle.  It tries every
d-subset of the integer rows for a facet, as the library still does,
then closes the facet vertex sets under intersection and gives each
face the rank of its rows, one elimination per face.
"""

import itertools
from fractions import Fraction
from math import gcd

from polysweep.errors import NonVertexPoint, NotFullDimensional
from polysweep.exactnum import dot, exact, integer_multiple, matrix_rank, primitive_kernel
from polysweep.polytope import FaceLattice, VRep, bits


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
