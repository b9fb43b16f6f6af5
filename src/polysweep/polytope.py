"""Face lattices of convex polytopes from exact vertex coordinates.

The facets are found by brute force: every d-subset of the points is
tried, and the hyperplane through it is kept when every point lies on
one closed side.  Every point is scaled once to an integer row, so the
subset loop does integer work only, and its time grows with C(n, d).
The faces below the facets are read off the vertex sets, one level at a
time (Kaibel & Pfetsch 2002): the facets of a k-face are its
inclusion-maximal proper intersections with the facets of the
polytope, and each face's dimension is its level, so the rows are
ranked once, to check that the points span R^d.  Measured on one core
of a 2-core Xeon: about 0.02 s at 16 vertices in dimension 4, 0.04 s
for simplex:11, 0.14 s for cross:7, 0.18-0.21 s at 24-25 vertices in
dimension 4, and 3.1 s for cube:5.

A lattice uses two encodings, both Python ints used as bitsets.  A face
*is* its vertex set, a mask over vertex indices, so deduplication and
intersection are integer operations.  The order between faces is held
once, as masks over face indices: the faces below and above each face,
and the faces of each dimension.  Every order query (containment,
intervals, faces at a vertex, the facets of a face) reads those.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import or_

from .errors import CrossCheckError, NonVertexPoint, NotFullDimensional
from .exactnum import (
    MAX_NUMERAL_DIGITS, QVector, dot, exact, matrix_rank, primitive, primitive_kernel,
)


@dataclass(frozen=True)
class VRep:
    """A polytope given by exact vertex coordinates, each made an int or
    a reduced Fraction by ``exact`` (a float raises TypeError)."""

    dim: int
    vertices: tuple  # tuple[QVector, ...]

    def __post_init__(self):
        vertices = tuple(tuple(map(exact, v)) for v in self.vertices)
        if any(len(v) != self.dim for v in vertices):
            raise ValueError("vertex length does not match dim")
        object.__setattr__(self, "vertices", vertices)


def bits(mask: int):
    """The indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FaceLattice:
    """The full face poset of a polytope, graded by dimension.

    Faces are identified by vertex masks: ``masks[i]`` is the vertex set
    of face ``i`` and ``dims[i]`` its dimension; ``index`` maps a mask to
    its face.  Faces are sorted by (dim, mask), so ``by_dim[k]`` is a
    contiguous run of indices; index 0 is the empty face (dim -1), the
    last index the polytope itself.

    Incidence is held in face-index masks: ``down[i]`` has bit j when
    face j is contained in face i, ``up[i]`` when face j contains face i
    (both include i itself, and ``down[i]`` has no bit above i), and
    ``level[k]`` has the faces of dimension k.  So the interval [i, j]
    is ``up[i] & down[j]`` and the faces at vertex v of dimension k are
    ``up[{v}] & level[k]``.

    ``facets`` maps each facet mask, in mask order, to the facet's
    outward hyperplane (normal, offset): normal.x <= offset on the
    polytope, with equality exactly on the facet.  ``hull_lattice`` and
    the cuts in ``sweep`` (by ``placed``) supply it with the coordinates;
    it is None on a lattice built without them.  Immutable after
    construction, apart from its memo (see ``memoized``).
    """

    def __init__(self, dim: int, faces, coords: VRep | None = None, facets=None):
        pairs = sorted(set(faces), key=lambda t: (t[1], t[0]))
        self.dim = dim
        self.masks = tuple(m for m, _ in pairs)
        self.dims = tuple(k for _, k in pairs)
        self.index = {m: i for i, m in enumerate(self.masks)}
        if len(self.index) != len(self.masks):
            raise ValueError("duplicate face masks")
        n = len(self.masks)
        self.by_dim = {
            k: tuple(g) for k, g in itertools.groupby(range(n), self.dims.__getitem__)
        }
        self.level = {k: ((1 << len(r)) - 1) << r[0] for k, r in self.by_dim.items()}
        if self.dims[0] != -1 or self.masks[0] != 0:
            raise ValueError("lattice must contain the empty face")
        if self.dims[-1] != dim:
            raise ValueError("lattice must contain a face of top dimension")
        # up[i]: the faces at every vertex of face i; down[i]: the faces
        # at no vertex outside it
        every = (1 << n) - 1
        up, down = [every] * n, [every] * n
        for v in range(functools.reduce(or_, self.masks).bit_length()):
            bit = 1 << v
            at = sum(1 << i for i, m in enumerate(self.masks) if m & bit)
            for i, m in enumerate(self.masks):
                if m & bit:
                    up[i] &= at
                else:
                    down[i] &= ~at
        self.up, self.down = tuple(up), tuple(down)
        self.n_vertices = len(self.by_dim.get(0, ()))
        self._memo: dict = {}
        self._attach(coords, facets)

    def placed(self, coords: VRep, facets) -> FaceLattice:
        """This order with coordinates and facet hyperplanes attached: a
        copy sharing every order field, with a memo of its own."""
        new = object.__new__(FaceLattice)
        new.__dict__.update(self.__dict__, _memo={})
        new._attach(coords, facets)
        return new

    def _attach(self, coords: VRep | None, facets) -> None:
        if facets is not None:
            top = [self.masks[i] for i in self.by_dim.get(self.dim - 1, ())]
            if sorted(facets) != top:
                raise ValueError("the hyperplanes are not one per facet")
            facets = {m: facets[m] for m in top}
        self.coords, self.facets = coords, facets

    def f_vector(self) -> tuple:
        """(f_-1, f_0, ..., f_d)."""
        return tuple(len(self.by_dim.get(k, ())) for k in range(-1, self.dim + 1))

    def vertices_of(self, i: int) -> list[int]:
        return list(bits(self.masks[i]))

    def faces_at_vertex(self, vi: int, k: int) -> list[int]:
        return list(bits(self.up[self.index[1 << vi]] & self.level.get(k, 0)))

    def edge_endpoints(self, i: int) -> tuple[int, int]:
        vs = self.vertices_of(i)
        if self.dims[i] != 1 or len(vs) != 2:
            raise ValueError(f"face {i} is not an edge")
        return vs[0], vs[1]

    def is_simple(self) -> bool:
        return all(
            len(self.faces_at_vertex(vi, 1)) == self.dim
            for vi in range(self.n_vertices)
        )


def memoized(fn):
    """fn(lat, *args), computed once per lattice and arguments, so that
    every route walking the same derived object shares it."""

    @functools.wraps(fn)
    def wrapper(lat: FaceLattice, *args):
        key = (fn.__name__, *args)
        if key not in lat._memo:
            lat._memo[key] = fn(lat, *args)
        return lat._memo[key]

    return wrapper


def hull_lattice(v: VRep) -> FaceLattice:
    """Face lattice of conv(vertices).

    Raises NotFullDimensional if the points do not span R^dim and
    NonVertexPoint(i) if point i lies in the hull of the others.
    """
    d, pts = v.dim, v.vertices
    n = len(pts)
    if n == 0:
        raise NotFullDimensional("no points")
    # point p becomes the integer row (m p, -m), m the lcm of its
    # denominators: the rank of rows is one more than the affine rank of
    # their points, and a kernel vector (normal, offset) of d affinely
    # independent rows is their hyperplane normal.x = offset, whose dot
    # with any row has the sign of normal.p - offset.  Each row is divided
    # by its content once, here, which changes no rank, kernel or sign,
    # so the subset loop hands the rows to the kernel as they are
    rows = [primitive((*p, -1)) for p in pts]
    rank = matrix_rank(rows) - 1
    if rank != d:
        raise NotFullDimensional(f"points span dimension {rank}, not {d}")
    if d == 0:
        if n > 1:
            raise NonVertexPoint(1)
        return FaceLattice(0, [(0, -1), (1, 0)], coords=v)

    full = (1 << n) - 1
    facets: dict[int, tuple] = {}  # facet mask -> outward (normal, offset)
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
        # a stored normal is primitive on its own
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

    # level by level down from the facets: the facets of a k-face f are
    # its inclusion-maximal proper cuts f & m by the facets m, kept in
    # order of decreasing size unless a kept cut contains them
    level = facet_masks
    faces = [(full, d), *((m, d - 1) for m in level)]
    for k in range(d - 2, -2, -1):
        below = set()
        for f in level:
            kept = []
            for c in sorted({f & m for m in facet_masks} - {f}, key=int.bit_count, reverse=True):
                if all(c & ~g for g in kept):
                    kept.append(c)
            below.update(kept)
        level = below
        faces += [(m, k) for m in level]
    return FaceLattice(d, faces, coords=v, facets=facets)


# ---------------------------------------------------------------------------
# Constructors.  All coordinates are exact: ints here, and a pyramid's
# apex is a Fraction where the barycenter is not integral.


def make_simplex(d: int) -> VRep:
    """Standard d-simplex: origin plus the standard basis vectors."""
    if d < 0:
        raise ValueError("dimension must be >= 0")
    verts = [(0,) * d]
    for i in range(d):
        verts.append(tuple(int(j == i) for j in range(d)))
    return VRep(d, tuple(verts))


def make_cube(d: int) -> VRep:
    """Unit cube {0,1}^d."""
    if d < 0:
        raise ValueError("dimension must be >= 0")
    return VRep(d, tuple(itertools.product((0, 1), repeat=d)))


def make_crosspolytope(d: int) -> VRep:
    """Convex hull of +-e_i."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    verts = []
    for i in range(d):
        for s in (1, -1):
            verts.append(tuple(s if j == i else 0 for j in range(d)))
    return VRep(d, tuple(verts))


def make_polygon(n: int) -> VRep:
    """A convex rational n-gon: points (i, i^2) on the parabola."""
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    verts = [(i, i * i) for i in range(n)]
    return VRep(2, tuple(verts))


def barycenter(v: VRep) -> QVector:
    """The mean of the vertices; an entry is an int where it is integral."""
    n = len(v.vertices)
    return tuple(exact(Fraction(sum(c), n)) for c in zip(*v.vertices))


def pyramid(p: VRep) -> VRep:
    """Embed p at height 0 and add an apex over the barycenter."""
    base = [tuple(x) + (0,) for x in p.vertices]
    apex = barycenter(p) + (1,)
    return VRep(p.dim + 1, tuple(base + [apex]))


def product(p: VRep, q: VRep) -> VRep:
    """Cartesian product; vertex (i, j) gets index i * len(q) + j."""
    verts = [tuple(x) + tuple(y) for x in p.vertices for y in q.vertices]
    return VRep(p.dim + q.dim, tuple(verts))


def prism(p: VRep) -> VRep:
    return product(p, make_cube(1))


# ---------------------------------------------------------------------------
# Duality.


def dual(l: FaceLattice) -> FaceLattice:
    """Order-reversed lattice; dual vertex j is facet j of l (facets in
    mask order).  No coordinates attached."""
    facets, first = l.level[l.dim - 1], l.by_dim[l.dim - 1][0]
    dfaces = [((u & facets) >> first, l.dim - 1 - k) for u, k in zip(l.up, l.dims)]
    return FaceLattice(l.dim, dfaces, coords=None)


def facet_hyperplanes(l: FaceLattice) -> list[tuple[tuple, object]]:
    """The stored outward (normal, offset) per facet, in facet mask
    order: normal.x <= offset on the polytope, equality exactly on the
    facet.  The normal is a primitive int tuple."""
    if l.facets is None:
        raise ValueError(
            "facet_hyperplanes needs a lattice with vertex coordinates "
            "and the hyperplanes of its facets"
        )
    return list(l.facets.values())


def polar_dual(l: FaceLattice) -> VRep:
    """Exact polar dual geometry, one vertex per facet (in facet mask
    order, matching dual(l)'s vertex indexing).  The polytope is first
    translated to put its vertex barycenter at the origin.  The polar of
    a point is the point ()."""
    if l.coords is None:
        raise ValueError("polar_dual needs a lattice with vertex coordinates")
    if l.dim == 0:
        return VRep(0, ((),))
    z = barycenter(l.coords)
    verts = []
    for normal, offset in facet_hyperplanes(l):
        b = offset - dot(normal, z)
        if b <= 0:
            raise CrossCheckError(f"the barycenter is not inside facet {normal}")
        verts.append(tuple(Fraction(x, b) for x in normal))
    return VRep(l.dim, tuple(verts))


def polar_lattice(l: FaceLattice) -> FaceLattice:
    """The polar dual's lattice, hulled from its coordinates rather than
    read off ``dual(l)``.  No check compares the two lattices: verify
    compares only the toric h-vector of the polar's sweep with the
    definition's on l."""
    return hull_lattice(polar_dual(l))


def is_eulerian(l: FaceLattice) -> bool:
    """Every interval of rank >= 1 has equally many elements of even and
    odd rank.  Only the intervals of even rank are walked: when every
    shorter interval is balanced, so is [x, y] of odd rank n, as the
    Moebius function mu(x, y), read from x and from y, gives S = (-1)^n S
    for S the sum of (-1)^(rank z - rank x) over the interval.  By
    induction on the interval's size this holds on any order and grading,
    so the verdict is that of walking every interval."""
    even = sum(m for k, m in l.level.items() if k % 2 == 0)
    for i, u in enumerate(l.up):
        same = ~even if l.dims[i] % 2 else even
        for j in bits(u & same & ~(1 << i)):
            interval = u & l.down[j]
            if 2 * (interval & even).bit_count() != interval.bit_count():
                return False
    return True


# ---------------------------------------------------------------------------
# Serialization.


def _json_coordinate(x):
    """An int or a rational string, read by ``exact`` as a numeral, so
    that its size is bounded; an int of at most MAX_NUMERAL_DIGITS
    digits is taken as it is.  A JSON float is refused: its binary value
    is rarely the number written (0.1 is not 1/10)."""
    if type(x) is int and abs(x) < 10**MAX_NUMERAL_DIGITS:
        return x
    if type(x) is int or isinstance(x, str):
        return exact(str(x))
    raise TypeError(
        f"coordinate {x!r} is not an integer or a rational string; "
        f'quote it as an exact rational, e.g. "1/10"'
    )


def vrep_from_json(obj) -> VRep:
    if not (
        isinstance(obj, dict)
        and "dim" in obj
        and isinstance(obj.get("vertices"), list)
        and all(isinstance(p, list) for p in obj["vertices"])
    ):
        raise TypeError('expected a JSON object {"dim": d, "vertices": [[x_1, ..., x_d], ...]}')
    if type(obj["dim"]) is not int:
        raise TypeError(f'"dim" {obj["dim"]!r} is not a JSON integer')
    return VRep(
        obj["dim"],
        tuple(tuple(map(_json_coordinate, p)) for p in obj["vertices"]),
    )


def load_vrep(path: str) -> VRep:
    with open(path) as f:
        return vrep_from_json(json.load(f))


def lattice_to_json(l: FaceLattice) -> dict:
    faces: dict[str, list] = {}
    for k in range(-1, l.dim + 1):
        faces[str(k)] = [sorted(bits(l.masks[i])) for i in l.by_dim.get(k, ())]
    return {"dim": l.dim, "faces": faces}
