"""Hyperplane sweeps: generic directions, vertex figures, sections, and
the sweep recursion shared by the cd-index and toric h-vector routes.

A sweep orders the vertices by an exact linear functional.  At each
vertex v the machinery builds

* the vertex figure: the (d-1)-polytope cut from the tangent cone at v
  by a strictly supporting hyperplane pushed one unit inward, whose
  faces are the faces containing v, and
* the section: the vertex figure sliced by the sweep hyperplane through
  v, whose faces are the faces that v neither tops nor bottoms.

Both carry exact integer coordinates so the construction can recurse.
The depth of the cut never matters: every comparison the recursion makes
is decided by vertex heights and edge slopes.  Both cuts are in closed
form: the points lie on a known hyperplane, so dropping one coordinate k
projects them injectively.  A figure's points are translated to put v at
the origin, and both are scaled by their common denominator m to
integers.  One routine, ``_slice``, makes both: a figure is the polytope
sliced across the edges at v, a section is the figure sliced across its
edges that cross the sweep hyperplane through v.  The facets of a slice
are cut from facets of the polytope above it, so their normals are
inherited: the parent's outward normal restricted to the cut plane, made
primitive.  No elimination runs for them; only ``hull_lattice``
eliminates, and it keeps the hyperplane of each facet it finds.

A figure's direction is integral.  With a the support normal at v and σ
the sign of a_k, the sweep functional p restricted to the cut plane is a
positive multiple of the integer functional σ(a_k p_i - p_k a_i) on the
kept coordinates; less the constant σ m p_k, it gives sub-vertex j the
height |a_k| m slope(e_j).  So v sits at height 0 in its figure, and
"above v" is a positive height, at every level.

A cut depends on its hyperplane only, not on the way the sweep runs.
The support normal depends on the direction only through which edge
slopes are distinct, so s and -s have the same one, and a figure's cut
is kept per support normal; a section is kept per vertex and ±p.  The
reverse sweep in ``verify`` therefore slices nothing the forward sweep
and the symmetric sweep have not sliced.

The recursion sweeps every vertex of the polytope it is given, because
each per-vertex part is reported.  Inside a vertex figure only the
parts of sub-vertices above v are read, so only those are swept; with
deep=True every sub-vertex is swept, so that every section on the way
is re-swept and checked.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm

from .errors import CrossCheckError, InputError, NotGeneric, NotSimple
from .exactnum import QVector, affine_rank, dot, exact, primitive, vsub
from .flagvec import CDPolynomial, cd_index
from .polytope import (
    FaceLattice,
    VRep,
    bits,
    facet_hyperplanes,
    memoized,
)

UPPER, MIDDLE, LOWER = "upper", "middle", "lower"


@dataclass(frozen=True)
class SweepDirection:
    """A functional p plus the height of every vertex.

    Heights are pairwise distinct (checked).  On a vertex figure the
    heights differ from p.x by a common constant, which puts the figure's
    vertex v at 0; only differences ever matter.  The directions of
    figures and sections are integral, p and heights alike; only a
    direction supplied by the caller may hold Fractions.  The hash is
    computed once: every memoized figure is looked up by the direction.
    """

    p: QVector
    heights: tuple  # int or Fraction per vertex index
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.heights)) != len(self.heights):
            raise NotGeneric("two vertices have equal height")
        object.__setattr__(self, "_hash", hash((self.p, self.heights)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class SubPolytope:
    """A vertex figure or section: derived lattice, exact coordinates,
    and the map back to the parent's faces.

    A figure's direction is induced and integral: sub-vertex j has
    height λ slope(e_j) for the j-th edge e_j at v, with one λ > 0 per
    figure (|a_k| m, times the lcm of the denominators of p), so v sits
    at 0 and the figure's heights are the one record of the order at v.
    A section's is the ladder's.  The lattice of a figure is shared by
    the directions with the same support normal, s and -s among them."""

    lattice: FaceLattice
    direction: SweepDirection
    face_parent: tuple  # sub-face index -> parent face index
    vertex_face: int  # parent index of the face {v}


def choose_direction(p0, v: VRep) -> SweepDirection:
    """Accept p0 if it separates all vertex heights, else walk the
    deterministic ladder p = (1, t, t^2, ...) for t = 2, 3, ..."""
    if p0 is not None:
        if len(p0) != v.dim:
            raise InputError(
                f"direction has {len(p0)} entries, the polytope has dimension {v.dim}"
            )
        p0 = tuple(map(exact, p0))
        heights = tuple(exact(dot(p0, x)) for x in v.vertices)
        if len(set(heights)) != len(heights):
            raise NotGeneric("supplied direction gives equal heights")
        return SweepDirection(p0, heights)
    if v.dim == 0:
        return SweepDirection((), (0,))
    for t in range(2, 10000):
        p = tuple(t**i for i in range(v.dim))
        heights = tuple(exact(dot(p, x)) for x in v.vertices)
        if len(set(heights)) == len(heights):
            return SweepDirection(p, heights)
    raise RuntimeError("direction ladder exhausted")  # pragma: no cover


def _other_endpoint(lat: FaceLattice, edge: int, vi: int) -> int:
    u, w = lat.edge_endpoints(edge)
    return w if u == vi else u


def _slopes_for(lat, s, vi, a) -> dict:
    """Edge slope keys at vi for support functional a.

    slope(vw) = (h_w - h_v) / a.(x_v - x_w); the denominator is positive
    because a is strictly supporting, so the sign matches the edge
    orientation under the sweep.
    """
    pts = lat.coords.vertices
    out = {}
    for e in lat.faces_at_vertex(vi, 1):
        wi = _other_endpoint(lat, e, vi)
        den = dot(a, vsub(pts[vi], pts[wi]))
        if den <= 0:
            raise CrossCheckError(
                f"functional {a} does not strictly support vertex {vi}"
            )
        out[e] = exact(Fraction(s.heights[wi] - s.heights[vi], den))
    return out


def support_normal(lat: FaceLattice, s: SweepDirection, vi: int) -> tuple:
    """(a, slopes): a functional maximized uniquely over P at vi, the sum
    of the outward facet normals at vi reweighted by (1, t, t^2, ...)
    until the edge slope keys at vi (edge index -> slope) are pairwise
    distinct."""
    hyps = facet_hyperplanes(lat)
    facets = lat.by_dim[lat.dim - 1]
    normals = [
        hyps[k][0] for k, fi in enumerate(facets) if lat.masks[fi] >> vi & 1
    ]
    pts = lat.coords.vertices
    d = lat.dim
    for t in range(1, 10000):
        a = tuple(
            sum(t**j * n[k] for j, n in enumerate(normals)) for k in range(d)
        )
        av = dot(a, pts[vi])
        if any(dot(a, pts[w]) >= av for w in range(len(pts)) if w != vi):
            raise CrossCheckError(
                f"summed facet normal {a} does not strictly support vertex {vi}"
            )
        slopes = _slopes_for(lat, s, vi, a)
        if len(set(slopes.values())) == len(slopes):
            return a, slopes
    raise RuntimeError("support normal ladder exhausted")  # pragma: no cover


def _cut(normal: QVector) -> tuple[list[int], int]:
    """(kept columns, dropped column k) for points on a hyperplane with
    this normal: k is the last coordinate with normal[k] != 0, which is
    the one non-pivot column of the echelon form of any point set
    spanning the hyperplane, and dropping it projects the hyperplane
    injectively."""
    k = max(i for i, x in enumerate(normal) if x != 0)
    return [i for i in range(len(normal)) if i != k], k


def _restrict(p: QVector, normal: QVector, cols: list, k: int) -> QVector:
    """A positive multiple of the linear part of p on the hyperplane
    normal.y = b, in the kept coordinates: with σ the sign of normal_k,
    q_i = σ(normal_k p_i - p_k normal_i), and q.y[cols] + σ p_k b =
    |normal_k| p.y.  Integral when p and normal are."""
    nk, pk = normal[k], p[k]
    if nk < 0:
        nk, pk = -nk, -pk
    return tuple(nk * p[i] - pk * normal[i] for i in cols)


def _project(points: list, cols: list, dim: int) -> tuple[VRep, int]:
    """(the points restricted to the kept columns and scaled by m, m),
    with m the lcm of their denominators, so the coordinates are ints.
    The points must span dim."""
    m = lcm(*(y[i].denominator for y in points for i in cols))
    proj = tuple(
        tuple(y[i].numerator * (m // y[i].denominator) for i in cols) for y in points
    )
    if affine_rank(proj) != dim:
        raise CrossCheckError(f"the cut points do not span dimension {dim}")
    return VRep(dim, proj), m


def _slice(lat: FaceLattice, edges, faces, points, plane):
    """(sub-lattice, face map, scale) of the slice of lat by a hyperplane
    with normal ``plane`` that crosses edge ``edges[j]`` at
    ``points[j]`` and meets the faces in ``faces``; the one face listed
    that holds no cut edge becomes the empty face.

    Sub-vertex j is the cut of edges[j]; a met face becomes the set of
    its cut edges, one dimension lower.  The points are projected and
    scaled to integers.  A facet of the slice is cut from a facet of lat,
    and its outward normal is that facet's restricted to the plane, made
    primitive: restriction changes a functional on the plane only by a
    constant and a positive factor, and the projection and scaling are
    positive.  The slice is the same for plane and -plane.
    """
    dim = lat.dim - 1
    cols, k = _cut(plane)
    coords, scale = _project(points, cols, dim)
    ys = coords.vertices
    sub_faces, parents = [], {}
    facets = {} if dim >= 1 else None
    for i in faces:
        mask = sum(1 << j for j, e in enumerate(edges) if lat.down[i] >> e & 1)
        sub_faces.append((mask, lat.dims[i] - 1 if mask else -1))
        parents[mask] = i
        if facets is not None and lat.dims[i] == lat.dim - 1:
            normal = primitive(_restrict(lat.facets[lat.masks[i]][0], plane, cols, k))
            facets[mask] = (normal, dot(normal, ys[next(bits(mask))]))
    sub = FaceLattice(dim, sub_faces, coords=coords, facets=facets)
    return sub, tuple(parents[m] for m in sub.masks), scale


@memoized
def _figure_cut(lat: FaceLattice, vi: int, a: tuple) -> tuple:
    """(sub-lattice, face map, scale m) of the cut of the tangent cone at
    vi by the plane a.x = a.v - 1, translated to put v at the origin;
    kept per support normal a, so every direction with that normal
    shares it."""
    pts = lat.coords.vertices
    v = pts[vi]
    edges = lat.faces_at_vertex(vi, 1)
    # sub-vertex j is v + rays[j], on the cut plane a . y = a . v - 1
    rays = []
    for e in edges:
        w = pts[_other_endpoint(lat, e, vi)]
        t = dot(a, vsub(v, w))
        rays.append(tuple(Fraction(x - y, t) for x, y in zip(w, v)))
    return _slice(lat, edges, list(bits(lat.up[lat.index[1 << vi]])), rays, a)


@memoized
def vertex_figure(lat: FaceLattice, s: SweepDirection, vi: int) -> SubPolytope:
    """The vertex figure at vi, with integer coordinates, the induced
    integral sweep direction and the facet normals inherited from lat.

    Sub-vertex j sits on the j-th edge at v (edges in mask order) where
    it crosses the plane a.x = a.v - 1.  The coordinates are those points
    minus v, projected and scaled by m to integers.  The figure's faces
    are the faces containing v, with dimension dropped by one.  Its
    functional is s.p, scaled by the lcm L of its denominators and
    restricted to the cut plane; less the constant σ m p_k it gives
    sub-vertex j the height L |a_k| m slope(e_j), which is checked
    against the slopes.
    """
    if lat.dim < 1:
        raise ValueError("a vertex figure needs dimension at least 1")
    a, slopes = support_normal(lat, s, vi)
    sub, face_parent, m = _figure_cut(lat, vi, a)
    cols, k = _cut(a)
    scale = lcm(*(x.denominator for x in s.p))
    p = s.p if scale == 1 else tuple(x.numerator * (scale // x.denominator) for x in s.p)
    f = _restrict(p, a, cols, k)
    base = m * p[k] if a[k] > 0 else -m * p[k]
    heights = tuple(dot(f, y) - base for y in sub.coords.vertices)
    factor = scale * abs(a[k]) * m
    # slopes are keyed by the edges at vi in mask order, as the sub-vertices
    for h, slope in zip(heights, slopes.values(), strict=True):
        if h * slope.denominator != factor * slope.numerator:
            raise CrossCheckError(
                f"induced heights at vertex {vi} are not the slopes in the cut coordinates"
            )
    return SubPolytope(sub, SweepDirection(f, heights), face_parent, lat.index[1 << vi])


def classify_face(lat: FaceLattice, s: SweepDirection, vi: int, fi: int) -> str:
    """upper if v bottoms the face, lower if v tops it, middle otherwise.

    Equivalently: where the corresponding face of the truncated vertex
    figure sits relative to the sweep hyperplane through v.
    """
    if not (lat.masks[fi] >> vi & 1 and lat.dims[fi] >= 1):
        raise ValueError(f"face {fi} is not a face of dimension >= 1 at vertex {vi}")
    hs = [s.heights[w] for w in lat.vertices_of(fi)]
    hv = s.heights[vi]
    if hv == min(hs):
        return UPPER
    if hv == max(hs):
        return LOWER
    return MIDDLE


def is_extreme(lat: FaceLattice, s: SweepDirection, vi: int) -> bool:
    hv = s.heights[vi]
    return hv == min(s.heights) or hv == max(s.heights)


def sweep_section(lat: FaceLattice, s: SweepDirection, vi: int) -> SubPolytope | None:
    """The vertex figure cut by the sweep hyperplane through v; None
    below dimension 2 and when v is the global minimum or maximum.

    Kept per vertex and ±s.p: s and -s cut the same hyperplane through
    the same figure lattice, so they share the section object.
    """
    p = s.p
    if next((x for x in p if x), 0) < 0:
        p = tuple(-x for x in p)
    key = ("sweep_section", vi, p)
    memo = lat._memo
    if key not in memo:
        memo[key] = _section(lat, s, vi)
    return memo[key]


def _section(lat: FaceLattice, s: SweepDirection, vi: int) -> SubPolytope | None:
    """The cut meets the faces of the figure Q with sub-vertices on both
    sides of v, which sits at height 0 in Q; these are the middle faces
    at v.  Sub-vertex k is where the k-th edge of Q crossing height 0
    does so, at (h1 y2 - h2 y1) / (h1 - h2) for an edge from y1 to y2,
    edges in the mask order of their parent 2-faces; neither depends on
    the sign of the heights.  Faces are the middle faces at v, dimension
    dropped by two.  The section's direction is the ladder direction on
    its own coordinates, since the sweep is constant on it.
    """
    if lat.dim < 2 or is_extreme(lat, s, vi):
        return None
    qv = vertex_figure(lat, s, vi)
    q, qheights = qv.lattice, qv.direction.heights

    above = sum(1 << j for j, h in enumerate(qheights) if h > 0)
    met = [i for i, m in enumerate(q.masks) if m & above and m & ~above]
    crossing = sorted((i for i in met if q.dims[i] == 1), key=qv.face_parent.__getitem__)
    points = []
    for e in crossing:
        j1, j2 = q.edge_endpoints(e)
        h1, h2 = qheights[j1], qheights[j2]
        y1, y2 = q.coords.vertices[j1], q.coords.vertices[j2]
        points.append(tuple(Fraction(h1 * x2 - h2 * x1, h1 - h2) for x1, x2 in zip(y1, y2)))
    # Q's empty face, whose parent is {v}, becomes the section's
    sub, in_figure, _ = _slice(q, crossing, [0] + met, points, qv.direction.p)
    return SubPolytope(
        sub,
        choose_direction(None, sub.coords),
        tuple(qv.face_parent[i] for i in in_figure),
        qv.vertex_face,
    )


def map_chain(sub: SubPolytope, chain: tuple) -> tuple:
    """Lift a chain of sub-polytope faces to the parent: prepend {v} and
    replace each face by its parent face."""
    return (sub.vertex_face,) + tuple(sub.face_parent[i] for i in chain)


# ---------------------------------------------------------------------------
# The sweep recursion, written once over an algebra of accumulated values.


@dataclass(frozen=True)
class SweepAlgebra:
    """The values a sweep accumulates (cd-words, or toric h-vectors under
    the c/d operators) and the only operations the recursion uses.
    Fields calling into another module are lambdas, so that a wrapper on
    the module attribute, such as the benchmark's tracer, sees the call."""

    zero: Callable  # dimension -> the zero value
    one: object  # the value of a point
    add: Callable
    scale: Callable  # (rational, value) -> value
    c: Callable  # attach the letter c
    d: Callable  # attach the letter d
    value: Callable  # FaceLattice -> its value, computed without sweeping
    integral: Callable  # value -> bool


def sweep_recursive(
    alg: SweepAlgebra, lat: FaceLattice, s: SweepDirection, deep: bool = False
) -> tuple[dict, object]:
    """Per-vertex contributions of every vertex, and their sum.

    The contribution at v is d times the section's value plus c times
    the recursive per-vertex parts of the vertex figure, summed over its
    sub-vertices above height(v); the last vertex swept contributes
    zero.  The section's value is computed directly; with deep=True it
    is recomputed by a recursive sweep under a fresh direction and the
    two must agree.
    """
    if lat.dim == 0:
        return {0: alg.one}, alg.one
    per = _sweep_parts(alg, lat, s, range(lat.n_vertices), deep)
    return per, reduce(alg.add, per.values(), alg.zero(lat.dim))


def _sweep_parts(
    alg: SweepAlgebra, lat: FaceLattice, s: SweepDirection, wanted, deep: bool
) -> dict:
    """The per-vertex parts of the vertices in wanted only.  A figure's
    parts are read at its sub-vertices above v, those of positive
    height, so only those are swept; with deep=True all are, to check
    every section."""
    d = lat.dim
    if d == 0:
        return {0: alg.one}
    per = {}
    top = max(range(lat.n_vertices), key=lambda i: s.heights[i])
    for vi in wanted:
        term = alg.zero(d)
        if vi == top:
            per[vi] = term
            continue
        qv = vertex_figure(lat, s, vi)
        up = [j for j, h in enumerate(qv.direction.heights) if h > 0]
        swept = range(qv.lattice.n_vertices) if deep else up
        sub_per = _sweep_parts(alg, qv.lattice, qv.direction, swept, deep)
        for j in up:
            term = alg.add(term, alg.c(sub_per[j]))
        rv = sweep_section(lat, s, vi)
        if rv is not None:
            val_r = alg.value(rv.lattice)
            if deep:
                _, swept = sweep_recursive(alg, rv.lattice, rv.direction, True)
                if swept != val_r:
                    raise CrossCheckError(
                        f"section value mismatch at vertex {vi}: "
                        f"sweep {swept} vs direct {val_r}"
                    )
            term = alg.add(term, alg.d(val_r))
        per[vi] = term
    return per


def sweep_symmetric(
    alg: SweepAlgebra, lat: FaceLattice, s: SweepDirection
) -> tuple[dict, object]:
    """Direction-averaged form: with Q the vertex figure and R the
    section, each vertex contributes (c V(Q) + (2d - c^2) V(R)) / 2,
    both values computed directly.  Per-vertex parts may be
    half-integral; the total must be integral."""
    d = lat.dim
    if d == 0:
        return {0: alg.one}, alg.one
    per = {}
    for vi in range(lat.n_vertices):
        qv = vertex_figure(lat, s, vi)
        term = alg.c(alg.value(qv.lattice))
        rv = sweep_section(lat, s, vi)
        if rv is not None:
            val_r = alg.value(rv.lattice)
            term = alg.add(term, alg.scale(2, alg.d(val_r)))
            term = alg.add(term, alg.scale(-1, alg.c(alg.c(val_r))))
        per[vi] = alg.scale(Fraction(1, 2), term)
    total = reduce(alg.add, per.values(), alg.zero(d))
    if not alg.integral(total):
        raise CrossCheckError(f"symmetric sweep total is not integral: {total}")
    return per, total


_C, _D = CDPolynomial.word("c"), CDPolynomial.word("d")

CD_ALGEBRA = SweepAlgebra(
    zero=lambda d: CDPolynomial.zero(),
    one=CDPolynomial.one(),
    add=lambda a, b: a + b,
    scale=lambda q, phi: phi * q,
    c=lambda phi: _C * phi,
    d=lambda phi: _D * phi,
    value=lambda lat: cd_index(lat),
    integral=CDPolynomial.is_integral,
)


def cd_sweep(
    lat: FaceLattice, s: SweepDirection, deep: bool = False
) -> tuple[dict, CDPolynomial]:
    """Per-vertex cd-index contributions and their sum, by the recursive
    sweep; section cd-indices come from the flag route."""
    return sweep_recursive(CD_ALGEBRA, lat, s, deep)


def cd_sweep_symmetric(
    lat: FaceLattice, s: SweepDirection
) -> tuple[dict, CDPolynomial]:
    """Per-vertex cd-index contributions and their sum, by the
    direction-averaged sweep."""
    return sweep_symmetric(CD_ALGEBRA, lat, s)


# ---------------------------------------------------------------------------
# Simple-polytope baseline: h by outdegrees, partition by minimal vertex.


def _check_simple(lat: FaceLattice):
    if not lat.is_simple():
        raise NotSimple(f"a vertex of the {lat.dim}-polytope lies on more than {lat.dim} edges")


def simple_h_by_outdegree(lat: FaceLattice, s: SweepDirection) -> tuple:
    """h_i = number of vertices with i edges oriented upward."""
    _check_simple(lat)
    h = [0] * (lat.dim + 1)
    for vi in range(lat.n_vertices):
        out = sum(
            1
            for e in lat.faces_at_vertex(vi, 1)
            if s.heights[_other_endpoint(lat, e, vi)] > s.heights[vi]
        )
        h[out] += 1
    return tuple(h)


def min_vertex_partition(lat: FaceLattice, s: SweepDirection) -> dict:
    """Assign every nonempty face to its height-minimal vertex.  For a
    simple polytope the block at v has exactly 2^outdegree(v) faces."""
    _check_simple(lat)
    blocks: dict[int, list] = {vi: [] for vi in range(lat.n_vertices)}
    for i in range(len(lat.masks)):
        if lat.dims[i] < 0:
            continue
        vmin = min(lat.vertices_of(i), key=lambda w: s.heights[w])
        blocks[vmin].append(i)
    return blocks
