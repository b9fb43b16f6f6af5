"""Hyperplane sweeps: generic directions, vertex figures, sections, and
the cd-index sweep, whose per-vertex parts the toric h-vector routes
read as vectors.

A sweep orders the vertices by an exact linear functional.  At each
vertex v the machinery builds

* the vertex figure: the (d-1)-polytope cut from the tangent cone at v
  by a strictly supporting hyperplane pushed one unit inward, whose
  faces are the faces containing v, and
* the section: the vertex figure sliced by the sweep hyperplane through
  v, whose faces are the faces that v neither tops nor bottoms.

One rule, ``_up_down``, says which edges at v go up and which go down;
every "above v", "upper", "lower" or "middle" reads it.  The figure's
faces are the star [v, P], the section's {v} and the faces at v holding
an up-edge and a down-edge; a sweep counts their chains off the parent's
order, without coordinates, by ``flagvec.chain_counts``.

The recursive sweep needs at v the sum of the figure's parts over its
sub-vertices above v.  By Stanley's S-shelling that sum depends only on
which sub-vertices lie above v: it is the cd-index of the figure's
chains owned above v, which ``_upper_sum`` counts; with every edge up,
the figure's cd-index, which the symmetric sweep reads.  ``_section_cd``
counts the section's.  So the default sweeps cut nothing and build no
lattice.  The deep sweep cuts and sweeps every figure and section, which
checks that rule; the partition cuts the figures and sections whose
blocks it reads where they are polygons or larger, and reads points and
segments off the order.  A cut places a lattice read off the order by one
builder, ``_lattice_over``: the star over the edges at v, the section
over its 2-faces.

A figure carries exact integer coordinates so that what cuts it can
sweep it, and so does a section where the deep sweep or the partition
sweeps it; the recursion compares only heights and slopes, so the depth
and scale of a cut never matter.  The figure of a 1-dimensional lattice
is a point, read off the order with nothing to cut.  A cut builds no
lattice: ``_place`` puts points and facet hyperplanes on the order read
above, in closed form and in integers, so no Fraction is built below
int coordinates.
With a the support normal and gap_j = a.(v - w_j) > 0 for the j-th edge
at v, from v to w_j, the figure's sub-vertex j is (w_j - v)(T / gap_j),
T the lcm of the gaps.  A section's sub-vertex k is where the figure's
edge in the k-th middle 2-face crosses height 0, scaled the same way.
Dropping one coordinate k projects the cut plane injectively.  A cut's
facets are cut from the parent's, so their normals are inherited: the
parent's outward normal restricted to the cut plane, made primitive.
Only ``hull_lattice`` eliminates.

A figure's heights are the one record of the edge order at v.  With σ
the sign of a_k, p restricted to the cut plane is a positive multiple of
the integer functional σ(a_k p_i - p_k a_i) on the kept coordinates;
less σ T p_k, it gives sub-vertex j the height |a_k| T slope(e_j), with
slope(e_j) = (height(w_j) - height(v)) / gap_j and v at 0.  The support
normal is the first on a ladder that makes these distinct.

The star is kept per vertex and placed once per support normal, and a
section's lattice and cd-index per vertex and split of the edges at v.
s and -s negate every slope and share all of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import CrossCheckError, InputError, NotCDExpressible, NotGeneric, NotSimple
from .exactnum import (
    QVector, affine_rank, dot, exact, integer_multiple, primitive, vscale, vsub,
)
from .flagvec import CDPolynomial, cd_from_ab, cd_index, chain_counts, flag_h
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
    """A vertex figure or section: the lattice read off the parent's
    order, placed with exact coordinates, and the map back to the
    parent's faces.

    A figure's direction is induced and integral: sub-vertex j has
    height λ slope(e_j) for the j-th edge e_j at v, with one λ > 0 per
    figure, so v sits at 0.  A section's is the ladder's.  Coordinates
    and heights are fixed up to one positive factor per sub-polytope.
    A figure's lattice is shared by the directions with the same
    support normal, s and -s among them."""

    lattice: FaceLattice
    direction: SweepDirection
    face_parent: tuple  # sub-face index -> parent face index; 0 -> {v}


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
    for t in range(2, 10000):
        p = tuple(t**i for i in range(v.dim))
        heights = tuple(exact(dot(p, x)) for x in v.vertices)
        if len(set(heights)) == len(heights):
            return SweepDirection(p, heights)
    raise RuntimeError("direction ladder exhausted")  # pragma: no cover


def _other_endpoint(lat: FaceLattice, edge: int, vi: int) -> int:
    u, w = lat.edge_endpoints(edge)
    return w if u == vi else u


def support_normal(lat: FaceLattice, vi: int, t: int) -> tuple:
    """The t-th functional of the ladder at vi: the outward facet normals
    at vi summed with the weights (1, t, t^2, ...), checked to be
    maximized over P at vi alone."""
    facets = zip(lat.by_dim[lat.dim - 1], facet_hyperplanes(lat))
    normals = [n for fi, (n, _) in facets if lat.masks[fi] >> vi & 1]
    a = tuple(sum(t**j * n[k] for j, n in enumerate(normals)) for k in range(lat.dim))
    pts = lat.coords.vertices
    av = dot(a, pts[vi])
    if any(dot(a, pts[w]) >= av for w in range(len(pts)) if w != vi):
        raise CrossCheckError(
            f"summed facet normal {a} does not strictly support vertex {vi}"
        )
    return a


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


def _project(points: list, cols: list, dim: int) -> VRep:
    """The points, already scaled to integers by their cut, restricted to
    the kept columns.  They must span dim."""
    proj = tuple(tuple(y[i] for i in cols) for y in points)
    if affine_rank(proj) != dim:
        raise CrossCheckError(f"the cut points do not span dimension {dim}")
    return VRep(dim, proj)


def _lattice_over(lat: FaceLattice, atoms, faces, shift: int) -> tuple:
    """(sub-lattice, face map) of the faces ``faces`` of lat over the faces
    ``atoms``: face i becomes the mask of the atoms below it, ``shift``
    dimensions lower; the one with no atom below becomes the empty face.
    The only builder of sub-lattices; it reads the order alone."""
    sub_faces, parents = [], {}
    for i in faces:
        mask = sum(1 << j for j, e in enumerate(atoms) if lat.down[i] >> e & 1)
        sub_faces.append((mask, lat.dims[i] - shift if mask else -1))
        parents[mask] = i
    sub = FaceLattice(lat.dim - shift, sub_faces)
    return sub, tuple(parents[m] for m in sub.masks)


def _place(lat: FaceLattice, sub: FaceLattice, in_lat, points, plane) -> FaceLattice:
    """sub, an order read off lat, placed as the slice of lat by a
    hyperplane with normal ``plane``: sub-vertex j at the int point
    ``points[j]``, projected, and sub-face i cut from face ``in_lat[i]``.

    A facet of the slice is cut from a facet of lat, and its outward
    normal is that facet's restricted to the plane, made primitive:
    restriction changes a functional on the plane only by a constant and
    a positive factor, and the projection is positive.  The slice is the
    same for plane and -plane.
    """
    cols, k = _cut(plane)
    coords = _project(points, cols, sub.dim)
    facets = {}
    for i in sub.by_dim[sub.dim - 1] if sub.dim else ():  # a point has none
        normal = primitive(_restrict(lat.facets[lat.masks[in_lat[i]]][0], plane, cols, k))
        facets[sub.masks[i]] = normal, dot(normal, coords.vertices[next(bits(sub.masks[i]))])
    return sub.placed(coords, facets if sub.dim else None)


@memoized
def _figure_cut(lat: FaceLattice, vi: int, a: tuple) -> tuple:
    """(lattice, face map, gaps, D): the star (``_star``) placed by the
    cut of the tangent cone at vi by a, shared by every direction with
    this support normal.  The rays w_j - v along the edges at v are
    scaled by D, the lcm of their denominators (1 on int coordinates);
    gap_j = D a.(v - w_j) > 0 as a supports v strictly, and sub-vertex j
    is D (w_j - v)(T / gap_j), T the lcm of the gaps: the cut by
    a.x = a.v - 1, translated to put v at the origin and scaled by T, on
    the plane a.y = -T."""
    star, face_parent = _star(lat, vi)
    pts = lat.coords.vertices
    v = pts[vi]
    ends = [pts[_other_endpoint(lat, e, vi)] for e in lat.faces_at_vertex(vi, 1)]
    flat, scale = integer_multiple([x - y for w in ends for x, y in zip(w, v)])
    rays = [flat[i : i + lat.dim] for i in range(0, len(flat), lat.dim)]
    gaps = [-dot(a, ray) for ray in rays]
    top = lcm(*gaps)
    points = [vscale(top // gap, ray) for ray, gap in zip(rays, gaps)]
    return _place(lat, star, face_parent, points, a), face_parent, gaps, scale


@memoized
def vertex_figure(lat: FaceLattice, s: SweepDirection, vi: int) -> SubPolytope:
    """The vertex figure at vi, with integer coordinates, the induced
    integral sweep direction and the facet normals inherited from lat.

    The t-th support normal a cuts a figure (``_figure_cut``, sub-vertex
    j on the j-th edge at v in mask order) for t = 1, 2, ... until its
    heights are distinct.  Its faces are the faces containing v, with
    dimension dropped by one.  Its functional is s.p, scaled by the lcm L
    of its denominators and restricted to the cut plane a.y = -T; less
    σ T p_k it gives sub-vertex j the height h_j = L |a_k| T slope(e_j),
    checked in integers: h_j gap_j = L D |a_k| T (height(w_j) - height(v)).
    """
    if lat.dim < 1:
        raise ValueError("a vertex figure needs dimension at least 1")
    if lat.dim == 1:
        # a point, read off the order with nothing to cut; its one
        # height is the rise of the edge, a positive multiple of the slope
        star, face_parent = _star(lat, vi)
        (e,) = lat.faces_at_vertex(vi, 1)
        rise = s.heights[_other_endpoint(lat, e, vi)] - s.heights[vi]
        heights, _ = integer_multiple((rise,))
        return SubPolytope(
            star.placed(VRep(0, ((),)), None), SweepDirection((), heights), face_parent
        )
    p, scale = integer_multiple(s.p)
    ends = (_other_endpoint(lat, e, vi) for e in lat.faces_at_vertex(vi, 1))
    rises = [s.heights[w] - s.heights[vi] for w in ends]
    for t in range(1, 10000):
        a = support_normal(lat, vi, t)
        sub, face_parent, gaps, d = _figure_cut(lat, vi, a)
        cols, k = _cut(a)
        top = lcm(*gaps)
        f = _restrict(p, a, cols, k)
        base = top * p[k] if a[k] > 0 else -top * p[k]
        heights = tuple(dot(f, y) - base for y in sub.coords.vertices)
        factor = scale * d * abs(a[k]) * top
        if any(h * g != factor * r for h, g, r in zip(heights, gaps, rises, strict=True)):
            raise CrossCheckError(
                f"induced heights at vertex {vi} are not the slopes in the cut coordinates"
            )
        if len(set(heights)) == len(heights):
            return SubPolytope(sub, SweepDirection(f, heights), face_parent)
    raise RuntimeError("support normal ladder exhausted")  # pragma: no cover


@memoized
def _up_down(lat: FaceLattice, s: SweepDirection, vi: int) -> tuple:
    """(up, down, above): the face-index masks of the edges at vi whose
    other end is higher, lower, and the positions j of the up-edges among
    the edges at vi, the vertex figure's sub-vertices above v.  A face at
    v rises from v when its edges at v all go up, falls to v when they
    all go down, and crosses the sweep hyperplane through v otherwise."""
    up = down = 0
    above = []
    for j, e in enumerate(lat.faces_at_vertex(vi, 1)):
        if s.heights[_other_endpoint(lat, e, vi)] > s.heights[vi]:
            up |= 1 << e
            above.append(j)
        else:
            down |= 1 << e
    return up, down, tuple(above)


def classify_face(lat: FaceLattice, s: SweepDirection, vi: int, fi: int) -> str:
    """upper if v bottoms the face, lower if v tops it, middle otherwise.

    Equivalently: where the corresponding face of the truncated vertex
    figure sits relative to the sweep hyperplane through v.
    """
    if not (lat.masks[fi] >> vi & 1 and lat.dims[fi] >= 1):
        raise ValueError(f"face {fi} is not a face of dimension >= 1 at vertex {vi}")
    up, down, _ = _up_down(lat, s, vi)
    if not lat.down[fi] & down:
        return UPPER
    if not lat.down[fi] & up:
        return LOWER
    return MIDDLE


@memoized
def _star(lat: FaceLattice, vi: int) -> tuple:
    """(lattice, face map) of [v, P] over the edges at v: the figure's order."""
    return _lattice_over(lat, lat.faces_at_vertex(vi, 1), bits(lat.up[lat.index[1 << vi]]), 1)


@memoized
def _split_section(lat: FaceLattice, vi: int, one: int, other: int) -> tuple:
    """(lattice, face map) of the section at vi for a split of the edges
    at v: {v} and ``_crossing``, over the 2-faces among them, two
    dimensions lower.  Kept per split, which s and -s share."""
    faces = [lat.index[1 << vi], *bits(_crossing(lat, vi, one, other))]
    return _lattice_over(lat, [i for i in faces if lat.dims[i] == 2], faces, 2)


def _crossing(lat: FaceLattice, vi: int, one: int, other: int) -> int:
    """The mask of the faces at vi holding an edge of each mask."""
    at = bits(lat.up[lat.index[1 << vi]])
    return sum(1 << i for i in at if lat.down[i] & one and lat.down[i] & other)


@memoized
def sweep_section(lat: FaceLattice, s: SweepDirection, vi: int) -> SubPolytope | None:
    """The section read off lat (``_split_section``), placed as the
    vertex figure Q cut by the sweep hyperplane through v; None below
    dimension 2 and when v is the lowest or highest vertex.  Only the
    deep sweep and the partition, which sweep sections, cut them.

    Sub-vertex k is where the edge of Q in the k-th middle 2-face at v
    crosses height 0, at (h1 y2 - h2 y1) / (h1 - h2) for an edge from y1
    to y2, scaled by the lcm of the h1 - h2.  The direction is the
    ladder's on the section's coordinates; the sweep is constant on it.
    """
    up, down, _ = _up_down(lat, s, vi)
    if lat.dim < 2 or not (up and down):
        return None
    r, face_parent = _split_section(lat, vi, *sorted((up, down)))
    qv = vertex_figure(lat, s, vi)
    q, ys, qheights = qv.lattice, qv.lattice.coords.vertices, qv.direction.heights
    # a section face is cut from Q's face over the same face; {v} is Q's empty one
    in_q = {p: i for i, p in enumerate(qv.face_parent)}
    in_figure = [in_q[p] for p in face_parent]
    ends = [q.edge_endpoints(in_figure[i]) for i in r.by_dim[0]]
    gaps = [qheights[j1] - qheights[j2] for j1, j2 in ends]
    top = lcm(*gaps)
    points = [
        vscale(top // gap, vsub(vscale(qheights[j1], ys[j2]), vscale(qheights[j2], ys[j1])))
        for (j1, j2), gap in zip(ends, gaps)
    ]
    sub = _place(q, r, in_figure, points, qv.direction.p)
    return SubPolytope(sub, choose_direction(None, sub.coords), face_parent)


def map_chain(sub: SubPolytope, chain: tuple) -> tuple:
    """Lift a chain of sub-polytope faces to the parent: prepend {v}, the
    parent of the empty face, and replace each face by its parent face."""
    return tuple(sub.face_parent[i] for i in (0, *chain))


# ---------------------------------------------------------------------------
# The sweep recursion over cd-polynomials; the toric routes read its parts.

_C, _D = CDPolynomial.word("c"), CDPolynomial.word("d")


def cd_sweep(
    lat: FaceLattice, s: SweepDirection, deep: bool = False
) -> tuple[dict, CDPolynomial]:
    """Per-vertex cd-index contributions of every vertex, and their sum.

    The contribution at v is d times the section's cd-index plus c times
    the sum of the vertex figure's parts over its sub-vertices above v,
    which ``_upper_sum`` reads off the order; the last vertex swept
    contributes zero.  The section's cd-index is counted off the order
    too (``_section_cd``).  With deep=True the figure and the section are
    cut and swept instead, and the total must be ``cd_index(lat)``, which
    checks each figure's and each section's sweep too.
    """
    if lat.dim == 0:
        return {0: CDPolynomial.one()}, CDPolynomial.one()
    per = {}
    for vi in range(lat.n_vertices):
        up, down, above = _up_down(lat, s, vi)
        if not up:  # the last vertex swept
            per[vi] = CDPolynomial.zero()
            continue
        if deep:
            qv = vertex_figure(lat, s, vi)
            parts = cd_sweep(qv.lattice, qv.direction, True)[0]
            upper = sum((parts[j] for j in above), CDPolynomial.zero())
        else:
            upper = _upper_sum(lat, vi, up)
        term = _C * upper
        if lat.dim >= 2 and down:
            if deep:  # the section's sweep checks itself against its cd-index
                rv = sweep_section(lat, s, vi)
                val_r = cd_sweep(rv.lattice, rv.direction, True)[1]
            else:
                val_r = _section_cd(lat, vi, *sorted((up, down)))
            term = term + _D * val_r
        per[vi] = term
    total = sum(per.values(), CDPolynomial.zero())
    if deep and total != cd_index(lat):
        raise CrossCheckError(f"deep sweep total {total} is not the direct value {cd_index(lat)}")
    return per, total


@memoized
def _upper_sum(lat: FaceLattice, vi: int, up: int) -> CDPolynomial:
    """The sum of the vertex figure's parts over its sub-vertices above
    v, those on the edges at v in the mask up, read off lat's order: by
    Stanley's S-shelling, the cd-index of the chains of faces strictly
    between {v} and P owned above v in the partition of the figure's
    truncation: the chains of the faces at v of dimension >= 1 topped by
    P, G ranked dim G - 1 as in the figure, where the chain of G alone
    counts when every edge of G at v goes up, and G's chains through an
    edge count one fewer when G holds an up- and a down-edge at v.  With
    every edge up, all count: the figure's cd-index.  Counts that are no
    cd-index are a fault of the engine, and raise CrossCheckError.
    ``cd_sweep`` attaches c to this polynomial as it is; memoized per
    vertex and set of up-edges, so the cd and toric sweeps of lat share
    it."""
    v = lat.index[1 << vi]
    down = lat.up[v] & lat.level[1] & ~up

    def seed(i):
        chains = [int(not lat.down[i] & down)] + [0] * ((1 << (lat.dims[i] - 1)) - 1)
        if lat.dims[i] >= 2 and lat.down[i] & up and lat.down[i] & down:
            chains[1] = -1
        return chains

    f = chain_counts(lat, lat.up[v] & ~lat.level[0], 1, seed)
    try:
        return cd_from_ab(flag_h(f))
    except NotCDExpressible as e:
        raise CrossCheckError(f"the chains owned above vertex {vi} have no cd-index: {e}") from None


@memoized
def _section_cd(lat: FaceLattice, vi: int, one: int, other: int) -> CDPolynomial:
    """The cd-index of the section at vi for the split of the edges at v
    into the masks one and other: the chains of its nonempty faces, the
    faces at v holding an edge of each, two dimensions lower.  Memoized
    per split, which s and -s share."""
    return cd_from_ab(flag_h(chain_counts(lat, _crossing(lat, vi, one, other), 2)))


def cd_sweep_symmetric(
    lat: FaceLattice, s: SweepDirection
) -> tuple[dict, CDPolynomial]:
    """Direction-averaged form: with Q the vertex figure and R the
    section, each vertex contributes (c Phi(Q) + (2d - c^2) Phi(R)) / 2,
    both cd-indices counted off lat's order (``_upper_sum`` with every
    edge up, and ``_section_cd``), so no coordinate is read.  Per-vertex
    parts may be half-integral; the total must be integral."""
    if lat.dim == 0:
        return {0: CDPolynomial.one()}, CDPolynomial.one()
    per = {}
    for vi in range(lat.n_vertices):
        up, down, _ = _up_down(lat, s, vi)
        term = _C * _upper_sum(lat, vi, up | down)
        if lat.dim >= 2 and up and down:
            section = _section_cd(lat, vi, *sorted((up, down)))
            term = term + (_D * 2 + _C * _C * -1) * section
        per[vi] = term * Fraction(1, 2)
    total = sum(per.values(), CDPolynomial.zero())
    if not total.is_integral():
        raise CrossCheckError(f"symmetric sweep total is not integral: {total}")
    return per, total


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
        h[_up_down(lat, s, vi)[0].bit_count()] += 1
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
