import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import polysweep as ps
from brute_hull import brute_hull_lattice
from cli_compare import DIRECTIONS
from cli_compare import SPECS as CORPUS_SPECS
from conftest import default_direction, eliminated_facets, lat, validate, vec, vrep_to_json
from polysweep.cli import parse_direction, parse_input
from polysweep.errors import InputError, NonVertexPoint, NotFullDimensional
from polysweep.exactnum import MAX_NUMERAL_DIGITS
from polysweep.polytope import (
    FaceLattice,
    VRep,
    bits,
    facet_hyperplanes,
    vrep_from_json,
)
from polysweep.sweep import choose_direction, sweep_section, vertex_figure


def cube_f_oracle(d):
    """Counting oracle: the d-cube has 2^(d-k) C(d,k) faces of dim k."""
    return (1,) + tuple(2 ** (d - k) * math.comb(d, k) for k in range(d + 1))


def test_hull_square():
    assert lat("cube:2").f_vector() == (1, 4, 4, 1)


def test_hull_cube():
    assert cube_f_oracle(3) == (8, 12, 6, 1)[0:0] + (1, 8, 12, 6, 1)
    assert lat("cube:3").f_vector() == cube_f_oracle(3)
    assert lat("cube:4").f_vector() == cube_f_oracle(4)


def test_hull_square_pyramid():
    # apex over the unit square: 5 vertices, 8 edges, 5 facets
    l = ps.hull_lattice(ps.pyramid(ps.make_cube(2)))
    assert l.f_vector() == (1, 5, 8, 5, 1)


def test_constructors():
    assert lat("polygon:5").f_vector() == (1, 5, 5, 1)
    assert lat("cross:3").f_vector() == (1, 6, 12, 8, 1)
    assert lat("cube:1").f_vector() == (1, 2, 1)
    assert lat("simplex:0").f_vector() == (1, 1)


def test_pyramid_prism_product():
    assert len(ps.pyramid(ps.make_polygon(4)).vertices) == 5
    assert ps.hull_lattice(ps.prism(ps.make_polygon(3))).f_vector() == (1, 6, 9, 5, 1)
    square = ps.product(ps.make_cube(1), ps.make_cube(1))
    assert ps.hull_lattice(square).f_vector() == (1, 4, 4, 1)


def test_product_face_counts_convolve():
    # nonempty faces of P x Q are pairs of nonempty faces
    p, q = lat("simplex:2"), lat("cube:1")
    pq = ps.hull_lattice(ps.product(p.coords, q.coords))
    fp, fq, fpq = p.f_vector(), q.f_vector(), pq.f_vector()
    for k in range(pq.dim + 1):
        conv = sum(
            fp[i + 1] * fq[k - i + 1]
            for i in range(k + 1)
            if i <= p.dim and k - i <= q.dim
        )
        assert fpq[k + 1] == conv


def test_hull_rejects_non_vertex_points():
    square_plus_center = VRep(
        2, (vec(0, 0), vec(2, 0), vec(0, 2), vec(2, 2), vec(1, 1))
    )
    with pytest.raises(NonVertexPoint) as e:
        ps.hull_lattice(square_plus_center)
    assert e.value.index == 4
    edge_midpoint = VRep(2, (vec(0, 0), vec(2, 0), vec(1, 0), vec(0, 2)))
    with pytest.raises(NonVertexPoint):
        ps.hull_lattice(edge_midpoint)


def test_hull_rejects_flat_input():
    with pytest.raises(NotFullDimensional):
        ps.hull_lattice(VRep(2, (vec(0, 0), vec(1, 1), vec(2, 2))))


def test_hull_rejects_duplicate_points():
    with pytest.raises(NonVertexPoint):
        ps.hull_lattice(VRep(2, (vec(0, 0), vec(1, 0), vec(0, 1), vec(0, 0))))


def test_collinear_interior_point():
    with pytest.raises(NonVertexPoint):
        ps.hull_lattice(VRep(1, (vec(0), vec(2), vec(1))))


def test_one_dimensional_crosspolytope():
    assert ps.hull_lattice(ps.make_crosspolytope(1)).f_vector() == (1, 2, 1)


def test_lattice_structure_valid():
    for spec in ("cube:3", "cross:3", "polygon:5", "pyramid:polygon:4", "simplex:4"):
        validate(lat(spec))


def test_validate_rejects_faces_not_closed_under_intersection():
    # the square without vertex {0}: its edges {0,1} and {0,2} meet there
    l = ps.FaceLattice(
        2, [(0, -1), (0b0010, 0), (0b0100, 0), (0b1000, 0), (0b0011, 1),
            (0b0101, 1), (0b1010, 1), (0b1100, 1), (0b1111, 2)]
    )
    with pytest.raises(ValueError, match="not closed under intersection"):
        validate(l)


def test_validate_rejects_a_lattice_that_is_not_graded():
    # the pentagon without its edges: the top face covers each vertex
    l = lat("polygon:5")
    pruned = FaceLattice(2, [(m, k) for m, k in zip(l.masks, l.dims) if k != 1])
    with pytest.raises(ValueError, match="the lattice is not graded"):
        validate(pruned)


def test_edge_endpoints_rejects_a_non_edge():
    l = lat("cube:3")
    with pytest.raises(ValueError, match="is not an edge"):
        l.edge_endpoints(l.by_dim[2][0])


def hull_or_refusal(hull, v):
    """The order and facets hull(v) finds, or the type and message of
    its refusal."""
    try:
        l = hull(v)
    except InputError as e:
        return type(e), str(e)
    return l.masks, l.dims, l.up, l.down, l.facets


scale = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@st.composite
def point_sets(draw):
    """d + 1 to d + 5 points in dimension 1-5: mostly distinct points on
    the paraboloid x_d = |x|^2 (all vertices), else random ones, possibly
    scaled and moved by rationals, with a repeated point, the midpoint
    of two points or every point on one hyperplane added."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(d + 1, d + 5))
    if d > 1 and draw(st.integers(0, 3)):
        xs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * (d - 1)),
                           min_size=n, max_size=n, unique=True))
        pts = [(*x, sum(c * c for c in x)) for x in xs]
    else:
        pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=n, max_size=n))
    if draw(st.booleans()):
        a = draw(st.lists(scale, min_size=d, max_size=d))
        b = draw(st.lists(scale, min_size=d, max_size=d))
        pts = [tuple(x * y + z for x, y, z in zip(p, a, b)) for p in pts]
    extra = draw(st.none() | st.sampled_from(("repeat", "midpoint", "flat")))
    if extra == "repeat":
        pts.append(draw(st.sampled_from(pts)))
    elif extra == "midpoint":
        p, q = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple(F(x + y, 2) for x, y in zip(p, q)))
    elif extra == "flat":
        pts = [(*p[:-1], sum(p[:-1])) for p in pts]
    return VRep(d, tuple(draw(st.permutations(pts))))


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_hull_matches_the_brute_force_closure(v):
    """Faces level by level from the facets, each of its level's
    dimension, give the order and facets of the intersection closure
    with a rank per face; a refusal is the same refusal."""
    got = hull_or_refusal(ps.hull_lattice, v)
    assert got == hull_or_refusal(brute_hull_lattice, v)
    event(got[0].__name__ if isinstance(got[0], type) else f"dimension {v.dim} polytope")


@pytest.mark.parametrize("spec", [*CORPUS_SPECS, "json", "cross:6"])
def test_corpus_hulls_match_the_brute_force_closure(spec):
    v = vrep_from_json(RATIONAL_INPUT) if spec == "json" else parse_input(spec)
    got = hull_or_refusal(ps.hull_lattice, v)
    assert isinstance(got[0], tuple) and got == hull_or_refusal(brute_hull_lattice, v)


def test_dim0_faces_are_singletons():
    l = lat("cross:4")
    for i in l.by_dim[0]:
        assert l.masks[i].bit_count() == 1


def assert_dual_is_hulled_polar(l):
    """dual(l) numbers its atoms as polar_dual numbers its vertices, so
    the hulled polar has the same masks and dimensions."""
    dl, polar = ps.dual(l), ps.hull_lattice(ps.polar_dual(l))
    assert (dl.masks, dl.dims) == (polar.masks, polar.dims)
    return dl


def test_dual_cube_is_octahedron():
    dl = assert_dual_is_hulled_polar(lat("cube:3"))
    assert dl.f_vector() == lat("cross:3").f_vector() == (1, 6, 12, 8, 1)


def test_dual_simplex_self():
    dl = assert_dual_is_hulled_polar(lat("simplex:3"))
    assert dl.f_vector() == lat("simplex:3").f_vector() == (1, 4, 6, 4, 1)


def test_dual_involution():
    # vertex j of the double dual is facet j of dual(l), which is the set
    # of facets of l at one vertex of l
    for spec in ("cube:3", "polygon:6", "pyramid:polygon:4"):
        l = lat(spec)
        dl = ps.dual(l)
        dd = ps.dual(dl)
        facets = l.by_dim[l.dim - 1]
        vertex_of = {
            sum(1 << k for k, fi in enumerate(facets) if l.masks[fi] >> v & 1): v
            for v in range(l.n_vertices)
        }
        relabel = [vertex_of[dl.masks[fi]] for fi in dl.by_dim[dl.dim - 1]]
        faces = {
            (sum(1 << relabel[j] for j in bits(m)), k)
            for m, k in zip(dd.masks, dd.dims)
        }
        assert len(faces) == len(dd.masks) == len(l.masks)
        assert faces == set(zip(l.masks, l.dims))


def test_polar_dual_realizes_dual_lattice():
    for spec in ("cube:3", "simplex:3", "pyramid:polygon:4", "polygon:5",
                 "cross:3", "pyramid:polygon:5", "prism:cross:3"):
        assert_dual_is_hulled_polar(lat(spec))


def test_facet_hyperplanes_outward():
    """The hyperplanes the hull keeps from its subset loop are those
    eliminated again from each facet's vertices, outward, and tight
    exactly on their facet."""
    for spec in ("segment", "polygon:5", "simplex:3", "cube:3", "cross:3",
                 "pyramid:polygon:4", "prism:polygon:6", "cube:4", "cross:4",
                 "pyramid:cube:3", "prism:cross:3", "product:simplex:2:simplex:2"):
        l = lat(spec)
        pts = l.coords.vertices
        stored = facet_hyperplanes(l)
        assert stored == eliminated_facets(l), spec
        for fi, (normal, offset) in zip(l.by_dim[l.dim - 1], stored):
            assert all(type(x) is int for x in normal)
            assert all(ps.dot(normal, p) <= offset for p in pts)
            on = [ps.dot(normal, p) == offset for p in pts]
            assert on == [bool(l.masks[fi] >> i & 1) for i in range(len(pts))]
    l = lat("cube:3")
    short = dict(list(l.facets.items())[1:])
    with pytest.raises(ValueError, match="not one per facet"):
        FaceLattice(3, zip(l.masks, l.dims), coords=l.coords, facets=short)


def test_placed_shares_the_order_and_keeps_its_own_geometry_and_memo():
    l = lat("cube:3")
    bare = FaceLattice(3, zip(l.masks, l.dims))
    placed = bare.placed(l.coords, dict(reversed(l.facets.items())))
    assert (placed.coords, placed.facets) == (l.coords, l.facets)
    assert list(placed.facets) == list(l.facets)  # back in mask order
    assert (bare.coords, bare.facets) == (None, None)
    for name in ("masks", "dims", "index", "by_dim", "level", "up", "down"):
        assert getattr(placed, name) is getattr(bare, name)
    assert placed._memo == {} and placed._memo is not bare._memo
    short = dict(list(l.facets.items())[1:])
    with pytest.raises(ValueError, match="not one per facet"):
        bare.placed(l.coords, short)


def test_geometry_of_a_lattice_without_coordinates_raises():
    d = ps.dual(lat("cube:3"))
    with pytest.raises(ValueError, match="facet_hyperplanes needs a lattice with vertex coordinates"):
        facet_hyperplanes(d)
    with pytest.raises(ValueError, match="polar_dual needs a lattice with vertex coordinates"):
        ps.polar_dual(d)


def test_is_eulerian():
    assert ps.is_eulerian(lat("cube:3"))
    assert ps.is_eulerian(lat("polygon:5"))


def eulerian_by_every_interval(l: FaceLattice) -> bool:
    """Oracle for ``is_eulerian``: every interval of rank >= 1, of odd
    rank too, has equally many elements of even and odd rank."""
    even = sum(m for k, m in l.level.items() if k % 2 == 0)
    for i, u in enumerate(l.up):
        for j in bits(u & ~(1 << i)):
            interval = u & l.down[j]
            if 2 * (interval & even).bit_count() != interval.bit_count():
                return False
    return True


def mutated_lattices(l: FaceLattice):
    """The lattices of l with one face dropped, one face's dimension
    shifted by one either way, or one mask that is no face of l added
    at each dimension; a mutant FaceLattice refuses is left out."""
    faces = list(zip(l.masks, l.dims))
    inner = range(1, len(faces) - 1)  # the empty face and P stay
    candidates = [faces[:i] + faces[i + 1:] for i in inner]
    candidates += [faces[:i] + [(faces[i][0], faces[i][1] + shift)] + faces[i + 1:]
                   for i in inner for shift in (-1, 1)]
    rng = random.Random(len(faces))
    for _ in range(3):
        mask = rng.randrange(1, 1 << l.n_vertices)
        if mask not in l.index:
            candidates += [faces + [(mask, k)] for k in range(l.dim)]
    for faces in candidates:
        try:
            yield FaceLattice(l.dim, faces)
        except ValueError:
            pass


@pytest.mark.parametrize("spec", [spec for spec, d in CORPUS_SPECS.items() if d <= 4])
def test_is_eulerian_walking_even_intervals_gives_every_intervals_verdict(spec):
    l = lat(spec)
    assert ps.is_eulerian(l) and eulerian_by_every_interval(l)
    for mutant in mutated_lattices(l):
        assert ps.is_eulerian(mutant) == eulerian_by_every_interval(mutant)


def test_deleted_facet_breaks_eulerian():
    l = lat("cube:3")
    victim = l.by_dim[2][0]
    pruned = FaceLattice(
        3,
        [(l.masks[i], l.dims[i]) for i in range(len(l.masks)) if i != victim],
        coords=l.coords,
    )
    # direct interval count oracle: [empty, P] now has 26 proper faces
    # + 2 ends: ranks -1..3 hold 1, 8, 12, 5, 1 elements -> imbalance 1
    counts = [0] * 5
    for k in pruned.dims:
        counts[k + 1] += 1
    assert counts == [1, 8, 12, 5, 1]
    assert sum(counts[0::2]) - sum(counts[1::2]) != 0
    assert not ps.is_eulerian(pruned)


def test_unbalanced_proper_interval_breaks_eulerian():
    # the pentagon with its edge {0,1} moved to {0,2}: [empty, P] still
    # holds 1, 5, 5, 1 faces, but [{2}, P] holds {2}, three edges and P
    l = lat("polygon:5")
    moved = FaceLattice(
        2, [(0b00101 if m == 0b00011 else m, k) for m, k in zip(l.masks, l.dims)]
    )
    assert moved.f_vector() == (1, 5, 5, 1)
    v2 = moved.index[0b00100]
    above = [moved.dims[i] for i, m in enumerate(moved.masks) if moved.masks[v2] & ~m == 0]
    assert above == [0, 1, 1, 1, 2]
    assert not ps.is_eulerian(moved)


def test_every_constructor_output_eulerian():
    for spec in (
        "simplex:3",
        "cube:3",
        "cross:3",
        "polygon:7",
        "pyramid:polygon:5",
        "prism:polygon:3",
        "product:simplex:2:simplex:2",
    ):
        assert ps.is_eulerian(lat(spec))


def test_float_coordinates_raise_type_error():
    with pytest.raises(TypeError):
        VRep(2, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def exactly_typed(x) -> bool:
    """An int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is F and x.denominator > 1)


# integral values written as a rational, a decimal and an exponent too
RATIONAL_INPUT = {"dim": 3, "vertices": [
    ["0", "4/2", "0"], ["1/2", "2", "0"], ["0", "8/3", "0"], ["0", "2", "3/4"],
    ["1.5", "4", "2e-1"],
]}


@pytest.mark.parametrize("spec", [*CORPUS_SPECS, "json"])
def test_scalars_are_ints_where_integral(spec):
    """Every coordinate, printed height, facet offset and polar
    coordinate is an int, or a Fraction only where it is not integral."""
    if spec == "json":
        l = ps.hull_lattice(vrep_from_json(RATIONAL_INPUT))
    else:
        l = lat(spec)
    polar = ps.polar_dual(l)
    scalars = [x for v in (l.coords, polar) for p in v.vertices for x in p]
    scalars += [offset for _, offset in (l.facets or {}).values()]
    directions = [None] + ([parse_direction(DIRECTIONS[l.dim])] if l.dim else [])
    for v in (l.coords, polar):
        for p in directions:
            scalars += choose_direction(p, v).heights
    assert all(map(exactly_typed, scalars))
    if spec == "json":
        assert type(l.coords.vertices[0][1]) is int
        assert any(type(x) is F for x in scalars)


def test_vrep_json_roundtrip():
    v = VRep(2, (vec(0, 0), vec(1, 0), vec(F(1, 2), F(3, 7))))
    obj = vrep_to_json(v)
    assert obj["vertices"][2] == ["1/2", "3/7"]
    assert vrep_from_json(obj) == v


def test_json_int_coordinates_are_read_as_themselves():
    # an int of at most MAX_NUMERAL_DIGITS digits is taken as it is; a
    # longer one is refused as its numeral string is
    n = MAX_NUMERAL_DIGITS
    edge = 10**n - 1
    v = vrep_from_json({"dim": 1, "vertices": [[-edge], [edge]]})
    assert v.vertices == ((-edge,), (edge,))
    assert all(type(p[0]) is int for p in v.vertices)
    for x in (10**n, -(10**n), 10 ** (n + 5)):
        with pytest.raises(InputError) as as_int:
            vrep_from_json({"dim": 1, "vertices": [[0], [x]]})
        with pytest.raises(InputError) as as_text:
            vrep_from_json({"dim": 1, "vertices": [[0], [str(x)]]})
        assert f"at most {n} digits" in str(as_int.value)
        assert str(as_int.value) == str(as_text.value)


# builtin specs of every family named in the tests and README, dimension <= 4
KERNEL_SPECS = (
    "point", "segment", "simplex:2", "simplex:3", "simplex:4", "cube:2", "cube:3",
    "cube:4", "cross:2", "cross:3", "cross:4", "polygon:3", "polygon:7",
    "pyramid:polygon:4", "pyramid:polygon:5", "pyramid:cube:3", "prism:polygon:3",
    "prism:polygon:6", "prism:cross:3", "product:cube:2:polygon:3",
    "product:simplex:2:simplex:2",
)


def lattices_below(l, s):
    """l, and every vertex figure and section below it, recursively."""
    yield l
    for vi in range(l.n_vertices):
        if l.dim >= 1:
            q = vertex_figure(l, s, vi)
            yield from lattices_below(q.lattice, q.direction)
        r = sweep_section(l, s, vi)
        if r is not None:
            yield from lattices_below(r.lattice, r.direction)


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_incidence_kernel_matches_vertex_masks(spec):
    l = lat(spec)
    for sub in [ps.dual(l), *lattices_below(l, default_direction(spec))]:
        validate(sub)
        masks = sub.masks
        for i in range(len(masks)):
            assert [k for k in sub.level if sub.level[k] >> i & 1] == [sub.dims[i]]
            for j in range(len(masks)):
                c = masks[i] & masks[j] == masks[i]
                assert bool(sub.down[j] >> i & 1) == c
                assert bool(sub.up[i] >> j & 1) == c
