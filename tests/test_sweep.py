import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polysweep as ps
import polysweep.sweep as sweep_mod
import polysweep.toric as toric_mod
import polysweep.truncpartition as partition_mod
from conftest import (
    default_direction, eliminated_facets, height_side, ladder_slopes, lat, wrong_on_dimension,
)
from polysweep.cli import main, parse_direction, parse_input
from polysweep.errors import CrossCheckError, NotGeneric, NotSimple
from fraction_rref import pivot_columns
from cli_compare import DIRECTIONS as CORPUS_DIRECTIONS
from test_cli_corpus import SPECS as CORPUS_SPECS
from polysweep.exactnum import matrix_rank, vsub
from polysweep.flagvec import CDPolynomial, cd_index
from polysweep.polytope import bits, facet_hyperplanes, polar_lattice
from polysweep.verify import run_verification
from polysweep.sweep import (
    cd_sweep,
    cd_sweep_symmetric,
    choose_direction,
    min_vertex_partition,
    simple_h_by_outdegree,
    support_normal,
    sweep_section,
    vertex_figure,
)

CD = CDPolynomial


def sweep_order(s):
    return sorted(range(len(s.heights)), key=lambda i: s.heights[i])


def poly_f_shifted(l):
    """Oracle for the simple h-vector: expand f(P, x-1) directly."""
    fv = l.f_vector()
    coeffs = [0] * (l.dim + 1)
    for i in range(l.dim + 1):
        term = [1]  # ascending coefficients of (x-1)^i
        for _ in range(i):
            term = [
                (term[j - 1] if j else 0) - (term[j] if j < len(term) else 0)
                for j in range(len(term) + 1)
            ]
        for j, c in enumerate(term):
            coeffs[j] += fv[i + 1] * c
    return tuple(coeffs)


def test_poly_oracle_sane():
    # f(cube, x) = 8 + 12x + 6x^2 + x^3; f(cube, x-1) = 1+3x+3x^2+x^3
    assert poly_f_shifted(lat("cube:3")) == (1, 3, 3, 1)


def test_choose_direction_accepts_generic():
    s = choose_direction((1, 2), lat("cube:2").coords)
    assert sorted(s.heights) == [0, 1, 2, 3]


def test_choose_direction_rejects_ties():
    with pytest.raises(NotGeneric):
        choose_direction((1, 0), lat("cube:2").coords)


def test_choose_direction_ladder_octahedron():
    # t = 2 already separates +-1, +-2, +-4
    s = choose_direction(None, lat("cross:3").coords)
    assert s.p == (1, 2, 4)
    assert len(set(s.heights)) == 6


def test_simple_h_by_outdegree():
    for spec, expect in (("cube:3", (1, 3, 3, 1)), ("polygon:5", (1, 3, 1)),
                         ("cube:1", (1, 1))):
        l = lat(spec)
        s = default_direction(spec)
        h = simple_h_by_outdegree(l, s)
        assert h == expect == poly_f_shifted(l)


def test_simple_h_direction_independent():
    l = lat("cube:3")
    for p in ((1, 2, 4), (7, 3, 1), (F(1, 2), 5, F(9, 4))):
        assert simple_h_by_outdegree(l, choose_direction(p, l.coords)) == (1, 3, 3, 1)


def test_not_simple():
    with pytest.raises(NotSimple):
        simple_h_by_outdegree(lat("cross:3"), default_direction("cross:3"))


def test_min_vertex_partition_segment():
    l = lat("cube:1")
    blocks = min_vertex_partition(l, default_direction("cube:1"))
    assert sorted(len(b) for b in blocks.values()) == [1, 2]


def test_min_vertex_partition_square():
    l = lat("cube:2")
    s = choose_direction((1, 2), l.coords)
    blocks = min_vertex_partition(l, s)
    by_height = [len(blocks[vi]) for vi in sweep_order(s)]
    assert by_height == [4, 2, 2, 1]


def test_min_vertex_partition_cube():
    l = lat("cube:3")
    s = default_direction("cube:3")
    blocks = min_vertex_partition(l, s)
    assert sum(len(b) for b in blocks.values()) == 27
    for vi, faces in blocks.items():
        out = sum(
            1 for e in l.faces_at_vertex(vi, 1)
            if max(s.heights[w] for w in l.vertices_of(e)) > s.heights[vi]
        )
        assert len(faces) == 2 ** out


def test_support_normal_cube_corner():
    l = lat("cube:3")
    a = support_normal(l, 0, 1)
    assert a == (-1, -1, -1)


def test_support_normal_octahedron():
    l = lat("cross:3")
    a = support_normal(l, 0, 1)  # vertex e_1
    assert a == (4, 0, 0)  # sum of the four incident facet normals


def test_support_normal_strict_on_polygon():
    l = lat("polygon:5")
    pts = l.coords.vertices
    for vi in range(5):
        for t in (1, 2, 3):
            a = support_normal(l, vi, t)
            av = ps.dot(a, pts[vi])
            assert all(ps.dot(a, pts[w]) < av for w in range(5) if w != vi)


def test_support_normal_rejects_negated_facet_normals():
    # the summed negated normals at the origin give (1, 1, 1), which is
    # maximized at the far corner
    l = lat("cube:3")
    negated = {m: (tuple(-x for x in n), -b) for m, (n, b) in l.facets.items()}
    bad = ps.FaceLattice(l.dim, zip(l.masks, l.dims), coords=l.coords, facets=negated)
    with pytest.raises(CrossCheckError, match="does not strictly support vertex 0"):
        support_normal(bad, 0, 1)


def test_vertex_figure_walks_the_ladder_past_tied_slopes():
    # the polar of a triangle: at vertex 0 the t = 1 functional gives two
    # equal slopes, so the figure is cut by the t = 2 functional
    l = polar_lattice(lat("polygon:3"))
    s = ps.choose_direction(None, l.coords)
    a1, a2 = support_normal(l, 0, 1), support_normal(l, 0, 2)
    assert ladder_slopes(l, s, 0)[0] == a2 != a1
    q = vertex_figure(l, s, 0)
    assert len(set(q.direction.heights)) == 2
    assert q.lattice is sweep_mod._figure_cut(l, 0, a2)[0]


def test_vertex_figure_shapes():
    octa, s = lat("cross:3"), default_direction("cross:3")
    bottom = min(range(6), key=lambda i: s.heights[i])
    q = vertex_figure(octa, s, bottom)
    assert q.lattice.f_vector() == (1, 4, 4, 1)  # a quadrilateral

    pyr = lat("pyramid:polygon:4")
    sp = choose_direction((1, 0, F(1, 4)), pyr.coords)
    apex = 4
    assert vertex_figure(pyr, sp, apex).lattice.f_vector() == (1, 4, 4, 1)
    assert vertex_figure(pyr, sp, 0).lattice.f_vector() == (1, 3, 3, 1)

    seg, s1 = lat("cube:1"), default_direction("cube:1")
    assert vertex_figure(seg, s1, 0).lattice.f_vector() == (1, 1)


def test_vertex_figure_geometry_matches_derived_lattice():
    # the cut coordinates must realize exactly the derived combinatorics
    for spec in ("cross:3", "cube:3", "pyramid:polygon:4", "simplex:3"):
        l, s = lat(spec), default_direction(spec)
        for vi in range(l.n_vertices):
            q = vertex_figure(l, s, vi)
            hull = ps.hull_lattice(q.lattice.coords)
            assert hull.masks == q.lattice.masks
            assert hull.dims == q.lattice.dims


def test_section_geometry_matches_derived_lattice():
    for spec in ("cross:3", "cube:3", "pyramid:polygon:4", "cube:4"):
        l, s = lat(spec), default_direction(spec)
        for vi in range(l.n_vertices):
            r = sweep_section(l, s, vi)
            if r is None or r.lattice.dim == 0:
                continue
            hull = ps.hull_lattice(r.lattice.coords)
            assert hull.masks == r.lattice.masks
            assert hull.dims == r.lattice.dims


@pytest.mark.parametrize(
    "spec",
    ["segment", "polygon:5", "cube:3", "cross:3", "pyramid:polygon:4",
     "simplex:4", "prism:polygon:5", "cube:4"],
)
def test_figure_heights_are_height_plus_slope(spec):
    # the figure's heights are the one record of the edge order at v:
    # v sits at height 0 in its figure, and sub-vertex j at 0 plus one
    # λ > 0 times the slope of the j-th edge at v, an int
    l, s = lat(spec), default_direction(spec)
    for vi in range(l.n_vertices):
        q = vertex_figure(l, s, vi)
        _, slopes = ladder_slopes(l, s, vi)
        edges = l.faces_at_vertex(vi, 1)
        assert all(type(h) is int for h in q.direction.heights)
        (lam,) = {F(h, slopes[e]) for h, e in zip(q.direction.heights, edges)}
        assert lam > 0


def test_vertex_figure_counts():
    for spec in ("cross:3", "pyramid:polygon:4", "cube:4"):
        l, s = lat(spec), default_direction(spec)
        for vi in range(l.n_vertices):
            q = vertex_figure(l, s, vi)
            assert q.lattice.n_vertices == len(l.faces_at_vertex(vi, 1))


def faces_at(l, vi) -> int:
    """The mask of the faces at vi of dimension >= 1."""
    return l.up[l.index[1 << vi]] & ~l.level[0]


def test_classify_faces():
    l, s = lat("cross:3"), default_direction("cross:3")
    order = sweep_order(s)
    full = len(l.masks) - 1
    # every face at the lowest vertex rises from it; none at the highest
    # rises or crosses
    assert sweep_mod._up_down(l, s, order[0])[3:] == (faces_at(l, order[0]), 0)
    assert sweep_mod._up_down(l, s, order[-1])[3:] == (0, 0)
    for vi in order[1:-1]:
        rising, crossing = sweep_mod._up_down(l, s, vi)[3:]
        # the full octahedron crosses the sweep plane at any middle
        # vertex, and no edge does
        assert crossing >> full & 1 and not crossing & l.level[1]
        assert not rising & crossing and (rising | crossing) & ~faces_at(l, vi) == 0
        # an edge rises from its lower end and falls to its upper one
        for e in l.faces_at_vertex(vi, 1):
            lo, hi = sorted(l.vertices_of(e), key=s.heights.__getitem__)
            assert sweep_mod._up_down(l, s, lo)[3] >> e & 1
            assert not sweep_mod._up_down(l, s, hi)[3] >> e & 1


def test_sweep_section_shapes():
    octa, s = lat("cross:3"), default_direction("cross:3")
    order = sweep_order(s)
    assert sweep_section(octa, s, order[0]) is None
    assert sweep_section(octa, s, order[5]) is None
    for vi in order[1:5]:
        r = sweep_section(octa, s, vi)
        assert r.lattice.f_vector() == (1, 2, 1)  # a segment

    pent, s2 = lat("polygon:5"), default_direction("polygon:5")
    for vi in sweep_order(s2)[1:4]:
        assert sweep_section(pent, s2, vi).lattice.f_vector() == (1, 1)  # a point
        # the vertex figure is a segment, which has no section
        q = vertex_figure(pent, s2, vi)
        assert q.lattice.dim == 1
        assert all(sweep_section(q.lattice, q.direction, j) is None for j in range(2))


def test_sweep_section_counts_middle_two_faces():
    l, s = lat("cube:4"), default_direction("cube:4")
    for vi in range(l.n_vertices):
        r = sweep_section(l, s, vi)
        if r is None:
            continue
        middles = [
            fi
            for fi in l.faces_at_vertex(vi, 2)
            if height_side(l, s, vi, fi) == "crossing"
        ]
        assert r.lattice.n_vertices == len(middles)


def test_cd_sweep_polygon_contributions():
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    per, total = cd_sweep(pent, s)
    assert [per[i] for i in sweep_order(s)] == [
        CD({"cc": 1}), CD({"d": 1}), CD({"d": 1}), CD({"d": 1}), CD({})
    ]
    assert total == CD({"cc": 1, "d": 3})


def test_cd_sweep_octahedron_contributions():
    octa = lat("cross:3")
    s = choose_direction((1, 2, 4), octa.coords)
    per, total = cd_sweep(octa, s)
    assert [per[i] for i in sweep_order(s)] == [
        CD({"ccc": 1, "cd": 2}),
        CD({"cd": 2, "dc": 1}),
        CD({"cd": 1, "dc": 1}),
        CD({"cd": 1, "dc": 1}),
        CD({"dc": 1}),
        CD({}),
    ]
    assert total == CD({"ccc": 1, "cd": 6, "dc": 4})


def test_cd_sweep_pyramid_contributions():
    pyr = lat("pyramid:polygon:4")
    s = choose_direction((1, 0, F(1, 4)), pyr.coords)  # apex swept third
    per, total = cd_sweep(pyr, s)
    assert [per[i] for i in sweep_order(s)] == [
        CD({"ccc": 1, "cd": 1}),
        CD({"cd": 1, "dc": 1}),
        CD({"cd": 1, "dc": 1}),
        CD({"dc": 1}),
        CD({}),
    ]
    assert total == CD({"ccc": 1, "cd": 3, "dc": 3})


def test_cd_symmetric_polygon_contributions():
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    per, total = cd_sweep_symmetric(pent, s)
    order = sweep_order(s)
    assert per[order[0]] == per[order[4]] == CD({"cc": F(1, 2)})
    for vi in order[1:4]:
        assert per[vi] == CD({"d": 1})
    assert total == CD({"cc": 1, "d": 3})


def test_cd_symmetric_octahedron_contributions():
    octa = lat("cross:3")
    s = choose_direction((1, 2, 4), octa.coords)
    per, total = cd_sweep_symmetric(octa, s)
    order = sweep_order(s)
    ends = CD({"ccc": F(1, 2), "cd": 1})
    assert per[order[0]] == per[order[5]] == ends
    for vi in order[1:5]:
        assert per[vi] == CD({"cd": 1, "dc": 1})
    assert total == CD({"ccc": 1, "cd": 6, "dc": 4})


def test_cd_symmetric_pyramid_contributions():
    pyr = lat("pyramid:polygon:4")
    s = choose_direction((1, 0, F(1, 4)), pyr.coords)
    per, _ = cd_sweep_symmetric(pyr, s)
    order = sweep_order(s)
    assert per[order[0]] == per[order[4]] == CD({"ccc": F(1, 2), "cd": F(1, 2)})
    assert per[order[1]] == per[order[3]] == CD({"cd": F(1, 2), "dc": 1})
    assert per[order[2]] == CD({"cd": 1, "dc": 1})  # the apex


def test_routes_agree_and_last_vertex_zero():
    for spec in ("polygon:6", "simplex:3", "cube:3", "cross:3",
                 "prism:polygon:3", "pyramid:polygon:5"):
        l, s = lat(spec), default_direction(spec)
        phi = cd_index(l)
        per, total = cd_sweep(l, s)
        _, total_sym = cd_sweep_symmetric(l, s)
        assert total == phi == total_sym
        assert per[sweep_order(s)[-1]].is_zero()
        assert all(p.is_nonnegative() for p in per.values())


def test_deep_sweep_cross_validates():
    for spec in ("polygon:5", "cube:3", "pyramid:polygon:4"):
        l, s = lat(spec), default_direction(spec)
        _, total = cd_sweep(l, s, deep=True)
        assert total == cd_index(l)


def test_routes_get_the_same_figures_and_sections(monkeypatch):
    """The cd sweep and the toric sweep get no vertex figure and no
    section: they read the figure's upper parts and the section values
    off the lattice.  The partition gets each figure it reads as the one
    object first built, and cuts each section it reads once.  It cuts
    only the figures of levels of dimension >= 3 and the sections of
    levels of dimension >= 4: on a 3-polytope no section and no figure
    of a figure, on a 4-polytope a section at each middle vertex."""
    real_figure, real_section = sweep_mod.vertex_figure, sweep_mod.sweep_section
    for spec in ("pyramid:polygon:4", "pyramid:cube:3"):
        l = ps.hull_lattice(parse_input(spec))
        s = ps.choose_direction(None, l.coords)
        got: dict = {}
        below = []

        def spy(kind, fn):
            def wrapper(lat_, s_, vi):
                out = fn(lat_, s_, vi)
                if lat_ is l:
                    got.setdefault((kind, vi), []).append(out)
                else:
                    below.append((kind, lat_.dim))
                return out
            return wrapper

        figure = spy("figure", real_figure)
        section = spy("section", real_section)
        for mod in (sweep_mod, partition_mod):
            monkeypatch.setattr(mod, "vertex_figure", figure)
            monkeypatch.setattr(mod, "sweep_section", section)
        ps.cd_sweep(l, s)
        ps.toric_sweep(l, s)
        assert got == {} and below == []
        ps.build_partition(l, s)

        for objs in got.values():
            assert all(o is objs[0] for o in objs)
        middle = [vi for vi in range(l.n_vertices) if all(sweep_mod._up_down(l, s, vi)[:2])]
        assert middle
        cut = [vi for kind, vi in got if kind == "section"]
        if l.dim == 3:
            assert cut == [] and below == []
            assert all(len(got[("figure", vi)]) >= 2 for vi in middle)
        else:
            assert sorted(cut) == middle
            assert all(len(got[("section", vi)]) == 1 for vi in middle)
            assert all(len(got[("figure", vi)]) >= 3 for vi in middle)
            assert below and all(kind == "figure" and dim == 3 for kind, dim in below)


def test_figure_memo_keys_on_the_direction():
    """s and -s cut the same hyperplanes: their figures share the lattice
    and differ in the sign of the heights.  A cut section is kept per
    direction, so s and -s cut equal sections, each equal to the one
    read off the lattice.  A direction not proportional to s gets its
    own figures and sections; a figure lattice is shared exactly when
    the support normals agree."""
    l = ps.hull_lattice(parse_input("cross:3"))
    s1 = ps.choose_direction(None, l.coords)
    s2 = ps.choose_direction(tuple(-x for x in s1.p), l.coords)
    s3 = ps.choose_direction((3, -1, 7), l.coords)
    fresh = ps.hull_lattice(parse_input("cross:3"))
    other = 0
    for vi in range(l.n_vertices):
        q1, q2, q3 = (vertex_figure(l, s, vi) for s in (s1, s2, s3))
        assert q1 is not q2 and q1 is not q3
        assert q1.lattice is q2.lattice
        assert q2.direction.heights == tuple(-h for h in q1.direction.heights)
        assert q2.direction == vertex_figure(fresh, s2, vi).direction
        same_normal = ladder_slopes(l, s3, vi)[0] == ladder_slopes(l, s1, vi)[0]
        assert (q3.lattice is q1.lattice) == same_normal
        r1, r2, r3 = (sweep_section(l, s, vi) for s in (s1, s2, s3))
        assert (r1 is None) == (r2 is None)
        if r1 is not None:
            assert r1 is not r2 and r1 is sweep_section(l, s1, vi)
            read = read_section(l, s2, vi)
            for r in (r1, r2):
                assert (r.lattice.masks, r.lattice.dims, r.face_parent) == (
                    read[0].masks, read[0].dims, read[1])
        if r1 is not None and r3 is not None:
            assert r1 is not r3
            other += 1
    assert other


def test_sub_polytope_face_map_order_preserving():
    """Figures and sections map their faces into the parent injectively
    and preserving order, their empty face to {v}; a section's parent
    faces are {v} and the middle faces at v, its sub-vertex k lies in the
    k-th middle 2-face, and it carries the ladder direction on its
    coordinates."""
    for spec in ("cube:3", "cross:4"):
        l, s = lat(spec), default_direction(spec)
        for vi in range(l.n_vertices):
            subs = [vertex_figure(l, s, vi)]
            r = sweep_section(l, s, vi)
            if r is not None:
                middle = [
                    fi
                    for k in range(2, l.dim + 1)
                    for fi in l.faces_at_vertex(vi, k)
                    if height_side(l, s, vi, fi) == "crossing"
                ]
                assert sorted(r.face_parent) == sorted([l.index[1 << vi]] + middle)
                two = [fi for fi in middle if l.dims[fi] == 2]
                assert [r.face_parent[r.lattice.index[1 << k]]
                        for k in range(r.lattice.n_vertices)] == two
                assert r.direction == choose_direction(None, r.lattice.coords)
                subs.append(r)
            for q in subs:
                assert q.face_parent[0] == l.index[1 << vi]
                n = len(q.lattice.masks)
                assert len(set(q.face_parent)) == n  # injective
                for i in range(n):
                    for j in range(n):
                        a, b = q.lattice.masks[i], q.lattice.masks[j]
                        pa, pb = l.masks[q.face_parent[i]], l.masks[q.face_parent[j]]
                        assert (a & ~b == 0) == (pa & ~pb == 0)


def random_hull(rng, d, n):
    """Hull of random integer points, dropping non-vertex points."""
    import polysweep as ps

    while True:
        pts = [
            tuple(F(rng.randint(-9, 9)) for _ in range(d)) for _ in range(n)
        ]
        pts = list(dict.fromkeys(pts))
        try:
            return ps.hull_lattice(ps.VRep(d, tuple(pts)))
        except ps.NonVertexPoint as e:
            del pts[e.index]
            while True:
                try:
                    return ps.hull_lattice(ps.VRep(d, tuple(pts)))
                except ps.NonVertexPoint as e2:
                    del pts[e2.index]
                except ps.NotFullDimensional:
                    break
        except ps.NotFullDimensional:
            continue


def test_random_polytopes_routes_agree():
    import random

    rng = random.Random(99)
    cases = [(2, 7), (2, 9), (3, 7), (3, 8)]
    for d, n in cases:
        l = random_hull(rng, d, n)
        s = ps.choose_direction(None, l.coords)
        phi = cd_index(l)
        assert phi.is_nonnegative() and phi.coefficient("c" * d) == 1
        assert cd_sweep(l, s)[1] == phi
        assert cd_sweep_symmetric(l, s)[1] == phi
        from polysweep.toric import toric_from_cd, toric_h_definition

        assert toric_h_definition(l) == toric_from_cd(phi, degree=d)


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=7)


@st.composite
def points_on_a_hyperplane(draw):
    """(normal, b, points) with every point on normal.y = b, solved for
    the first coordinate whose normal entry is nonzero."""
    d = draw(st.integers(2, 5))
    normal = tuple(draw(st.lists(small_rationals, min_size=d, max_size=d).filter(any)))
    b = draw(small_rationals)
    i0 = next(i for i, x in enumerate(normal) if x != 0)
    points = []
    for _ in range(draw(st.integers(d, d + 2))):
        y = draw(st.lists(small_rationals, min_size=d, max_size=d))
        y[i0] = (b - sum(normal[i] * y[i] for i in range(d) if i != i0)) / normal[i0]
        points.append(tuple(y))
    return normal, b, points


@settings(max_examples=60, deadline=None)
@given(points_on_a_hyperplane(), st.lists(small_rationals, min_size=5, max_size=5))
def test_closed_form_cut_matches_elimination(case, p):
    normal, b, points = case
    d = len(normal)
    diffs = [list(vsub(y, points[0])) for y in points[1:]]
    assume(matrix_rank(diffs) == d - 1)
    cols, k = sweep_mod._cut(normal)
    assert cols == pivot_columns(diffs)
    p = tuple(p[:d])
    q = sweep_mod._restrict(p, normal, cols, k)
    sign = 1 if normal[k] > 0 else -1
    for y in points:
        restricted = ps.dot(q, tuple(y[i] for i in cols)) + sign * p[k] * b
        assert restricted == abs(normal[k]) * ps.dot(p, y)


def check_integer_geometry(l, s, seen):
    """Every vertex figure below (l, s), and every section, recursively:
    int coordinates, and inherited facet hyperplanes equal to those
    eliminated from the sub-polytope's own coordinates."""
    for vi in range(l.n_vertices):
        subs = [vertex_figure(l, s, vi), sweep_section(l, s, vi)]
        for sub in filter(None, subs):
            q = sub.lattice
            ys = q.coords.vertices
            assert all(type(x) is int for y in ys for x in y)
            if q.dim >= 1:
                inherited = facet_hyperplanes(q)
                assert inherited == eliminated_facets(q)
                for fi, (normal, offset) in zip(q.by_dim[q.dim - 1], inherited):
                    on = [ps.dot(normal, y) == offset for y in ys]
                    assert on == [bool(q.masks[fi] >> j & 1) for j in range(len(ys))]
                    assert all(ps.dot(normal, y) <= offset for y in ys)
                seen.append(q.dim)
                check_integer_geometry(q, sub.direction, seen)


@pytest.mark.parametrize(
    "spec",
    ["polygon:5", "cube:3", "cross:3", "pyramid:polygon:4", "prism:polygon:5",
     "cube:4", "cross:4", "simplex:4", "pyramid:cube:3", "prism:cross:3",
     "product:simplex:2:simplex:2"],
)
def test_figures_are_integral_and_inherit_their_facets(spec):
    l = ps.hull_lattice(parse_input(spec))
    seen = []
    check_integer_geometry(l, ps.choose_direction(None, l.coords), seen)
    assert seen and min(seen) == 1


def check_integer_directions(l, s) -> int:
    """The number of figures and sections below (l, s), recursively,
    each checked to carry ints only in its functional and heights."""
    n = 0
    for vi in range(l.n_vertices):
        for sub in filter(None, [vertex_figure(l, s, vi), sweep_section(l, s, vi)]):
            assert all(type(x) is int for x in sub.direction.p + sub.direction.heights)
            n += 1
            if sub.lattice.dim >= 1:
                n += check_integer_directions(sub.lattice, sub.direction)
    return n


@pytest.mark.parametrize("spec", [spec for spec, d in CORPUS_SPECS.items() if d])
def test_figures_and_sections_hold_no_fractions(spec):
    # the corpus directions have fractional entries; below them, and
    # below the ladder, every functional and height is an int
    l = ps.hull_lattice(parse_input(spec))
    for p in (None, parse_direction(CORPUS_DIRECTIONS[l.dim])):
        assert check_integer_directions(l, ps.choose_direction(p, l.coords))


@pytest.mark.parametrize("spec", ["polygon:5", "cube:3", "pyramid:polygon:4", "cube:4",
                                  "pyramid:cube:3", "prism:cross:3", "simplex:5", "cross:5",
                                  "pyramid:cross:4"])
def test_no_sweep_cuts_a_section_unless_deep(monkeypatch, spec):
    """Without deep=True no sweep calls ``sweep_section``: every section
    value is read off the lattice.  In no dimension does it call
    ``vertex_figure``, ``support_normal`` or ``_place`` either: the
    recursive sweeps read the figure's upper parts off the lattice
    (``_upper_sum``).  Nor does it build a sub-lattice
    (``_lattice_over``): every value is a chain count of the parent's
    order.  The deep sweep cuts both, and builds what it cuts."""
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("sweep_section", "vertex_figure", "support_normal", "_place", "_lattice_over"):
        monkeypatch.setattr(sweep_mod, name, spy(name, getattr(sweep_mod, name)))
    # each sweep gets a lattice with an empty memo
    sweeps = (ps.cd_sweep_symmetric, ps.toric_sweep_symmetric, ps.cd_sweep, ps.toric_sweep)
    lattices = [ps.hull_lattice(parse_input(spec)) for _ in range(len(sweeps) + 1)]
    s = ps.choose_direction(None, lattices[0].coords)
    for sweep, l in zip(sweeps, lattices):
        sweep(l, s)
        assert calls == [], sweep.__name__
    ps.cd_sweep(lattices[-1], s, deep=True)
    assert {"vertex_figure", "support_normal", "_place", "_lattice_over"} <= set(calls)
    assert ("sweep_section" in calls) == (lattices[-1].dim >= 2)


def readings_off(l) -> list:
    """Where the values the default sweeps count off the order at each
    vertex, under the ladder and its reverse, differ from the lattices
    and cuts they stand for: the figure's cd-index, ``_upper_sum`` with
    every edge up, against the flag route on the star; the upper sum
    against the cut figure's deep-swept parts above v; the section's
    cd-index against the flag route on the section's lattice, where
    there is a section: exactly where the polytope is at least a polygon
    and v has an edge either way.  Empty when all agree."""
    s = ps.choose_direction(None, l.coords)
    reverse = ps.choose_direction(tuple(-x for x in s.p), l.coords)
    off = []
    for direction in (s, reverse):
        for vi in range(l.n_vertices):
            up, down, above, rising, crossing = sweep_mod._up_down(l, direction, vi)
            every = faces_at(l, vi)
            if sweep_mod._upper_sum(l, vi, every, 0) != cd_index(sweep_mod._star(l, vi)[0]):
                off.append((vi, "star"))
            if up:
                q = vertex_figure(l, direction, vi)
                parts = cd_sweep(q.lattice, q.direction, deep=True)[0]
                if sweep_mod._upper_sum(l, vi, rising, crossing) != sum(
                    (parts[j] for j in above), CDPolynomial.zero()
                ):
                    off.append((vi, "upper"))
            if bool(crossing) != bool(l.dim >= 2 and up and down):
                off.append((vi, "crossing"))
            if crossing:
                section = sweep_mod._split_section(l, vi, crossing)[0]
                if sweep_mod._section_cd(l, crossing) != cd_index(section):
                    off.append((vi, "section"))
    return off


@pytest.mark.parametrize("spec", [spec for spec, d in CORPUS_SPECS.items() if d])
def test_the_readings_off_the_order_equal_the_lattices_they_stand_for(spec):
    assert readings_off(ps.hull_lattice(parse_input(spec))) == []


def test_a_kernel_without_the_mixed_correction_fails_the_readings(monkeypatch, capsys):
    """A mutant ``chain_counts`` that drops the -1 of the upper sum's
    seed, the one less chain through an edge below a face holding an up-
    and a down-edge at v, fails the oracle above, and ``verify`` exits 3
    on it."""
    real = sweep_mod.chain_counts

    def mutant(l, faces, shift, seed=None):
        return real(l, faces, shift, seed and (lambda i: [max(c, 0) for c in seed(i)]))

    monkeypatch.setattr(sweep_mod, "chain_counts", mutant)
    try:
        off = readings_off(ps.hull_lattice(parse_input("cube:3")))
    except CrossCheckError as e:
        off = [str(e)]
    assert off
    assert main(["verify", "--input", "cube:3"]) == 3
    assert capsys.readouterr().err.startswith("cross-check failure: ")


ORDER_FIELDS = ("dim", "masks", "dims", "index", "by_dim", "level", "up", "down")


def read_section(l, s, vi):
    """(lattice, face map) of the section at vi read off the order, the
    one ``sweep_section`` places; None where it gives None: below
    dimension 2 and where v has no edge either way."""
    up, down, _, _, crossing = sweep_mod._up_down(l, s, vi)
    if l.dim < 2 or not (up and down):
        return None
    return sweep_mod._split_section(l, vi, crossing)


def cuts_place_the_read_lattices(l, s, depth) -> int:
    """At every vertex of l, and recursively through every figure and
    section ``depth`` levels down: the cut figure is the star read off
    the order, and the cut section the section read off it, placed: the
    very order objects and face map, with coordinates, facets and a memo
    of its own.  Returns the number of sections compared."""
    n = 0
    for vi in range(l.n_vertices):
        q = vertex_figure(l, s, vi)
        pairs = [(q, sweep_mod._star(l, vi))]
        read, r = read_section(l, s, vi), sweep_section(l, s, vi)
        assert (read is None) == (r is None)
        if r is not None:
            pairs.append((r, read))
            n += 1
        for sub, (order, face_map) in pairs:
            assert sub.face_parent is face_map
            assert all(getattr(sub.lattice, f) is getattr(order, f) for f in ORDER_FIELDS)
            assert order.coords is None and order.facets is None
            assert sub.lattice.coords is not None and sub.lattice._memo is not order._memo
        if depth > 1:
            n += sum(cuts_place_the_read_lattices(sub.lattice, sub.direction, depth - 1)
                     for sub, _ in pairs if sub.lattice.dim >= 1)
    return n


@pytest.mark.parametrize("spec", [spec for spec, d in CORPUS_SPECS.items() if d])
def test_lattices_read_off_the_order_equal_the_cut_ones(spec):
    l = ps.hull_lattice(parse_input(spec))
    s = ps.choose_direction(None, l.coords)
    reverse = ps.choose_direction(tuple(-x for x in s.p), l.coords)
    counts = [cuts_place_the_read_lattices(l, d, 2) for d in (s, reverse)]
    assert counts[0] == counts[1]
    assert counts[0] or l.dim < 2


@pytest.mark.parametrize("spec", ["pyramid:cube:3", "prism:cross:3"])
def test_verify_reads_each_sub_lattice_once_and_no_cut_builds_one(monkeypatch, spec):
    """Over ``run_verification`` ``_lattice_over`` runs once per star, a
    (parent, vertex), and once per section, a (parent, vertex, crossing
    set), called by the two readers alone: a cut only places."""
    built, real = [], sweep_mod._lattice_over

    def counted(lat_, atoms, faces, shift):
        caller = sys._getframe(1)
        faces = list(faces)
        if caller.f_code.co_name == "_split_section":
            key = (caller.f_locals["vi"], caller.f_locals["crossing"])
        else:
            key = faces[0]
        built.append((caller.f_code.co_name, lat_, key))
        return real(lat_, atoms, faces, shift)

    monkeypatch.setattr(sweep_mod, "_lattice_over", counted)
    l = ps.hull_lattice(parse_input(spec))
    checks = run_verification(l, None, 4, True)
    assert all(passed for _, passed in checks)
    readers = {caller for caller, _, _ in built}
    assert readers == {"_star", "_split_section"}
    keys = [(caller, id(lat_), key) for caller, lat_, key in built]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("spec", ["segment", "polygon:5", "cube:3", "cross:3",
                                  "pyramid:polygon:5", "cube:4", "pyramid:cube:3",
                                  "prism:cross:3"])
def test_symmetric_sweeps_read_no_coordinates(spec):
    """The symmetric sweeps read only the order and the heights: a bare
    copy of the lattice (no coordinates, no facets) gives the same parts,
    and so does the dual under the polar's direction, against the polar
    hulled from its coordinates."""
    l = ps.hull_lattice(parse_input(spec))
    s = ps.choose_direction(None, l.coords)
    bare = ps.FaceLattice(l.dim, zip(l.masks, l.dims))
    polar = polar_lattice(l)
    sp = ps.choose_direction(None, polar.coords)
    for sweep in (cd_sweep_symmetric, ps.toric_sweep_symmetric):
        assert sweep(bare, s) == sweep(l, s)
        assert sweep(ps.dual(l), sp) == sweep(polar, sp)


def test_cut_rejects_a_zero_normal_and_points_that_do_not_span():
    with pytest.raises(ValueError):
        sweep_mod._cut((F(0), F(0)))
    on_a_line = [(F(0), F(0), F(1)), (F(1), F(1), F(1)), (F(2), F(2), F(1))]
    with pytest.raises(CrossCheckError, match="do not span dimension 2"):
        sweep_mod._project(on_a_line, [0, 1], 2)


def test_vertex_figure_checks_the_induced_heights(monkeypatch):
    l = ps.hull_lattice(parse_input("cross:3"))
    s = ps.choose_direction(None, l.coords)
    real = sweep_mod._restrict

    def skewed(p, normal, cols, k):
        # skew the figure's functional only, not the inherited facets
        q = real(p, normal, cols, k)
        return (q[0] + 1,) + q[1:] if p == s.p else q

    monkeypatch.setattr(sweep_mod, "_restrict", skewed)
    with pytest.raises(CrossCheckError, match="induced heights at vertex 0"):
        vertex_figure(l, s, 0)


def sweep_counting_builds(monkeypatch, spec, deep):
    """cd_sweep on a fresh lattice (empty memo), counting the vertex
    figures built: support_normal runs once per memo miss, as the first
    functional of each ladder separates the slopes here."""
    l = ps.hull_lattice(parse_input(spec))
    s = ps.choose_direction(None, l.coords)
    builds = []
    real = sweep_mod.support_normal

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(sweep_mod, "support_normal", counted)
    per, total = cd_sweep(l, s, deep=deep)
    return l, per, total, len(builds)


def test_sweep_builds_only_the_figures_it_reads(monkeypatch):
    # the sweep reads every figure's upper parts off the order and cuts
    # none, in any dimension
    for spec, builds in (("cube:4", 0), ("simplex:5", 0), ("cross:5", 0)):
        l, per, total, n = sweep_counting_builds(monkeypatch, spec, False)
        assert n == builds
        assert sorted(per) == list(range(l.n_vertices))
        assert total == cd_index(l)
        _, per_deep, _, _ = sweep_counting_builds(monkeypatch, spec, True)
        assert per == per_deep


def test_deep_sweep_still_builds_every_figure(monkeypatch):
    # every figure down to the segments; a segment's figure is a point,
    # read off the order with no support normal
    l, per, total, builds = sweep_counting_builds(monkeypatch, "cube:4", True)
    assert builds == 184
    assert sorted(per) == list(range(l.n_vertices))
    assert total == cd_index(l)


def hull_of_vertices(d, pts):
    """The hull lattice of the points with every non-vertex dropped;
    NotFullDimensional when what is left does not span dimension d."""
    pts = list(pts)
    while True:
        try:
            return ps.hull_lattice(ps.VRep(d, tuple(pts)))
        except ps.NonVertexPoint as e:
            del pts[e.index]


@st.composite
def swept_polytopes(draw):
    """(lattice, direction): the hull of a few random integer points in
    dimension 1-5, or its polar, which has Fraction coordinates, under a
    random direction generic on it."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(d + 1, d + (2 if d == 5 else 3)))
    coords = st.tuples(*[st.integers(-4, 4)] * d)
    pts = draw(st.lists(coords, min_size=n, max_size=n, unique=True))
    try:
        l = hull_of_vertices(d, pts)
    except ps.NotFullDimensional:
        assume(False)
    if draw(st.booleans()):
        l = polar_lattice(l)
    p = draw(st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d))
    try:
        return l, ps.choose_direction(tuple(p), l.coords)
    except NotGeneric:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(swept_polytopes())
def test_closed_form_parts_equal_the_cut_figures_parts(case):
    """The default sweep reads each figure's upper parts off the order
    (``_upper_sum``), the deep sweep cuts and sweeps the figure: the
    per-vertex parts agree, under s and -s, for the cd and toric sweeps."""
    l, s = case
    reverse = ps.choose_direction(tuple(-x for x in s.p), l.coords)
    for direction in (s, reverse):
        for sweep in (cd_sweep, ps.toric_sweep):
            assert sweep(l, direction) == sweep(l, direction, deep=True)


def min_vertex_blocks(l, s) -> dict:
    """Oracle for ``min_vertex_partition``: every nonempty face filed
    under the vertex of least height among its vertices."""
    blocks = {vi: [] for vi in range(l.n_vertices)}
    for i in range(len(l.masks)):
        if l.dims[i] >= 0:
            blocks[min(l.vertices_of(i), key=s.heights.__getitem__)].append(i)
    return blocks


@settings(max_examples=60, deadline=None)
@given(swept_polytopes())
def test_the_split_at_each_vertex_is_read_off_the_heights(case):
    """Under s and -s, a face at v of dimension >= 1 is in ``_up_down``'s
    rising mask exactly when v is its lowest vertex, in its crossing mask
    exactly when v lies strictly between its lowest and highest vertex,
    and in neither when v is its highest; and on a simple polytope
    ``min_vertex_partition`` files every face under its lowest vertex."""
    l, s = case
    reverse = ps.choose_direction(tuple(-x for x in s.p), l.coords)
    for direction in (s, reverse):
        for vi in range(l.n_vertices):
            sides = {"rising": 0, "crossing": 0, "falling": 0}
            for fi in bits(faces_at(l, vi)):
                sides[height_side(l, direction, vi, fi)] |= 1 << fi
            rising, crossing = sweep_mod._up_down(l, direction, vi)[3:]
            assert (rising, crossing) == (sides["rising"], sides["crossing"])
        if l.is_simple():
            assert min_vertex_partition(l, direction) == min_vertex_blocks(l, direction)
        else:
            with pytest.raises(NotSimple):
                min_vertex_partition(l, direction)


@pytest.mark.parametrize("spec", ["simplex:6", "pyramid:simplex:5"])
def test_upper_parts_equal_the_cut_figures_parts_in_dimension_6(spec):
    """Past the random polytopes above, which stop at dimension 5: the
    default and the deep sweep agree vertex by vertex on 6-polytopes,
    for the cd and toric sweeps, under the ladder and its reverse."""
    l = ps.hull_lattice(parse_input(spec))
    s = ps.choose_direction(None, l.coords)
    reverse = ps.choose_direction(tuple(-x for x in s.p), l.coords)
    for direction in (s, reverse):
        for sweep in (cd_sweep, ps.toric_sweep):
            assert sweep(l, direction) == sweep(l, direction, deep=True)


@pytest.mark.parametrize("deep", [False, True])
def test_verify_passes_deep_to_every_recursive_sweep(monkeypatch, deep):
    # the two cd sweeps, the toric sweep and the polar's toric sweep
    got, depth = [], [0]

    def spy(fn):
        # counts the top-level calls only: the deep recursion and the
        # toric sweeps call sweep.cd_sweep themselves
        def wrapper(lat_, s, deep=False):
            if not depth[0]:
                got.append((fn.__name__, deep))
            depth[0] += 1
            try:
                return fn(lat_, s, deep)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(sweep_mod, "cd_sweep", spy(sweep_mod.cd_sweep))
    monkeypatch.setattr(toric_mod, "toric_sweep", spy(toric_mod.toric_sweep))
    checks = run_verification(lat("cube:3"), None, 4, deep)
    assert all(passed for _, passed in checks)
    assert sorted(got) == [("cd_sweep", deep)] * 2 + [("toric_sweep", deep)] * 2


@pytest.mark.parametrize("sweep", [cd_sweep, ps.toric_sweep], ids=["cd", "toric"])
@pytest.mark.parametrize("dim", [3, 1])
def test_deep_sweep_checks_its_total_and_every_section(monkeypatch, sweep, dim):
    """A deep sweep raises when its total is not the direct value, and as
    a section's value is its own deep sweep, when a section's is not:
    dimension 3 is cube:3 itself, dimension 1 its sections."""
    l, s = lat("cube:3"), default_direction("cube:3")
    assert sweep(l, s, deep=True) == sweep(l, s)
    wrong_on_dimension(monkeypatch, dim)
    sweep(l, s)  # the default sweep checks nothing
    with pytest.raises(CrossCheckError, match="^deep sweep total "):
        sweep(l, s, deep=True)


def test_toric_sweep_reports_every_vertex():
    l = ps.hull_lattice(parse_input("cross:4"))
    s = ps.choose_direction(None, l.coords)
    per, _ = ps.toric_sweep(l, s)
    assert sorted(per) == list(range(l.n_vertices))


def count_fractions(monkeypatch) -> list:
    """A list that grows by one for every Fraction built from now on."""
    built = []
    real_new = F.__new__

    def new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", new)
    if hasattr(F, "_from_coprime_ints"):  # arithmetic results bypass __new__
        real_coprime = F._from_coprime_ints

        def coprime(cls, *args):
            built.append(args)
            return real_coprime(*args)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(coprime))
    return built


@pytest.mark.parametrize("spec", ["cube:3", "cross:4", "cube:4", "pyramid:polygon:5",
                                  "prism:cross:3", "simplex:4",
                                  "product:simplex:2:simplex:2"])
def test_no_fraction_is_built_below_an_integer_input(monkeypatch, spec):
    """Figures and sections are cut in integers: on integer coordinates
    under the ladder, the sweeps and the partition build no Fraction."""
    l = ps.hull_lattice(parse_input(spec))
    s = ps.choose_direction(None, l.coords)
    built = count_fractions(monkeypatch)
    cd_sweep(l, s)
    cd_sweep(l, s, deep=True)
    ps.toric_sweep(l, s)
    partition_mod.checked_partition(l, s)
    assert built == []


def test_s_and_minus_s_share_each_section_lattice():
    l = ps.hull_lattice(parse_input("pyramid:cube:3"))
    s = ps.choose_direction(None, l.coords)
    reverse = ps.choose_direction(tuple(-x for x in s.p), l.coords)
    shared = 0
    for vi in range(l.n_vertices):
        r = read_section(l, s, vi)
        assert r is read_section(l, reverse, vi)
        shared += r is not None
    assert shared
