"""Acceptance suite: exact reproduction of the worked examples plus the
property corpus.  Each test prints one pass line with its runtime and
enforces the stated budget.  All comparisons are exact (integers and
rationals); there are no tolerances to tune.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import polysweep as ps
from conftest import default_direction, lat
from polysweep.flagvec import CDPolynomial, cd_index, reverse_words
from polysweep.sweep import (
    cd_sweep,
    cd_sweep_symmetric,
    choose_direction,
    min_vertex_partition,
    simple_h_by_outdegree,
)
from polysweep.toric import (
    extended_toric,
    g_from_h,
    invert_c,
    is_symmetric,
    is_unimodal,
    op_c,
    op_d,
    reconstruct_cd,
    toric_from_cd,
    toric_h_definition,
    toric_sweep,
    toric_sweep_symmetric,
)
from polysweep.truncpartition import build_partition, enumerate_chains, verify_partition

CD = CDPolynomial

CORPUS = (
    "simplex:1", "simplex:2", "simplex:3", "simplex:4", "simplex:5",
    "cube:2", "cube:3", "cube:4",
    "cross:2", "cross:3", "cross:4",
    "pyramid:polygon:4", "pyramid:polygon:5",
    "prism:polygon:3", "prism:polygon:5",
    "product:simplex:2:simplex:2",
    "pyramid:cube:3", "prism:cross:3",
)

CORPUS_3D = ("simplex:3", "cube:3", "cross:3", "pyramid:polygon:4",
             "prism:polygon:3")


@contextmanager
def budget(n, limit, label):
    t0 = time.monotonic()
    yield
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {n} PASS ({dt:.2f}s <= {limit}s): {label}")
    assert dt < limit, f"criterion {n} exceeded its {limit}s budget: {dt:.2f}s"


def order_of(s):
    return sorted(range(len(s.heights)), key=lambda i: s.heights[i])


def four_toric_routes(spec):
    l = lat(spec)
    by_def = toric_h_definition(l)
    by_cd = toric_from_cd(cd_index(l), degree=l.dim)
    polar = ps.hull_lattice(ps.polar_dual(l))
    s = choose_direction(None, polar.coords)
    _, by_sweep = toric_sweep(polar, s)
    _, by_sym = toric_sweep_symmetric(polar, s)
    return by_def, by_cd, by_sweep, by_sym


def test_criterion_1_polygon_cd_closed_form():
    with budget(1, 1.0, "cd-index of n-gons, three routes, n = 3..8"):
        for n in range(3, 9):
            l = lat(f"polygon:{n}")
            want = CD({"cc": 1, "d": n - 2})
            s = default_direction(f"polygon:{n}")
            assert cd_index(l) == want
            assert cd_sweep(l, s)[1] == want
            assert cd_sweep_symmetric(l, s)[1] == want


def test_criterion_2_three_polytope_vertex_lists():
    with budget(2, 5.0, "octahedron, cube, pyramid per-vertex sweep lists"):
        octa = lat("cross:3")
        phi_octa = CD({"ccc": 1, "cd": 6, "dc": 4})
        phi_cube = CD({"ccc": 1, "dc": 6, "cd": 4})
        phi_pyr = CD({"ccc": 1, "cd": 3, "dc": 3})
        assert cd_index(octa) == phi_octa
        assert cd_index(lat("cube:3")) == phi_cube
        assert reverse_words(phi_octa) == phi_cube
        assert cd_index(lat("pyramid:polygon:4")) == phi_pyr

        s = choose_direction((1, 2, 4), octa.coords)
        o = order_of(s)
        per, total = cd_sweep(octa, s)
        assert total == phi_octa
        assert [per[i] for i in o] == [
            CD({"ccc": 1, "cd": 2}), CD({"cd": 2, "dc": 1}),
            CD({"cd": 1, "dc": 1}), CD({"cd": 1, "dc": 1}),
            CD({"dc": 1}), CD({}),
        ]
        per, total = cd_sweep_symmetric(octa, s)
        assert total == phi_octa
        ends = CD({"ccc": F(1, 2), "cd": 1})
        mids = CD({"cd": 1, "dc": 1})
        assert [per[i] for i in o] == [ends, mids, mids, mids, mids, ends]

        pyr = lat("pyramid:polygon:4")
        sp = choose_direction((1, 0, F(1, 4)), pyr.coords)
        o = order_of(sp)
        per, total = cd_sweep(pyr, sp)
        assert total == phi_pyr
        assert [per[i] for i in o] == [
            CD({"ccc": 1, "cd": 1}), CD({"cd": 1, "dc": 1}),
            CD({"cd": 1, "dc": 1}), CD({"dc": 1}), CD({}),
        ]
        per, total = cd_sweep_symmetric(pyr, sp)
        assert total == phi_pyr
        assert [per[i] for i in o] == [
            CD({"ccc": F(1, 2), "cd": F(1, 2)}),
            CD({"cd": F(1, 2), "dc": 1}),
            CD({"cd": 1, "dc": 1}),
            CD({"cd": F(1, 2), "dc": 1}),
            CD({"ccc": F(1, 2), "cd": F(1, 2)}),
        ]

        # sweeping the cube reproduces the cube lists under reversal
        sc = choose_direction(None, lat("cube:3").coords)
        assert cd_sweep(lat("cube:3"), sc)[1] == phi_cube
        assert cd_sweep_symmetric(lat("cube:3"), sc)[1] == phi_cube


def test_criterion_3_toric_four_routes():
    with budget(3, 5.0, "toric h-vectors by all four routes"):
        for n in range(3, 9):
            routes = four_toric_routes(f"polygon:{n}")
            assert all(r == (1, n - 2, 1) for r in routes)
        assert all(r == (1, 3, 3, 1) for r in four_toric_routes("cross:3"))
        assert all(r == (1, 5, 5, 1) for r in four_toric_routes("cube:3"))
        routes = four_toric_routes("pyramid:polygon:4")
        assert len(set(routes)) == 1
        assert routes[0] == (1, 2, 2, 1)


def test_criterion_4_extended_toric():
    with budget(4, 2.0, "extended toric vectors and reconstruction"):
        ext = extended_toric(cd_index(lat("cross:3")))
        assert ext == {"": (1, 3, 3, 1), "d": (6, 6), "dc": (4,)}
        for spec in CORPUS:
            l = lat(spec)
            phi = cd_index(l)
            assert reconstruct_cd(extended_toric(phi, degree=l.dim), l.dim) == phi


def test_criterion_5_partition_suite():
    with budget(5, 60.0, "truncation partitions on the 3-polytope corpus"):
        pent, s = lat("polygon:5"), default_direction("polygon:5")
        blocks = build_partition(pent, s)
        o = order_of(s)
        assert sorted((o.index(b.owner), b.word, len(b.faces)) for b in blocks) == [
            (0, "cc", 9), (1, "d", 4), (2, "d", 4), (3, "d", 4)
        ]

        pyr = lat("pyramid:polygon:4")
        sp = choose_direction((1, 0, F(1, 4)), pyr.coords)
        blocks = build_partition(pyr, sp)
        words = sorted(b.word for b in blocks)
        assert words == ["ccc", "cd", "cd", "cd", "dc", "dc", "dc"]
        assert sorted(len(b.faces) for b in blocks) == [12] * 6 + [27]

        for spec in CORPUS_3D:
            l = lat(spec)
            directions = [
                default_direction(spec),
                choose_direction((3, 9, 27), l.coords),
                choose_direction((1, F(1, 3), 5), l.coords),
            ]
            assert len({d.heights for d in directions}) == 3
            for s in directions:
                blocks = build_partition(l, s)
                report = verify_partition(blocks, enumerate_chains(l), l)
                assert report.ok, (spec, report.failures)


def test_criterion_6_property_corpus():
    with budget(6, 300.0, f"property corpus of {len(CORPUS)} polytopes"):
        assert len(CORPUS) >= 15
        for spec in CORPUS:
            l = lat(spec)
            d = l.dim
            h = ps.flag_h(ps.flag_f(l))
            full = (1 << d) - 1
            assert all(h.values[m] == h.values[full ^ m] for m in range(full + 1))

            phi = cd_index(l)
            assert phi.is_nonnegative()
            assert phi.coefficient("c" * d) == 1

            s1 = default_direction(spec)
            per, by_sweep = cd_sweep(l, s1)
            _, by_sym = cd_sweep_symmetric(l, s1)
            assert by_sweep == phi == by_sym

            ht = toric_h_definition(l)
            assert ht == toric_from_cd(phi, degree=d)
            assert ht[0] == 1 and is_symmetric(ht) and is_unimodal(ht)

            # direction independence: the reversed sweep is always
            # generic and always different
            s2 = choose_direction(tuple(-x for x in s1.p), l.coords)
            assert s2.heights != s1.heights
            assert cd_sweep(l, s2)[1] == phi
            _, t1 = toric_sweep(l, s1)
            _, t2 = toric_sweep(l, s2)
            assert t1 == t2 == toric_from_cd(reverse_words(phi), degree=d)


def test_criterion_7_operator_unit_laws():
    with budget(7, 1.0, "operator polynomial forms and inversion"):
        rng = random.Random(2024)

        def oracle_c(h):
            d = len(h) - 1
            g = g_from_h(h)
            out = [0] * (d + 2)
            for i, x in enumerate(h):
                out[i + 1] += x
                out[i] -= x
            for i, x in enumerate(g):
                out[i] += 2 * x
            return tuple(out)

        def oracle_d(h):
            d = len(h) - 1
            m = (d + 1) // 2
            g = g_from_h(h)
            prod = [0] * (len(g) + 1)
            for i, x in enumerate(g):
                prod[i + 1] += x
                prod[i] -= x
            out = [0] * (d + 3)
            for i, x in enumerate(prod):
                out[i] += x
                if i <= m:
                    out[i] -= x
            return tuple(out)

        def symmetric(n):
            half = [rng.randint(-9, 9) for _ in range((n + 1) // 2)]
            return tuple((half + half[::-1][n % 2 :])[:n])

        for _ in range(200):
            n = rng.randint(1, 9)
            h = symmetric(n)
            assert op_c(h) == oracle_c(h)
            assert op_d(h) == oracle_d(h)
            # the d operator matches its polynomial form off the
            # symmetric domain as well
            hr = tuple(rng.randint(-9, 9) for _ in range(n))
            assert op_d(hr) == oracle_d(hr)
        for _ in range(200):
            h = symmetric(rng.randint(1, 9))
            assert invert_c(op_c(h)) == h


def test_criterion_8_simple_baseline():
    with budget(8, 1.0, "outdegree h-vectors and minimal-vertex blocks"):
        simple_specs = ("cube:1", "cube:2", "cube:3", "cube:4", "polygon:5",
                        "prism:polygon:3", "prism:polygon:5")
        for spec in simple_specs:
            l, s = lat(spec), default_direction(spec)
            hv = simple_h_by_outdegree(l, s)
            # oracle: coefficients of f(P, x-1)
            fv = l.f_vector()
            want = [0] * (l.dim + 1)
            for i in range(l.dim + 1):
                term = [1]
                for _ in range(i):
                    term = [
                        (term[j - 1] if j else 0)
                        - (term[j] if j < len(term) else 0)
                        for j in range(len(term) + 1)
                    ]
                for j, c in enumerate(term):
                    want[j] += fv[i + 1] * c
            assert hv == tuple(want)

            blocks = min_vertex_partition(l, s)
            nonempty = sum(1 for k in l.dims if k >= 0)
            assert sum(len(b) for b in blocks.values()) == nonempty
            for vi, faces in blocks.items():
                out = sum(
                    1
                    for e in l.faces_at_vertex(vi, 1)
                    if max(s.heights[w] for w in l.vertices_of(e)) > s.heights[vi]
                )
                assert len(faces) == 2 ** out
