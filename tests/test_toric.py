import random
from fractions import Fraction as F

import pytest

from conftest import default_direction, lat
from polysweep.errors import NotInImage
from polysweep.flagvec import CDPolynomial, cd_index, reverse_words
from polysweep.sweep import choose_direction, simple_h_by_outdegree
from polysweep.toric import (
    act_word,
    d_prefixed_words,
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

CD = CDPolynomial


# --- polynomial-form oracles for the operators ---------------------------


def op_c_poly_oracle(h):
    """(x-1)h(x) + 2g(x), coefficients ascending, padded to len(h)+1."""
    d = len(h) - 1
    g = g_from_h(h)
    out = [0] * (d + 2)
    for i, x in enumerate(h):
        out[i + 1] += x
        out[i] -= x
    for i, x in enumerate(g):
        out[i] += 2 * x
    return tuple(out)


def op_d_poly_oracle(h):
    """(x-1)g(x) + U_{<=m}[(1-x)g(x)] with m = floor((d+1)/2)."""
    d = len(h) - 1
    m = (d + 1) // 2
    g = g_from_h(h)
    xm1g = [0] * (len(g) + 1)
    for i, x in enumerate(g):
        xm1g[i + 1] += x
        xm1g[i] -= x
    out = [0] * (d + 3)
    for i, x in enumerate(xm1g):
        out[i] += x
        if i <= m:
            out[i] -= x  # U_{<=m}[(1-x)g] = -truncation of (x-1)g
    return tuple(out)


def rand_symmetric(rng, n):
    half = [rng.randint(-9, 9) for _ in range((n + 1) // 2)]
    full = half + half[::-1][n % 2 :]
    return tuple(full[:n])


def test_g_from_h():
    assert g_from_h((1, 3, 3, 1)) == (1, 2)
    assert g_from_h((1,)) == (1,)
    assert g_from_h((1, 3, 1)) == (1, 2)


def test_op_c_values():
    assert op_c((1, 2, 1)) == (1, 1, 1, 1)
    assert op_c((0, 2, 0)) == (0, 2, 2, 0)
    assert op_c((1, 0, 1)) == (1, -1, -1, 1)


def test_op_d_values():
    assert op_d((1,)) == (0, 1, 0)
    assert op_d((1, 1)) == (0, 0, 0, 0)
    # oracle: g = (1, 1), middle entry g_1 -> (0, 0, 1, 0, 0)
    assert op_d_poly_oracle((1, 2, 1)) == (0, 0, 1, 0, 0)
    assert op_d((1, 2, 1)) == (0, 0, 1, 0, 0)


def test_act_word():
    assert act_word((1,), "c") == (1, 1)
    assert act_word((1,), "dc") == (0, 1, 1, 0)
    assert act_word((1,), "cd") == (0, 0, 0, 0)


def test_operator_polynomial_forms():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        h = rand_symmetric(rng, n)
        assert op_c(h) == op_c_poly_oracle(h)
        assert op_d(h) == op_d_poly_oracle(h)
        # the d operator matches its polynomial form on any vector
        hr = tuple(rng.randint(-9, 9) for _ in range(n))
        assert op_d(hr) == op_d_poly_oracle(hr)


def test_invert_c_inverts():
    assert invert_c((1, 0, 1)) == (1, 1)
    assert invert_c((1, 1, 1, 1)) == (1, 2, 1)
    assert invert_c((1, 1)) == (1,)
    rng = random.Random(13)
    for _ in range(200):
        h = rand_symmetric(rng, rng.randint(1, 9))
        assert invert_c(op_c(h)) == h


def test_invert_c_rejects():
    with pytest.raises(NotInImage):
        invert_c((1, 2, 3))  # not mirror-symmetric
    with pytest.raises(NotInImage):
        invert_c((1, 1, 1))  # odd degree needs middle zero


def test_toric_from_cd_polygon_family():
    for n in range(3, 9):
        phi = CD({"cc": 1, "d": n - 2})
        assert toric_from_cd(phi) == (1, n - 2, 1)


def test_toric_from_cd_cube_octahedron():
    assert toric_from_cd(CD({"ccc": 1, "dc": 6, "cd": 4})) == (1, 5, 5, 1)
    assert toric_from_cd(CD({"ccc": 1, "cd": 6, "dc": 4})) == (1, 3, 3, 1)


def test_toric_from_cd_rejects_wrong_degree():
    with pytest.raises(ValueError):
        toric_from_cd(CD({"cc": 1, "d": 3}), degree=3)


def test_toric_definition_route():
    assert toric_h_definition(lat("polygon:5")) == (1, 3, 1)
    assert toric_h_definition(lat("cross:3")) == (1, 3, 3, 1)
    assert toric_h_definition(lat("cube:3")) == (1, 5, 5, 1)
    assert toric_h_definition(lat("cube:1")) == (1, 1)
    assert toric_h_definition(lat("simplex:0")) == (1,)


def toric_h_per_pair(l):
    """Oracle: the definition with one (x-1)^m product per pair G < F."""
    from math import comb

    g_cache = {0: [1]}
    h = None
    for fi in range(1, len(l.masks)):
        k = l.dims[fi]
        coeffs = [0] * (k + 1)
        for gj in range(fi):
            if l.masks[gj] & ~l.masks[fi]:
                continue
            m = k - 1 - l.dims[gj]
            for i, x in enumerate(g_cache[gj]):
                for j in range(m + 1):
                    coeffs[i + j] += x * (-1) ** (m - j) * comb(m, j)
        h = tuple(coeffs[k - i] for i in range(k + 1))
        g_cache[fi] = list(g_from_h(h))
    return h


@pytest.mark.parametrize("spec", ["cross:5", "cube:4", "prism:cross:3"])
def test_toric_definition_sums_by_dimension_like_per_pair(spec):
    l = lat(spec)
    assert toric_h_definition(l) == toric_h_per_pair(l)


def test_square_pyramid_two_routes_agree():
    l = lat("pyramid:polygon:4")
    by_def = toric_h_definition(l)
    by_cd = toric_from_cd(cd_index(l))
    assert by_def == by_cd == (1, 2, 2, 1)


def test_toric_sweep_octahedron_contributions():
    octa = lat("cross:3")
    s = choose_direction((1, 2, 4), octa.coords)
    per, total = toric_sweep(octa, s)
    order = sorted(range(6), key=lambda i: s.heights[i])
    assert [per[i] for i in order] == [
        (1, 1, 1, 1), (0, 2, 2, 0), (0, 1, 1, 0), (0, 1, 1, 0),
        (0, 0, 0, 0), (0, 0, 0, 0),
    ]
    assert total == (1, 5, 5, 1)  # the cube, octahedron's dual


def test_toric_sweep_polygon():
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    per, total = toric_sweep(pent, s)
    order = sorted(range(5), key=lambda i: s.heights[i])
    assert per[order[0]] == (1, 0, 1)
    for vi in order[1:4]:
        assert per[vi] == (0, 1, 0)
    assert per[order[4]] == (0, 0, 0)
    assert total == (1, 3, 1)


def test_toric_sweep_segment():
    seg, s = lat("cube:1"), default_direction("cube:1")
    assert toric_sweep(seg, s)[1] == (1, 1)


def test_toric_symmetric_octahedron_contributions():
    octa = lat("cross:3")
    s = choose_direction((1, 2, 4), octa.coords)
    per, total = toric_sweep_symmetric(octa, s)
    order = sorted(range(6), key=lambda i: s.heights[i])
    half = (F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert per[order[0]] == per[order[5]] == half
    for vi in order[1:5]:
        assert per[vi] == (0, 1, 1, 0)
    assert total == (1, 5, 5, 1)


def test_toric_sweep_equals_reversed_cd():
    for spec in ("cube:3", "cross:3", "pyramid:polygon:4", "simplex:4",
                 "prism:polygon:3"):
        l, s = lat(spec), default_direction(spec)
        _, total = toric_sweep(l, s)
        _, total_sym = toric_sweep_symmetric(l, s)
        expect = toric_from_cd(reverse_words(cd_index(l)), degree=l.dim)
        assert total == expect == total_sym


def test_extended_toric_octahedron():
    ext = extended_toric(cd_index(lat("cross:3")))
    assert ext == {"": (1, 3, 3, 1), "d": (6, 6), "dc": (4,)}


def test_extended_toric_intermediate_vector():
    # the part of the octahedron's cd-index ending in c, suffix removed,
    # is c^2 + 4d; acting on (1) gives (1, 4, 1)
    phi = cd_index(lat("cross:3"))
    parts = {u[:-1]: c for u, c in phi.terms.items() if u.endswith("c")}
    assert parts == {"cc": 1, "d": 4}
    assert toric_from_cd(CD(parts)) == (1, 4, 1)


def test_extended_toric_simplex_word_one():
    # oracle: the definition recursion; for simplices this is all ones
    for d in range(1, 6):
        ext = extended_toric(cd_index(lat(f"simplex:{d}")))
        assert ext[""] == toric_h_definition(lat(f"simplex:{d}")) == (1,) * (d + 1)


def test_d_prefixed_words():
    assert d_prefixed_words(3) == ["", "d", "dc"]
    assert set(d_prefixed_words(4)) == {"", "d", "dc", "dcc", "dd"}


def test_reconstruct_roundtrip():
    for spec in ("cross:3", "polygon:5", "pyramid:polygon:4", "cube:4",
                 "simplex:5", "prism:polygon:5"):
        l = lat(spec)
        phi = cd_index(l)
        assert reconstruct_cd(extended_toric(phi), l.dim) == phi


def test_reconstruct_accepts_word_one_key():
    ext = {"1": (1, 3, 1), "d": (3,)}
    assert reconstruct_cd(ext, 2) == CD({"cc": 1, "d": 3})


def test_extended_entries_symmetric_nonnegative_unimodal():
    for spec in ("cube:3", "cross:4", "pyramid:polygon:5", "prism:polygon:3"):
        for v in extended_toric(cd_index(lat(spec))).values():
            assert is_symmetric(v)
            assert all(x >= 0 for x in v)
            assert is_unimodal(v)


def test_crosspolytope_matches_simplicial_h():
    # a cross-polytope is simplicial: its toric h equals the simplicial
    # h-vector, i.e. the outdegree h-vector of its simple dual, the cube
    for d in range(2, 5):
        cross = lat(f"cross:{d}")
        cube = lat(f"cube:{d}")
        hv = simple_h_by_outdegree(cube, default_direction(f"cube:{d}"))
        assert toric_h_definition(cross) == hv


def test_final_toric_vectors_symmetric_unimodal():
    for spec in ("cube:4", "cross:4", "simplex:5", "prism:polygon:6"):
        h = toric_h_definition(lat(spec))
        assert h[0] == 1 and is_symmetric(h) and is_unimodal(h)
