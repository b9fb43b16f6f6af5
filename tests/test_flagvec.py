import itertools
import random

import pytest

import polysweep as ps
from conftest import lat
from polysweep.errors import NotCDExpressible
from polysweep.truncpartition import enumerate_chains
from polysweep.flagvec import (
    CDPolynomial,
    FlagVector,
    ab_from_cd,
    ab_index,
    cd_from_ab,
    cd_index,
    cd_words,
    count_cd_words,
    flag_f,
    flag_h,
    reverse_words,
)

CD = CDPolynomial


def ranks(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def inclusion_exclusion(f):
    """Oracle for flag_h: h_S = sum over T <= S of (-1)^(|S|-|T|) f_T,
    summed over frozensets of ranks."""
    subsets = [ranks(m) for m in range(1 << f.d)]
    return tuple(
        sum((-1) ** len(S - T) * f.values[n] for n, T in enumerate(subsets) if T <= S)
        for S in subsets
    )


def brute_force_chain_count(l, S):
    """Oracle: enumerate every chain with dimension set S directly."""
    if not S:
        return 1
    levels = sorted(S)
    pools = [l.by_dim.get(k, ()) for k in levels]
    count = 0
    for combo in itertools.product(*pools):
        if all(l.contains(combo[i], combo[i + 1]) for i in range(len(combo) - 1)):
            count += 1
    return count


@pytest.mark.parametrize(
    "spec",
    ["simplex:0", "cube:1", "polygon:5", "cube:3", "cross:3", "pyramid:polygon:4",
     "cube:4", "cross:4", "prism:cross:3", "product:simplex:2:simplex:2",
     "simplex:5", "cross:5"],
)
def test_flag_f_counts_the_chains(spec):
    """Oracle: group every chain of proper faces by its dimension set."""
    l = lat(spec)
    counts = [0] * (1 << l.dim)
    for ch in enumerate_chains(l):
        counts[sum(1 << l.dims[i] for i in ch)] += 1
    assert flag_f(l).values == tuple(counts)


def test_flag_f_pentagon():
    f = flag_f(lat("polygon:5"))
    for m in range(4):
        assert f.values[m] == brute_force_chain_count(lat("polygon:5"), ranks(m))
    assert f[()] == 1
    assert f[{0}] == 5
    assert f[{1}] == 5
    assert f[{0, 1}] == 10


def test_flag_f_cube():
    # 8 vertices x 3 edges at each x 2 facets per (vertex, edge)
    assert flag_f(lat("cube:3"))[{0, 1, 2}] == 48


def test_flag_f_point():
    assert flag_f(lat("simplex:0"))[()] == 1


def test_flag_h_pentagon():
    f = flag_f(lat("polygon:5"))
    h = flag_h(f)
    # inclusion-exclusion oracle, done by hand on the four subsets
    assert h[()] == 1
    assert h[{0}] == f[{0}] - f[()] == 4
    assert h[{1}] == f[{1}] - f[()] == 4
    assert h[{0, 1}] == f[{0, 1}] - f[{0}] - f[{1}] + f[()] == 1


def test_flag_h_matches_inclusion_exclusion():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(0, 6)
        f = FlagVector(d, tuple(rng.randint(-9, 9) for _ in range(1 << d)))
        assert flag_h(f).values == inclusion_exclusion(f)
    for spec in ("polygon:5", "cube:3", "cross:4", "simplex:5"):
        f = flag_f(lat(spec))
        assert flag_h(f).values == inclusion_exclusion(f)


def test_flag_h_empty_subset_is_one():
    for spec in ("cube:3", "polygon:7", "simplex:4"):
        assert flag_h(flag_f(lat(spec)))[()] == 1


def test_flag_h_cube_vertices():
    assert flag_h(flag_f(lat("cube:3")))[{0}] == 8 - 1


def test_ab_index():
    pent = ab_index(flag_h(flag_f(lat("polygon:5"))))
    assert list(pent.items()) == [("aa", 1), ("ab", 4), ("ba", 4), ("bb", 1)]
    assert ab_index(flag_h(flag_f(lat("simplex:0")))) == {"": 1}
    assert ab_index(flag_h(flag_f(lat("cube:1")))) == {"a": 1, "b": 1}
    # b at position i is bit i of the mask; zero coefficients are left out
    assert ab_index(FlagVector(3, (0, 0, 0, 5, 0, 0, 7, 0))) == {"abb": 7, "bba": 5}


def test_cd_from_ab_known_indices():
    assert cd_index(lat("polygon:5")) == CD({"cc": 1, "d": 3})
    assert cd_index(lat("cross:3")) == CD({"ccc": 1, "cd": 6, "dc": 4})
    assert cd_index(lat("pyramid:polygon:4")) == CD({"ccc": 1, "cd": 3, "dc": 3})


def test_cube_cd_by_duality_reversal():
    assert cd_index(lat("cube:3")) == reverse_words(cd_index(lat("cross:3")))
    assert cd_index(lat("cube:3")) == CD({"ccc": 1, "dc": 6, "cd": 4})


def test_ab_from_cd():
    assert ab_from_cd(CD({"cc": 1})) == FlagVector(2, (1, 1, 1, 1))
    assert ab_from_cd(CD({"d": 1})) == FlagVector(2, (0, 1, 1, 0))
    assert ab_from_cd(CD({"cc": 1, "d": 3})) == flag_h(flag_f(lat("polygon:5")))
    assert ab_index(ab_from_cd(CD({"cd": 2}))) == {"aab": 2, "aba": 2, "bab": 2, "bba": 2}
    assert ab_from_cd(CD.one()) == FlagVector(0, (1,))
    with pytest.raises(ValueError, match="not homogeneous"):
        ab_from_cd(CD({"cc": 1, "c": 1}))


def test_reverse_words():
    assert reverse_words(CD({"ccc": 1, "cd": 6, "dc": 4})) == CD(
        {"ccc": 1, "dc": 6, "cd": 4}
    )
    assert reverse_words(CD({"cc": 5})) == CD({"cc": 5})
    phi = CD({"ccd": 2, "dcc": 7, "cdc": 1})
    assert reverse_words(reverse_words(phi)) == phi


def test_count_cd_words():
    assert count_cd_words(2) == 2 and set(cd_words(2)) == {"cc", "d"}
    assert count_cd_words(3) == 3 and set(cd_words(3)) == {"ccc", "cd", "dc"}
    assert count_cd_words(5) == 8 == len(cd_words(5))
    for d in range(9):
        assert count_cd_words(d) == len(cd_words(d))


def test_cd_roundtrip_random():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(0, 6)
        terms = {w: rng.randint(0, 5) for w in cd_words(d)}
        phi = CD(terms)
        if phi.is_zero():
            continue
        assert cd_from_ab(ab_from_cd(phi)) == phi


def test_word_poly_rejects_foreign_letters_and_operands():
    # explicit raises, so the checks also hold under python -O
    with pytest.raises(ValueError, match="not over 'cd'"):
        CD({"ab": 1})


def test_cd_from_ab_rejects_non_eulerian():
    # ab alone reads as d and leaves -ba; then aa + 2ab + ba + bb
    with pytest.raises(NotCDExpressible, match=r"\{'ba': -1\}"):
        cd_from_ab(FlagVector(2, (0, 0, 1, 0)))
    with pytest.raises(NotCDExpressible):
        cd_from_ab(FlagVector(2, (1, 1, 2, 1)))
    assert cd_from_ab(FlagVector(3, (0,) * 8)) == CD.zero()


def test_flag_h_symmetry_on_corpus():
    for spec in ("cube:3", "cross:3", "polygon:6", "pyramid:polygon:4", "simplex:4"):
        h = flag_h(flag_f(lat(spec)))
        full = (1 << h.d) - 1
        for m in range(full + 1):
            assert h.values[m] == h.values[full ^ m]


def test_cd_leading_coefficient_and_nonnegativity():
    for spec in ("cube:3", "cross:4", "polygon:8", "prism:polygon:3", "simplex:5"):
        phi = cd_index(lat(spec))
        assert phi.coefficient("c" * lat(spec).dim) == 1
        assert phi.is_nonnegative()


def test_dual_reverses_cd_index():
    for spec in ("cube:3", "pyramid:polygon:4", "prism:polygon:3", "simplex:3"):
        l = lat(spec)
        assert cd_index(ps.dual(l)) == reverse_words(cd_index(l))
