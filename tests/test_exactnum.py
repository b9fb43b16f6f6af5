from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import vec
from fraction_rref import (
    DegenerateSpan,
    canonical_integer_vector,
    hyperplane_through,
    null_space,
)
from fraction_rref import matrix_rank as fraction_rank
from polysweep.errors import InputError
from polysweep.exactnum import (
    MAX_NUMERAL_DIGITS,
    affine_rank,
    dot,
    exact,
    integer_multiple,
    matrix_rank,
    primitive,
    primitive_kernel,
    vsub,
)


def test_exact_is_an_int_where_integral():
    for x, want in ((3, 3), (F(6, 2), 3), ("-4/2", -2), ("2e1", 20), (" 7 ", 7),
                    (F(1, 2), F(1, 2)), ("0.25", F(1, 4)), ("3/6", F(1, 2))):
        assert exact(x) == want and type(exact(x)) is type(want), x
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(ValueError):
        exact("x")


def test_exact_refuses_huge_numerals_before_parsing():
    n = MAX_NUMERAL_DIGITS
    assert exact("9" * n) == 10**n - 1
    assert exact(f"1e{n}") == 10**n and exact(f"1e-{n}") == F(1, 10**n)
    for text in ("9" * (n + 1), f"1e{n + 1}", f"1E-{n + 1}", f"1e+{n + 1}",
                 "1e200000000", "1e" + "9" * 5000, f"1/{'3' * n}"):
        with pytest.raises(InputError, match=f"at most {n} digits"):
            exact(text)


def test_dot():
    assert dot(vec(1, 2), vec(3, 4)) == 11
    assert dot(vec(0, 0), vec(5, 7)) == 0
    assert dot(vec(F(1, 2), F(1, 3)), vec(2, 3)) == 2


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot(vec(1), vec(1, 2))


def test_affine_rank():
    assert affine_rank([vec(0, 0)]) == 0
    assert affine_rank([vec(0, 0), vec(1, 0), vec(0, 1)]) == 2
    assert affine_rank([vec(0, 0, 0), vec(1, 1, 1), vec(2, 2, 2)]) == 1


def test_hyperplane_through_axis():
    assert hyperplane_through([vec(0, 0), vec(1, 0)], 2) == (vec(0, 1), 0)


def test_hyperplane_through_simplex_facet():
    h = hyperplane_through([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)], 3)
    assert h == (vec(1, 1, 1), 1)


def test_hyperplane_through_diagonal():
    # oracle: the normal solves n . (1,1) = 0 exactly, i.e. the null
    # space of the difference matrix
    pts = [vec(0, 0), vec(1, 1), vec(2, 2)]
    kernel = null_space([[F(1), F(1)], [F(2), F(2)]])
    assert len(kernel) == 1 and dot(kernel[0], vec(1, 1)) == 0
    assert hyperplane_through(pts, 2) == (vec(1, -1), 0)


def test_hyperplane_canonical_under_permutation():
    pts = [vec(0, 0, 1), vec(2, 1, 0), vec(1, 3, 3)]
    base = hyperplane_through(pts, 3)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        assert hyperplane_through([pts[i] for i in perm], 3) == base


def test_hyperplane_degenerate():
    with pytest.raises(DegenerateSpan):
        hyperplane_through([vec(0, 0, 0), vec(1, 1, 1)], 3)
    with pytest.raises(DegenerateSpan):
        hyperplane_through([vec(0, 0), vec(1, 0), vec(0, 1)], 2)
    # points of R^3 spanning a line leave a 2-dimensional kernel
    with pytest.raises(ValueError, match="span no hyperplane"):
        hyperplane_through([vec(0, 0, 0), vec(1, 1, 1)], 2)


def test_canonical_integer_vector():
    # first nonzero entry is made positive
    assert canonical_integer_vector(vec(F(-1, 2), F(1, 2))) == vec(1, -1)
    assert canonical_integer_vector(vec(0, F(2, 3), F(4, 3))) == vec(0, 1, 2)
    assert canonical_integer_vector(vec(0, F(-2, 3), F(4, 3))) == vec(0, 1, -2)


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=100
)


@given(rationals, rationals, rationals)
def test_rational_arithmetic_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
huge = st.integers(-(10**30), 10**30)
sparse = st.sampled_from((F(0), F(0), F(0), F(1), F(-1), F(2), F(-3)))


@st.composite
def rank_deficient_rows(draw):
    """(ncols, rows), 2 to 7 columns: combinations of ncols - 2 to ncols
    random rows, with repeated rows and zero rows mixed in.  The random
    rows have small rational entries, ints of up to 30 digits, or mostly
    zeros (then the combinations are mostly zero too), so that a row is
    often zero in a pivot column.  A column may then be zeroed, so that
    no pivot is found in it (the leading one included), or be made a
    multiple of an earlier column, so that the free column need not be
    the last.  Or each row is scaled by the lcm of its denominators and
    made plain ints by ``exact``, which keeps the rank and the kernel."""
    n = draw(st.integers(2, 7))
    entries = draw(st.sampled_from((small, huge, sparse)))
    basis = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                          min_size=max(n - 2, 0), max_size=n))
    rows = []
    for _ in range(draw(st.integers(1, n + 2))):
        coeffs = draw(st.lists(sparse if entries is sparse else small,
                               min_size=len(basis), max_size=len(basis)))
        rows.append([sum((c * b[i] for c, b in zip(coeffs, basis)), F(0)) for i in range(n)])
    column = draw(st.one_of(st.none(), st.tuples(st.integers(0, n - 1), st.integers(-1, n - 2),
                                                 st.integers(-3, 3))))
    if column is not None:
        j, i, k = column  # column j becomes 0, or k times column i < j
        for r in rows:
            r[j] = k * r[i] if 0 <= i < j else F(0)
    extra = draw(st.lists(st.sampled_from(rows), max_size=2))
    zeros = [[F(0)] * n] * draw(st.integers(0, 1))
    order = draw(st.permutations(rows + extra + zeros))
    if draw(st.booleans()):
        order = [[exact(x * lcm(*(y.denominator for y in r))) for x in r] for r in order]
    return n, list(order)


def thirty_digit_rows() -> list:
    """Six rows of seven columns, ints of 30 digits, whose fourth column
    is column 0 + 2 column 1 - 3 column 2: the free column is the fourth
    and the kernel is (1, 2, -3, -1, 0, 0, 0)."""
    rows = []
    for i in (0, 1, 2, 4, 5, 6):
        r = [10**30 - 7 if i == j else (7 * i + j) % 5 * 10**29 for j in range(7)]
        r[3] = r[0] + 2 * r[1] - 3 * r[2]
        rows.append(r)
    return rows


@settings(max_examples=150, deadline=None)
@given(rank_deficient_rows(), st.lists(small, min_size=7, max_size=7))
# a zero leading column: no pivot in column 0, which is free
@example((4, [[0, 2, 2, -1], [0, 0, 1, -1], [0, 3, 1, 1]]), [0] * 7)
# the free column is the third of four, and the last row is zero in the
# first two pivot columns: it must still be scaled by their pivots
@example((4, [[1, 2, 2, -2], [-2, 3, 1, 3], [0, 0, 0, 2]]), [0] * 7)
# seven columns of ints of 30 digits, the free one in the middle
@example((7, thirty_digit_rows()), [1, -2, 3, 0, 5, 7, -1])
def test_integer_kernel_matches_the_fraction_oracle(case, offset):
    n, rows = case
    rank = fraction_rank(rows)
    assert matrix_rank(rows) == rank
    p0 = tuple(offset[:n])
    points = [p0] + [tuple(x + y for x, y in zip(p0, r)) for r in rows]
    assert affine_rank(points) == rank
    if rank != n - 1:
        assert primitive_kernel(rows, n) is None
        with pytest.raises(DegenerateSpan):
            hyperplane_through(points, n)
        return
    (kernel,) = null_space(rows)
    line = primitive_kernel(rows, n)
    assert line == canonical_integer_vector(kernel)
    assert all(type(x) is int for x in line)
    # the hull's rows: point p is (m p, -m), and the kernel line of the
    # rows of points spanning a hyperplane is (normal, offset) up to a
    # positive factor
    normal, offset = hyperplane_through(points, n)
    h = primitive_kernel([tuple(3 * x for x in p) + (-3,) for p in points], n + 1)
    assert primitive(h[:n]) == normal
    assert all(dot(h[:n], p) == h[n] for p in points)
    assert offset == dot(normal, p0)


def test_primitive_keeps_the_direction():
    assert primitive((F(-1, 2), F(3, 4), 0)) == (-2, 3, 0)
    assert primitive((6, -4)) == (3, -2)
    with pytest.raises(ValueError):
        primitive((F(0), 0))


@given(st.lists(st.integers(-10**30, 10**30), max_size=6))
def test_integer_multiple_of_ints_is_the_row_itself(v):
    # the int rows' shortcut gives what the rule by denominators gives
    # on the same values as Fractions
    fast, general = integer_multiple(v), integer_multiple(tuple(map(F, v)))
    assert fast == general == (tuple(v), 1)
    assert type(fast[0]) is tuple
    assert all(type(x) is int for x in fast[0] + general[0])
