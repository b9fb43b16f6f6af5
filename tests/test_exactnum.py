from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polysweep.errors import DegenerateSpan
from polysweep.exactnum import (
    Hyperplane,
    affine_rank,
    canonical_integer_vector,
    dot,
    hyperplane_through,
    null_space,
    side,
    vec,
)


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
    h = hyperplane_through([vec(0, 0), vec(1, 0)], 2)
    assert h.normal == vec(0, 1) and h.offset == 0


def test_hyperplane_through_simplex_facet():
    h = hyperplane_through([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)], 3)
    assert h.normal == vec(1, 1, 1) and h.offset == 1


def test_hyperplane_through_diagonal():
    # oracle: the normal solves n . (1,1) = 0 exactly, i.e. the null
    # space of the difference matrix
    pts = [vec(0, 0), vec(1, 1), vec(2, 2)]
    kernel = null_space([[F(1), F(1)], [F(2), F(2)]])
    assert len(kernel) == 1 and dot(kernel[0], vec(1, 1)) == 0
    h = hyperplane_through(pts, 2)
    assert h.normal == vec(1, -1) and h.offset == 0


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


def test_side():
    h = Hyperplane(vec(0, 1), 0)
    assert side(h, vec(5, 2)) == 1
    assert side(h, vec(5, 0)) == 0
    assert side(h, vec(5, F(-1, 3))) == -1


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
