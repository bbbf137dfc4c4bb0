"""Column spaces, inclusions, intersections, and the range-sum identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import (EXACT, FLOAT, BackendError, Matrix, ShapeError,
                      column_space, hstack, matrices_equal, moore_penrose,
                      range_sum_check, rank, subspace_intersection_dim,
                      subspace_leq)

GAUSSIAN = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def line(*coords):
    return column_space(Matrix.exact([[c] for c in coords]))


def test_column_space_exact_picks_pivot_columns():
    s = column_space(Matrix.exact([[0, 1], [0, 0]]))
    assert s.rows == 2 and s.cols == 1
    assert s == Matrix.exact([[1], [0]])


def test_column_space_zero_and_identity():
    assert column_space(Matrix.zeros(3, 2, EXACT)).cols == 0
    assert column_space(Matrix.identity(2)).cols == 2


def test_column_space_float_is_orthonormal():
    s = column_space(Matrix.from_complex([[3, 3], [4, 4]]))
    assert s.cols == 1
    gram = s.ct @ s
    assert matrices_equal(gram, Matrix.identity(1, FLOAT))


def test_subspace_leq_cases():
    assert subspace_leq(line(1, 0), column_space(Matrix.identity(2)))
    assert not subspace_leq(line(1, 0), line(0, 1))
    assert subspace_leq(line(1, 0), line(1, 0))
    zero = column_space(Matrix.zeros(2, 2, EXACT))
    assert subspace_leq(zero, line(1, 0))
    assert not subspace_leq(line(1, 0), zero)


def test_exact_inclusion_reads_the_span_of_a_dependent_basis():
    # span{e1, e1} is the line of e1, whatever its column count says
    e1e1 = Matrix.exact([[1, 1], [0, 0]])
    assert not subspace_leq(line(0, 1), e1e1)
    assert subspace_leq(line(1, 0), e1e1)
    assert subspace_leq(e1e1, line(1, 0))


@st.composite
def gaussian_matrices(draw, m: int):
    """An m x n Gaussian-integer matrix, n in 0..4: random entries, a
    product of rank at most r, zero, or the identity."""
    kind = draw(st.sampled_from(["random", "low_rank", "zero", "identity"]))
    if kind == "identity":
        return Matrix.identity(m)
    n = draw(st.integers(0, 4))
    if kind == "zero":
        return Matrix.zeros(m, n)

    def grid(rows, cols):
        return Matrix.exact([draw(st.lists(GAUSSIAN, min_size=cols, max_size=cols))
                             for _ in range(rows)])

    if kind == "random":
        return grid(m, n)
    r = draw(st.integers(1, 3))
    return grid(m, r) @ grid(r, n)


@st.composite
def exact_subspace_pairs(draw):
    """Matrices (S, T) with m rows, m in 1..5: raw half the time, their
    ``column_space`` bases otherwise. S is T·Y half the time, for a Y of any
    kind above, rank-deficient ones included."""
    m = draw(st.integers(1, 5))
    t = draw(gaussian_matrices(m))
    if draw(st.booleans()):
        s = t @ draw(gaussian_matrices(t.cols)) if t.cols else Matrix.zeros(m, 2)
    else:
        s = draw(gaussian_matrices(m))
    if draw(st.booleans()):
        return s, t
    return column_space(s), column_space(t)


def answers(s, t) -> tuple:
    return (subspace_leq(s, t), subspace_leq(t, s),
            subspace_intersection_dim(s, t), subspace_intersection_dim(t, s))


def stacked_answers(s, t) -> tuple:
    """``answers`` on exact S and T, read off the ranks of S, T and the
    stacked matrices."""
    rs, rt, rst = rank(s), rank(t), rank(hstack(s, t))
    return rank(hstack(t, s)) == rt, rst == rs, rs + rt - rst, rs + rt - rst


@settings(max_examples=300, deadline=None)
@given(exact_subspace_pairs())
def test_exact_inclusion_and_intersection_match_the_stacked_rank(pair):
    s, t = pair
    assert answers(s, t) == stacked_answers(s, t)


@settings(max_examples=300, deadline=None)
@given(exact_subspace_pairs())
def test_float_inclusion_and_intersection_match_the_exact_answer(pair):
    s, t = pair
    assert answers(s.to_float(), t.to_float()) == stacked_answers(s, t)


@pytest.mark.parametrize("make", [Matrix.exact, Matrix.from_complex],
                         ids=["exact", "float"])
def test_dependent_columns_are_read_as_their_span(make):
    e2 = make([[0], [1]])
    e1e1 = make([[1, 1], [0, 0]])
    plane = make([[1, 0, 1], [0, 1, 1]])
    assert not subspace_leq(e2, e1e1)
    assert subspace_intersection_dim(e2, e1e1) == 0
    assert subspace_intersection_dim(e1e1, e2) == 0
    assert subspace_intersection_dim(plane, plane) == 2
    assert subspace_intersection_dim(plane, e1e1) == 1


def test_subspace_errors():
    with pytest.raises(ShapeError):
        subspace_leq(line(1, 0), column_space(Matrix.identity(3)))
    with pytest.raises(BackendError):
        subspace_leq(line(1, 0), column_space(Matrix.identity(2).to_float()))


def test_intersection_dims():
    assert subspace_intersection_dim(line(1, 0), line(1, 0)) == 1
    assert subspace_intersection_dim(line(1, 0), line(0, 1)) == 0
    full = column_space(Matrix.identity(2))
    assert subspace_intersection_dim(full, line(1, 1)) == 1
    zero = column_space(Matrix.zeros(2, 1, EXACT))
    assert subspace_intersection_dim(zero, full) == 0


def test_intersection_of_planes_in_three_space():
    p1 = column_space(Matrix.exact([[1, 0], [0, 1], [0, 0]]))
    p2 = column_space(Matrix.exact([[0, 0], [1, 0], [0, 1]]))
    assert subspace_intersection_dim(p1, p2) == 1


def test_range_sum_check_cases():
    eye = Matrix.identity(2)
    assert range_sum_check(eye, Matrix.zeros(2, 2, EXACT))
    a = Matrix.exact([[1, 0], [0, 0]])
    assert not range_sum_check(a, -a)
    assert range_sum_check(a, Matrix.exact([[0, 0], [0, 1]]))


def test_range_sum_check_validation():
    with pytest.raises(ShapeError):
        range_sum_check(Matrix.identity(2), Matrix.identity(3))
    with pytest.raises(BackendError):
        range_sum_check(Matrix.identity(2), Matrix.identity(2, FLOAT))


def test_range_sum_check_on_pseudoinverse_difference():
    a = Matrix.exact([[0, 1], [0, 0]])
    b = Matrix.exact([[1, 1], [0, 1]])
    ad = moore_penrose(a)
    diff = moore_penrose(b) - ad
    assert range_sum_check(ad, diff)


def test_range_sum_check_matches_rank_identity():
    # the check holds exactly when rank(a + b) equals rank([a | b])
    a = Matrix.exact([[1, 0], [0, 0]])
    b = Matrix.exact([[0, 0], [0, 1]])
    assert range_sum_check(a, b) == (rank(a + b) == 2)
    assert range_sum_check(a, -a) == (rank(a - a) == rank(a))
