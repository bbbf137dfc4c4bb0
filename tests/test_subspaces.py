"""Column spaces, inclusions, intersections, and the range-sum identity."""

import pytest

from matorder import (EXACT, FLOAT, BackendError, Matrix, ShapeError,
                      column_space, matrices_equal, moore_penrose,
                      range_sum_check, rank, subspace_intersection_dim,
                      subspace_leq)


def line(*coords):
    return column_space(Matrix.exact([[c] for c in coords]))


def test_column_space_exact_picks_pivot_columns():
    s = column_space(Matrix.exact([[0, 1], [0, 0]]))
    assert s.ambient_dim == 2 and s.dim == 1
    assert s.basis == Matrix.exact([[1], [0]])


def test_column_space_zero_and_identity():
    assert column_space(Matrix.zeros(3, 2, EXACT)).dim == 0
    assert column_space(Matrix.identity(2)).dim == 2


def test_column_space_float_is_orthonormal():
    s = column_space(Matrix.from_complex([[3, 3], [4, 4]]))
    assert s.dim == 1
    gram = s.basis.ct @ s.basis
    assert matrices_equal(gram, Matrix.identity(1, FLOAT))


def test_subspace_leq_cases():
    assert subspace_leq(line(1, 0), column_space(Matrix.identity(2)))
    assert not subspace_leq(line(1, 0), line(0, 1))
    assert subspace_leq(line(1, 0), line(1, 0))
    zero = column_space(Matrix.zeros(2, 2, EXACT))
    assert subspace_leq(zero, line(1, 0))
    assert not subspace_leq(line(1, 0), zero)


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
