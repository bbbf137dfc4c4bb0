"""Pseudoinverse, inner inverses, projectors, and partial isometries."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import (EXACT, FLOAT, Matrix, ShapeError, inner_inverse,
                      is_partial_isometry, leq_space, matrices_equal,
                      moore_penrose, penrose_residuals, projector_range,
                      projector_rowspace)
from matorder.sampling import float_pair

SMALL = st.integers(min_value=-3, max_value=3)


def exact_mats(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.tuples(SMALL, SMALL), min_size=n, max_size=n),
                min_size=m, max_size=m).map(Matrix.exact)))


def test_pinv_of_partial_isometry_is_adjoint():
    a = Matrix.exact([[0, 1], [0, 0]])
    assert moore_penrose(a) == a.ct


def test_pinv_of_nonsingular_is_inverse():
    b = Matrix.exact([[1, 1], [0, 1]])
    assert moore_penrose(b) == Matrix.exact([[1, -1], [0, 1]])


def test_pinv_frozen_rank_one_example():
    a = Matrix.exact([[1, 0], [1, 0]])
    ad = moore_penrose(a)
    assert ad == Matrix.exact([["1/2", "1/2"], [0, 0]])
    assert penrose_residuals(a, ad).all_satisfied


def test_pinv_of_zero_and_empty():
    assert moore_penrose(Matrix.zeros(2, 3, EXACT)) == Matrix.zeros(3, 2, EXACT)
    for m, n in ((2, 3), (0, 2), (2, 0)):
        assert moore_penrose(Matrix.zeros(m, n, FLOAT)) == Matrix.zeros(n, m, FLOAT)


@settings(max_examples=40, deadline=None)
@given(exact_mats())
def test_exact_pinv_satisfies_penrose_equations(a):
    ad = moore_penrose(a)
    res = penrose_residuals(a, ad)
    assert res.all_satisfied
    assert res.r1 == res.r2 == res.r3 == res.r4 == 0.0
    assert moore_penrose(ad) == a


@settings(max_examples=25, deadline=None)
@given(exact_mats())
def test_float_pinv_matches_numpy(a):
    af = a.to_float()
    ours = moore_penrose(af)
    ref = Matrix.from_ndarray(np.linalg.pinv(af.to_ndarray()))
    assert matrices_equal(ours, ref, 1e-9)


def test_residuals_report_violations():
    a = Matrix.exact([[1, 1], [0, 0]])
    res = penrose_residuals(a, a.ct)
    assert res.r1 > 0 and res.r2 > 0
    assert res.r3 == 0.0 and res.r4 == 0.0
    assert res.satisfied == (False, False, True, True)
    assert not res.all_satisfied
    d = res.to_dict()
    assert d["satisfied"] == [False, False, True, True]


def test_residuals_shape_check():
    a = Matrix.exact([[1, 2, 3]])
    with pytest.raises(ShapeError):
        penrose_residuals(a, a)


def test_inner_inverse_examples():
    a = Matrix.exact([[0, 1], [0, 0]])
    w = Matrix.exact([[1, 1], [1, 1]])
    g = inner_inverse(a, w)
    assert g == w
    assert a @ g @ a == a
    ad = moore_penrose(a)
    assert inner_inverse(a, ad) == ad
    zero = Matrix.zeros(2, 2, EXACT)
    assert inner_inverse(zero, w) == w
    with pytest.raises(ShapeError):
        inner_inverse(a, Matrix.exact([[1, 2, 3]]))


@settings(max_examples=40, deadline=None)
@given(exact_mats(), st.integers(0, 10 ** 6))
def test_inner_inverse_sweep_always_solves(a, salt):
    import random

    rng = random.Random(salt)
    w = Matrix.exact([[rng.randint(-2, 2) for _ in range(a.rows)]
                      for _ in range(a.cols)])
    g = inner_inverse(a, w)
    assert a @ g @ a == a


def test_sampled_inner_inverses_reuse_the_kept_projectors(monkeypatch):
    # b b+ @ a and a @ b+ @ b form 4 products, and each sample 6 (two for
    # g, four for its identities); b b+ and b+ b are formed once per b
    _, a, b = float_pair(random.Random(1), 6)
    products = []
    matmul = Matrix.__matmul__

    def counted(x, y):
        products.append((x, y))
        return matmul(x, y)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    counts = []
    for _ in range(2):
        products.clear()
        report = leq_space(a, b, inner_samples=5)
        assert report.verdict and report.witnesses["inner_inverse_identities"]
        counts.append(len(products))
    assert counts == [4 + 5 * 6 + 1, 3 + 5 * 6]


def test_projectors_are_hermitian_idempotents():
    a = Matrix.exact([[1, 1], [0, 0]])
    p = projector_range(a)
    q = projector_rowspace(a)
    assert p == Matrix.exact([[1, 0], [0, 0]])
    for proj in (p, q):
        assert proj @ proj == proj
        assert proj.ct == proj
    assert p @ a == a and a @ q == a


def test_rowspace_projector_oracle():
    a = Matrix.exact([[0, 1], [0, 0]])
    assert projector_rowspace(a) == Matrix.exact([[0, 0], [0, 1]])
    assert projector_range(Matrix.identity(2)) == Matrix.identity(2)


def test_is_partial_isometry_cases():
    assert is_partial_isometry(Matrix.exact([[0, 1], [0, 0]]))
    assert is_partial_isometry(Matrix.zeros(2, 3, EXACT))
    assert is_partial_isometry(Matrix.identity(3))
    assert not is_partial_isometry(Matrix.exact([[1, 1], [0, 1]]))
    assert not is_partial_isometry(Matrix.exact([[2]]))
