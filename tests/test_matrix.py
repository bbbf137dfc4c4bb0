"""Matrix type, arithmetic, rank, inverse, and the JSON wire format."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import (EPS, EXACT, FLOAT, BackendError, DomainError, MatOrderError,
                      Matrix, ShapeError, block, column_space, exact_rref, hstack,
                      inverse, is_zero_matrix, leq_minus, matrices_equal,
                      matrix_from_dict, matrix_from_json, matrix_to_dict,
                      matrix_to_json, moore_penrose, rank, vstack)
from matorder.scalars import GR_ZERO, GaussianRational, gaussian

SMALL = st.integers(min_value=-3, max_value=3)


def exact_mats(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.tuples(SMALL, SMALL), min_size=n, max_size=n),
                min_size=m, max_size=m).map(Matrix.exact)))


def test_constructors_and_views():
    a = Matrix.exact([[1, 2], [3, 4]])
    assert a.shape == (2, 2) and a.backend == EXACT and a.is_square
    assert a[1, 0] == 3
    z = Matrix.zeros(2, 3, FLOAT)
    assert z.shape == (2, 3) and z.is_zero()
    eye = Matrix.identity(3)
    assert eye[0, 0] == 1 and eye[0, 1] == 0
    f = Matrix.from_complex([[1 + 2j]])
    assert f.backend == FLOAT and f[0, 0] == 1 + 2j


def test_matrix_is_immutable():
    a = Matrix.exact([[1]])
    with pytest.raises(AttributeError):
        a.rows = 5


def test_bad_entries_rejected():
    with pytest.raises(MatOrderError):
        Matrix.exact([[0.5]])
    with pytest.raises(MatOrderError):
        Matrix.from_complex([[object()]])
    with pytest.raises(ShapeError):
        Matrix(2, 2, EXACT, [[gaussian(1)]])
    with pytest.raises(BackendError):
        Matrix(1, 1, "decimal", [[1]])


def test_addition_and_scaling():
    a = Matrix.exact([[1, 2], [3, 4]])
    b = Matrix.exact([[0, 1], [1, 0]])
    assert (a + b)[0, 1] == 3
    assert (a - b)[1, 0] == 2
    assert (-a)[0, 0] == -1
    assert a.scale("1/2")[1, 1] == gaussian(2)
    with pytest.raises(ShapeError):
        a + Matrix.exact([[1]])
    with pytest.raises(BackendError):
        a + a.to_float()


def test_matmul_shapes_and_values():
    a = Matrix.exact([[1, 2], [3, 4]])
    b = Matrix.exact([[1, 0], [0, 1]])
    assert a @ b == a
    c = Matrix.exact([[1], [1]])
    assert a @ c == Matrix(2, 1, EXACT, [[gaussian(3)], [gaussian(7)]])
    with pytest.raises(ShapeError):
        c @ a


def reference_product(a, b, zero=GR_ZERO):
    """The entries of a @ b by the schoolbook triple loop over (i, j, t)."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for t in range(a.cols):
                acc = acc + a[i, t] * b[t, j]
            row.append(acc)
        out.append(row)
    return out


def reference_echelon(rows, nrows: int, ncols: int):
    """Forward elimination of a list of rows in place, in GaussianRational
    arithmetic, pivoting on the first nonzero entry; returns pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if bool(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            if bool(rows[i][c]):
                f = rows[i][c] / pivot
                ri, rr = rows[i], rows[r]
                for j in range(c, ncols):
                    ri[j] = ri[j] - f * rr[j]
        pivots.append(c)
        r += 1
    return pivots


def reference_rref(a):
    """The reduced row echelon rows of a and its pivot columns, by
    ``reference_echelon`` and back substitution in GaussianRational
    arithmetic."""
    rows = a.entries.tolist()
    pivots = reference_echelon(rows, a.rows, a.cols)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        pivot = rows[r][c]
        if pivot != gaussian(1):
            rows[r] = [v / pivot for v in rows[r]]
        for i in range(r):
            if bool(rows[i][c]):
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                for j in range(c, a.cols):
                    ri[j] = ri[j] - f * rr[j]
    return rows, tuple(pivots)


def exact_grid(m, n):
    entries = st.builds(gaussian, SMALL, SMALL)
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=m, max_size=m).map(lambda g: Matrix(m, n, EXACT, g))


@st.composite
def product_operands(draw):
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(exact_grid(m, k)), draw(exact_grid(k, n))


@settings(max_examples=60, deadline=None)
@given(product_operands())
def test_product_matches_reference_loop(operands):
    a, b = operands
    prod = a @ b
    assert prod.shape == (a.rows, b.cols)
    assert all(isinstance(v, GaussianRational) for v in prod.entries.flat)
    assert prod.entries.tolist() == reference_product(a, b)
    # the float product sums in another order: agree to k roundoffs per term
    af, bf = a.to_float(), b.to_float()
    ref = np.array(reference_product(af, bf, 0j), dtype=complex).reshape(prod.shape)
    bound = 4 * (a.cols + 1) * EPS * af.frobenius() * bf.frobenius()
    assert np.abs((af @ bf).to_ndarray() - ref).max(initial=0.0) <= bound


def test_matmul_through_zero_dimension():
    a = Matrix.zeros(2, 0, EXACT)
    b = Matrix.zeros(0, 3, EXACT)
    prod = a @ b
    assert prod.shape == (2, 3) and prod.is_zero()


def test_conj_transpose_values():
    a = Matrix.exact([[0, 1], [0, 0]])
    assert a.ct == Matrix.exact([[0, 0], [1, 0]])
    z = Matrix.exact([[(0, 1), 0], [0, 0]])
    assert z.ct[0, 0] == gaussian(0, -1)
    zero = Matrix.zeros(2, 3, EXACT)
    assert zero.ct.shape == (3, 2) and zero.ct.is_zero()


@settings(max_examples=40, deadline=None)
@given(exact_mats())
def test_conj_transpose_involution_and_rank_invariants(a):
    assert a.ct.ct == a
    r = rank(a)
    assert r == rank(a.ct)
    assert r <= min(a.rows, a.cols)


def test_frobenius_is_exact_on_rationals():
    a = Matrix.exact([["1/2", (0, "1/2")]])
    assert a.frobenius_sq() == gaussian("1/2").re
    assert abs(a.frobenius() ** 2 - 0.5) < 1e-12


def test_stacking_and_block():
    a = Matrix.exact([[1, 2]])
    b = Matrix.exact([[3, 4]])
    assert hstack(a, b).shape == (1, 4)
    assert vstack(a, b).shape == (2, 2)
    g = block([[a, b], [b, a]])
    assert g.shape == (2, 4) and g[1, 0] == 3
    with pytest.raises(ShapeError):
        hstack(a, Matrix.exact([[1], [2]]))
    with pytest.raises(ShapeError):
        vstack(a, Matrix.exact([[1], [2]]))


def test_submatrix_bounds():
    a = Matrix.exact([[1, 2, 3], [4, 5, 6]])
    assert a.submatrix(0, 1, 1, 3) == Matrix.exact([[2, 3]])
    assert a.submatrix(1, 1, 0, 3).shape == (0, 3)
    with pytest.raises(ShapeError):
        a.submatrix(0, 3, 0, 1)


def test_matrices_equal_semantics():
    a = Matrix.exact([[1]])
    b = Matrix.exact([["2/2"]])
    assert matrices_equal(a, b)
    f1 = Matrix.from_complex([[1.0]])
    f2 = Matrix.from_complex([[1.0 + 1e-12]])
    assert matrices_equal(f1, f2)
    assert not matrices_equal(f1, Matrix.from_complex([[1.001]]))
    with pytest.raises(BackendError):
        matrices_equal(a, f1)
    with pytest.raises(ShapeError):
        matrices_equal(f1, Matrix.zeros(2, 2, FLOAT))


def test_is_zero_matrix_per_backend():
    assert is_zero_matrix(Matrix.zeros(2, 2, EXACT))
    assert not is_zero_matrix(Matrix.exact([[0, "1/1000000000000"]]))
    assert is_zero_matrix(Matrix.from_complex([[1e-12]]))


def test_rref_known_matrix():
    a = Matrix.exact([[2, 4, 0], [1, 2, 1]])
    red, pivots = exact_rref(a)
    assert pivots == (0, 2)
    assert red == Matrix.exact([[1, 2, 0], [0, 0, 1]])


def test_rank_oracles():
    assert rank(Matrix.exact([[0, 1], [0, 0]])) == 1
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zeros(3, 2, EXACT)) == 0
    assert rank(Matrix.zeros(0, 5, FLOAT)) == 0
    assert rank(Matrix.from_complex([[1, 1], [1, 1]])) == 1


@settings(max_examples=40, deadline=None)
@given(exact_mats())
def test_rank_agrees_across_backends(a):
    assert rank(a) == rank(a.to_float())


def test_inverse_known_and_errors():
    b = Matrix.exact([[1, 1], [0, 1]])
    binv = inverse(b)
    assert binv == Matrix.exact([[1, -1], [0, 1]])
    assert b @ binv == Matrix.identity(2)
    with pytest.raises(DomainError):
        inverse(Matrix.exact([[1, 1], [1, 1]]))
    with pytest.raises(ShapeError):
        inverse(Matrix.exact([[1, 2]]))
    with pytest.raises(BackendError):
        inverse(Matrix.from_complex([[1]]))


PART = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5, 7)))
GAUSSIAN = st.builds(gaussian, PART, PART)


@st.composite
def deficient_mats(draw, max_dim=6):
    """Gaussian-rational matrices with 0..max_dim rows and columns and mixed
    denominators, most made rank deficient by repeated rows, scaled rows
    and zero columns."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    rows = draw(st.lists(st.lists(GAUSSIAN, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3)) if m and n else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        kind = draw(st.sampled_from(("repeat", "scale", "zero column")))
        if kind == "repeat":
            rows[j] = list(rows[i])
        elif kind == "scale":
            f = draw(GAUSSIAN)
            rows[j] = [f * v for v in rows[i]]
        else:
            c = draw(st.integers(0, n - 1))
            for row in rows:
                row[c] = GR_ZERO
    return Matrix(m, n, EXACT, rows)


def _all_gaussian(m):
    return all(isinstance(v, GaussianRational) for v in m.entries.flat)


@settings(max_examples=150, deadline=None)
@given(deficient_mats())
def test_elimination_and_products_match_reference(a):
    ref_rows, ref_pivots = reference_rref(a)
    red, pivots = exact_rref(a)
    assert pivots == ref_pivots
    assert red.entries.tolist() == ref_rows
    assert rank(a) == len(ref_pivots)
    basis = column_space(a).basis
    assert basis.entries.tolist() == [[row[c] for c in ref_pivots]
                                      for row in a.entries.tolist()]
    checked = [red, basis, a @ a.ct, a.ct @ a]
    assert checked[2].entries.tolist() == reference_product(a, a.ct)
    assert checked[3].entries.tolist() == reference_product(a.ct, a)
    # a product keeps its gcd-reduced integer form; later kernels start from it
    g = checked[2]
    checked.append(g @ a)
    assert checked[-1].entries.tolist() == reference_product(g, a)
    g_red, g_pivots = exact_rref(g)
    assert (g_red.entries.tolist(), g_pivots) == reference_rref(g)
    assert rank(g) == len(g_pivots)
    checked.append(g_red)
    if a.is_square:
        n = a.rows
        aug_rows, aug_pivots = reference_rref(hstack(a, Matrix.identity(n)))
        if aug_pivots == tuple(range(n)):
            inv = inverse(a)
            assert inv.entries.tolist() == [row[n:] for row in aug_rows]
            checked.append(inv)
        else:
            with pytest.raises(DomainError):
                inverse(a)
    assert all(_all_gaussian(m) for m in checked)


def test_exact_stack_agrees_with_sympy():
    """sympy's DomainMatrix over QQ_I, an independent implementation of
    Gaussian-rational linear algebra, referees rank, the reduced row
    echelon form and its pivots, the inverse and the four Penrose
    equations of the pseudoinverse."""
    dm = pytest.importorskip("sympy.polys.matrices")
    from sympy.polys.domains import QQ, QQ_I

    def to_sympy(m):
        cells = [[QQ_I(QQ(v.re.numerator, v.re.denominator),
                       QQ(v.im.numerator, v.im.denominator)) for v in row]
                 for row in m.entries.tolist()]
        return dm.DomainMatrix(cells, m.shape, QQ_I)

    def from_sympy(d):
        return [[gaussian(Fraction(int(e.x.numerator), int(e.x.denominator)),
                          Fraction(int(e.y.numerator), int(e.y.denominator)))
                 for e in row] for row in d.to_dense().to_list()]

    def adjoint(d):
        return d.transpose().applyfunc(lambda e: QQ_I(e.x, -e.y))

    @settings(max_examples=80, deadline=None)
    @given(deficient_mats())
    def check(a):
        s = to_sympy(a)
        assert rank(a) == s.rank()
        red, pivots = exact_rref(a)
        s_red, s_pivots = s.rref()
        assert pivots == tuple(s_pivots)
        assert red.entries.tolist() == from_sympy(s_red)
        if a.is_square:
            try:
                s_inv = s.inv()
            except dm.exceptions.DMNonInvertibleMatrixError:
                with pytest.raises(DomainError):
                    inverse(a)
            else:
                assert inverse(a).entries.tolist() == from_sympy(s_inv)
        x = to_sympy(moore_penrose(a))
        ax, xa = s * x, x * s
        for residual in (ax * s - s, xa * x - x, adjoint(ax) - ax, adjoint(xa) - xa):
            assert residual.is_zero_matrix

    check()


def test_json_round_trip_exact():
    a = Matrix.exact([[("1/2", "-1/3"), 2], [0, (0, 1)]])
    d = matrix_to_dict(a)
    assert d["backend"] == EXACT
    assert d["entries"][0][0] == ["1/2", "-1/3"]
    assert matrix_from_dict(d) == a
    assert matrix_from_json(matrix_to_json(a)) == a


def test_json_round_trip_float():
    a = Matrix.from_complex([[1.5 - 2.25j, 0], [3, 1j]])
    text = matrix_to_json(a)
    again = matrix_from_json(text)
    assert again == a
    payload = json.loads(text)
    assert payload["entries"][0][0] == [1.5, -2.25]


@settings(max_examples=40, deadline=None)
@given(exact_mats())
def test_json_round_trip_property(a):
    assert matrix_from_json(matrix_to_json(a)) == a


@pytest.mark.parametrize("payload", [
    "not json",
    '{"rows": 1, "cols": 1, "entries": [[["0/1", "0/1"]]]}',
    '{"rows": 1, "cols": 1, "backend": "decimal", "entries": [[["0/1", "0/1"]]]}',
    '{"rows": 2, "cols": 1, "backend": "exact", "entries": [[["0/1", "0/1"]]]}',
    '{"rows": 1, "cols": 1, "backend": "exact", "entries": [[["0/1"]]]}',
    '{"rows": 1, "cols": 1, "backend": "exact", "entries": [[[0.5, "0/1"]]]}',
    '{"rows": 1, "cols": 1, "backend": "exact", "entries": [[["1/0", "0/1"]]]}',
    '{"rows": 1, "cols": 1, "backend": "float", "entries": [[["1.0", 0.0]]]}',
    '{"rows": 1, "cols": 1, "backend": "float", "entries": [[[true, 0.0]]]}',
    '{"rows": -1, "cols": 1, "backend": "float", "entries": []}',
    '{"rows": 1, "cols": 1, "backend": "float", "entries": [[[NaN, 0.0]]]}',
    '{"rows": 1, "cols": 1, "backend": "float", "entries": [[[0.0, Infinity]]]}',
    '{"rows": 1, "cols": 1, "backend": "float", "entries": [[[-Infinity, 0.0]]]}',
    '{"rows": 1, "cols": 1, "backend": "float", "entries": [[[1e400, 0.0]]]}',
    pytest.param('{"rows": 1, "cols": 1, "backend": "float", "entries": [[[1%s, 0]]]}'
                 % ("0" * 400), id="float-int-beyond-double"),
])
def test_malformed_json_rejected(payload):
    with pytest.raises(MatOrderError):
        matrix_from_json(payload)


def test_to_float_and_ndarray_round_trip():
    a = Matrix.exact([[(1, "1/2")]])
    f = a.to_float()
    assert f.backend == FLOAT and f[0, 0] == 1 + 0.5j
    assert f.to_float() is f
    arr = f.to_ndarray()
    assert Matrix.from_ndarray(arr) == f


def test_entries_are_read_only_and_owned():
    arr = np.array([[1.0, 2.0]])
    f = Matrix.from_ndarray(arr)
    arr[0, 0] = 5.0
    assert f == Matrix.from_complex([[1.0, 2.0]])
    for m in (f, f @ f.ct, f.submatrix(0, 1, 1, 2), Matrix.exact([[1]]).ct):
        assert not m.entries.flags.writeable
    with pytest.raises(ValueError):
        f.entries[0, 0] = 3.0


def test_signed_zeros_are_equal_and_hash_alike():
    pos, neg = Matrix.from_complex([[0.0]]), Matrix.from_complex([[-0.0]])
    assert pos == neg
    assert hash(pos) == hash(neg)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   complex(0.0, float("-inf"))])
def test_non_finite_float_entries_rejected(value):
    with pytest.raises(DomainError):
        Matrix.from_complex([[value]])
    with pytest.raises(DomainError):
        Matrix.from_ndarray(np.array([[1.0, value]]))


def test_frobenius_of_huge_entries_is_finite():
    a = Matrix.from_complex([[1e200]])
    b = Matrix.from_complex([[3e200, 4e200j]])
    # numpy warns when the squares overflow, before the rescaled pass
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert a.frobenius() == 1e200
        assert math.isclose(b.frobenius(), 5e200)
        assert not matrices_equal(a, a.scale(2))
        assert not leq_minus(a, a.scale(2)).verdict
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(DomainError):
        Matrix.from_complex([[1.5e308, 1.5e308]]).frobenius()
    # |a| + |b| overflows, so no relative bound separates these two
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(DomainError):
        matrices_equal(Matrix.from_complex([[1e308]]), Matrix.from_complex([[9e307]]))


def test_overflowing_float_kernel_is_a_domain_error():
    big = Matrix.from_complex([[1e308, 0.0]])
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(DomainError):
        big.ct @ big
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(DomainError):
        big + big


def test_repr_and_hash_usable():
    a = Matrix.exact([[1, 0], [0, 1]])
    assert "2x2 exact" in repr(a)
    assert len({a, Matrix.identity(2)}) == 1
