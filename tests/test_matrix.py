"""Matrix type, arithmetic, rank, inverse, and the JSON wire format."""

import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from matorder import (EPS, EXACT, FLOAT, BackendError, DomainError, MatOrderError,
                      Matrix, ShapeError, block, column_space, exact_rref, hstack,
                      inverse, is_zero_matrix, leq_minus, matrices_equal,
                      matrix_from_dict, matrix_from_json, matrix_to_dict,
                      matrix, matrix_to_json, moore_penrose, rank, vstack)
from matorder.decomp import hartwig_spindelbock
from matorder.matrix import float_norm, float_svd, tolerance_bound
from matorder.sampling import float_pair
from matorder.scalars import GaussianRational, gaussian

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
        Matrix.from_complex([[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix(2, 2, EXACT, [[gaussian(1)]])
    with pytest.raises(BackendError):
        Matrix(1, 1, "decimal", [[1]])
    with pytest.raises(ShapeError, match="negative dimension"):
        Matrix.zeros(-1, 2)
    with pytest.raises(ShapeError, match="2-d"):
        Matrix.from_ndarray(np.zeros(3))


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
    with pytest.raises(BackendError, match="mixed backends"):
        a @ b.to_float()


# sympy's DomainMatrix over QQ_I, an independent implementation of
# Gaussian-rational linear algebra, is the reference for the exact kernels.


def to_qq_i(v):
    """The QQ_I element of the GaussianRational v."""
    return QQ_I(QQ(v.re.numerator, v.re.denominator), QQ(v.im.numerator, v.im.denominator))


def from_qq_i(e):
    """The GaussianRational of the QQ_I element e."""
    return gaussian(Fraction(int(e.x.numerator), int(e.x.denominator)),
                    Fraction(int(e.y.numerator), int(e.y.denominator)))


def to_sympy(m):
    """The exact matrix m as a DomainMatrix over QQ_I."""
    cells = [[to_qq_i(v) for v in row] for row in m.entries.tolist()]
    return DomainMatrix(cells, m.shape, QQ_I)


def from_sympy(d):
    """The rows of the DomainMatrix d as lists of GaussianRational."""
    return [[from_qq_i(e) for e in row] for row in d.to_dense().to_list()]


def adjoint(d):
    return d.transpose().applyfunc(lambda e: QQ_I(e.x, -e.y))


def reference_product(a, b):
    """The entries of a @ b: the DomainMatrix product for exact a and b,
    the schoolbook triple loop over (i, j, t) for float ones."""
    if a.backend == EXACT:
        return from_sympy(to_sympy(a) * to_sympy(b))
    return [[sum((a[i, t] * b[t, j] for t in range(a.cols)), 0j)
             for j in range(b.cols)] for i in range(a.rows)]


def reference_kernels(a, b, s, r0, r1, c0, c1, cols):
    """(kernel result, reference entries) for each exact kernel but the
    product, the references computed on DomainMatrix: a, b share a shape,
    s is a scalar, (r0, r1, c0, c1) are submatrix bounds and cols a list of
    column indices."""
    x, y = to_sympy(a), to_sympy(b)
    refs = {
        "add": (a + b, x + y),
        "sub": (a - b, x - y),
        "neg": (-a, -x),
        "scale": (a.scale(s), x * to_qq_i(s)),
        "ct": (a.ct, adjoint(x)),
        "submatrix": (a.submatrix(r0, r1, c0, c1), x[r0:r1, c0:c1]),
        "columns": (a.columns(cols), x.extract(range(a.rows), cols)),
        "hstack": (hstack(a, b), x.hstack(y)),
        "vstack": (vstack(a, b), x.vstack(y)),
    }
    return {name: (got, from_sympy(ref)) for name, (got, ref) in refs.items()}


def reference_rref(a):
    """The reduced row echelon rows of a and its pivot columns, by
    DomainMatrix.rref."""
    red, pivots = to_sympy(a).rref()
    return from_sympy(red), tuple(pivots)


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
    ref = np.array(reference_product(af, bf), dtype=complex).reshape(prod.shape)
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
    assert math.isclose(a.to_float().frobenius_sq(), 0.5)


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
    for stack in (hstack, vstack):
        with pytest.raises(ShapeError, match="need at least one matrix"):
            stack()


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


def test_is_zero_matrix_at_its_float_boundary():
    # tol·(1 + |a| + 0.0) is 1.0 at |a| = 1 and tol = 0.5, and grows by
    # half of any step in |a|
    assert is_zero_matrix(Matrix.from_complex([[1.0]]), 0.5)
    assert not is_zero_matrix(Matrix.from_complex([[1.0 + 2 ** -20]]), 0.5)
    assert is_zero_matrix(Matrix.zeros(0, 3, EXACT))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_sums_and_differences_refuse_non_matrices(backend):
    a = Matrix.identity(2, backend)
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        1 + a
    with pytest.raises(TypeError):
        a - "x"
    assert a.__add__(1) is NotImplemented and a.__sub__("x") is NotImplemented
    # nor do products and comparisons
    with pytest.raises(TypeError):
        a @ 3
    assert (a == "x") is False


def test_tolerance_bound_adds_the_norms_to_one_in_order():
    # 1 + 1e16 rounds back to 1e16, and so does adding 1 again; a compensated
    # sum (math.fsum, or sum() from Python 3.12) would carry the two ones
    assert math.fsum([1.0, 1e16, 1.0]) == 1.0000000000000002e16
    assert tolerance_bound(1.0, 1e16, 1.0) == 1.0 + 1e16 + 1.0 == 1e16
    assert tolerance_bound(1e-9) == 1e-9
    assert tolerance_bound(0.0, 3.0, 4.0) == 0.0
    assert tolerance_bound(0.5, 1.0, 2.0) == 2.0


@pytest.mark.parametrize("tol, norms", [
    pytest.param(-1.0, (1.0,), id="negative"),
    pytest.param(float("nan"), (1.0, 2.0), id="nan"),
    pytest.param(1e-9, (1.7e308, 1.7e308), id="norms-overflow"),
    pytest.param(1e300, (1e10,), id="product-overflows"),
    pytest.param(0.0, (math.inf,), id="zero-times-infinity"),
])
def test_tolerance_bound_refuses_what_separates_nothing(tol, norms):
    with pytest.raises(DomainError, match="tolerance bound"):
        tolerance_bound(tol, *norms)


def test_rref_known_matrix():
    a = Matrix.exact([[2, 4, 0], [1, 2, 1]])
    red, pivots = exact_rref(a)
    assert pivots == (0, 2)
    assert red == Matrix.exact([[1, 2, 0], [0, 0, 1]])
    with pytest.raises(BackendError, match="row reduction"):
        exact_rref(a.to_float())


def test_rank_oracles():
    assert rank(Matrix.exact([[0, 1], [0, 0]])) == 1
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zeros(3, 2, EXACT)) == 0
    assert rank(Matrix.zeros(0, 5, FLOAT)) == 0
    assert rank(Matrix.from_complex([[1, 1], [1, 1]])) == 1


def test_rank_counts_only_values_above_the_cutoff():
    # with rank_factor 0 the cutoff is 0, and a zero singular value is not rank
    assert rank(Matrix.from_complex([[1, 0], [0, 0]]), rank_factor=0.0) == 1
    assert rank(Matrix.from_complex([[1, 0], [0, 1]]), rank_factor=0.0) == 2


@settings(max_examples=40, deadline=None)
@given(exact_mats())
def test_rank_agrees_across_backends(a):
    assert rank(a) == rank(a.to_float())


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8))
def test_float_rank_routes_agree(seed, n):
    # rank runs its own values-only SVD, while moore_penrose, column_space
    # and the block form read the rank of the kept full SVD
    _, a, b = float_pair(random.Random(seed), n)
    ad, bd = moore_penrose(a), moore_penrose(b)
    rows_a, rows_b = column_space(a.ct), column_space(b.ct)
    diff = column_space(bd - ad)
    for m in (a, b, ad, bd, b - a, bd - ad,
              hstack(column_space(b), column_space(a)),
              hstack(rows_b, rows_a), hstack(rows_b, diff),
              hstack(rows_a, diff)):
        assert rank(m) == float_svd(m)[3]


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
            f = to_qq_i(draw(GAUSSIAN))
            rows[j] = [from_qq_i(f * to_qq_i(v)) for v in rows[i]]
        else:
            c = draw(st.integers(0, n - 1))
            for row in rows:
                row[c] = gaussian(0)
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
    basis = column_space(a)
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
            except DMNonInvertibleMatrixError:
                with pytest.raises(DomainError):
                    inverse(a)
            else:
                assert inverse(a).entries.tolist() == from_sympy(s_inv)
        x = to_sympy(moore_penrose(a))
        ax, xa = s * x, x * s
        for residual in (ax * s - s, xa * x - x, adjoint(ax) - ax, adjoint(xa) - xa):
            assert residual.is_zero_matrix

    check()


_DIVMOD = np.frompyfunc(divmod, 2, 2)


def _array_quotient(x, n):
    q, rem = _DIVMOD(x, n)
    if rem.any():
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def array_gauss_jordan(a):
    """The whole-array form of the fraction-free elimination, the reference
    for matrix._gauss_jordan: each step updates every other row on every
    column at once with object-array arithmetic."""
    re, im, _ = a.integer_form
    re, im = re.copy(), im.copy()
    pivots = []
    qr, qi = 1, 0
    for c in range(a.cols):
        r = len(pivots)
        if r == a.rows:
            break
        nonzero = np.flatnonzero((re[r:, c] != 0) | (im[r:, c] != 0))
        if not nonzero.size:
            continue
        k = r + int(nonzero[0])
        if k != r:
            re[[r, k]] = re[[k, r]]
            im[[r, k]] = im[[k, r]]
        pr, pi = re[r, c], im[r, c]
        row_re, row_im = re[r].copy(), im[r].copy()
        col_re, col_im = re[:, c:c + 1].copy(), im[:, c:c + 1].copy()
        xr = pr * re - pi * im - (col_re * row_re - col_im * row_im)
        xi = pr * im + pi * re - (col_re * row_im + col_im * row_re)
        if qi:
            xr, xi = xr * qr + xi * qi, xi * qr - xr * qi
            norm = qr * qr + qi * qi
        else:
            norm = qr
        if norm != 1:
            xr, xi = _array_quotient(xr, norm), _array_quotient(xi, norm)
        re, im = xr, xi
        re[r], im[r] = row_re, row_im
        pivots.append(c)
        qr, qi = pr, pi
    return re, im, (qr, qi), tuple(pivots)


@settings(max_examples=150, deadline=None)
@given(deficient_mats())
@example(Matrix.zeros(0, 3))
@example(Matrix.zeros(3, 0))
@example(Matrix.zeros(0, 0))
def test_elimination_matches_the_array_reference(a):
    # the raw tuple, not only the reduced form: _left_null reads the rows
    # unreduced with their common pivot ``last``; inverse eliminates
    # hstack(a, I), and a·a* brings large numerators
    for m in (a, hstack(a, Matrix.identity(a.rows)), a @ a.ct):
        re, im, last, pivots = matrix._gauss_jordan(m)
        want_re, want_im, want_last, want_pivots = array_gauss_jordan(m)
        assert (last, pivots) == (want_last, want_pivots)
        for got, want in ((re, want_re), (im, want_im)):
            assert got.shape == m.shape and got.dtype == object
            assert not got.flags.writeable
            assert got.tolist() == want.tolist()
            assert all(type(x) is int for x in got.flat)
        assert all(type(x) is int for x in last)


def test_elimination_division_is_exact_or_raises():
    assert matrix._exact_quotients([6, -9, 0], 3) == [2, -3, 0]
    # 4 and -4 leave remainders 1 and 2 under floor division, which do not
    # cancel as the truncated remainders 1 and -1 would
    for xs in ([4, -4], [1], [6, 7], [-1, 1, 3]):
        with pytest.raises(ArithmeticError, match="inexact division"):
            matrix._exact_quotients(xs, 3)


@st.composite
def kernel_operands(draw, max_dim=6):
    """Two m x n Gaussian-rational matrices with m, n in 0..max_dim, mixed
    denominators and some zero rows and columns, with a scalar, submatrix
    bounds and a column selection. The second matrix is built by a kernel,
    so it holds only its integer form until its entries are read."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))

    def grid():
        rows = draw(st.lists(st.lists(GAUSSIAN, min_size=n, max_size=n),
                             min_size=m, max_size=m))
        for i in draw(st.sets(st.integers(0, m - 1), max_size=2)) if m else ():
            rows[i] = [gaussian(0)] * n
        for j in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
            for row in rows:
                row[j] = gaussian(0)
        return Matrix(m, n, EXACT, rows)

    a, b = grid(), grid().ct.ct
    r0, r1 = sorted(draw(st.integers(0, m)) for _ in range(2))
    c0, c1 = sorted(draw(st.integers(0, n)) for _ in range(2))
    cols = draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
    return a, b, draw(GAUSSIAN), (r0, r1, c0, c1), cols


def listed_form(m):
    re, im, d = m.integer_form
    return re.tolist(), im.tolist(), d


def assert_canonical(m):
    """m's integer form has int numerators over d > 0, the lcm of the
    denominators of its entries, which shares no factor with all of them."""
    re, im, d = m.integer_form
    nums = list(re.flat) + list(im.flat)
    assert all(type(x) is int for x in nums) and type(d) is int
    assert d > 0 and math.gcd(d, *nums) == 1
    assert d == math.lcm(*(q.denominator for v in m.entries.flat for q in (v.re, v.im)))
    assert (re.shape, im.shape) == (m.shape, m.shape)


@settings(max_examples=150, deadline=None)
@given(kernel_operands())
def test_exact_kernels_match_object_array_references(operands):
    a, b, s, bounds, cols = operands
    checked = reference_kernels(a, b, s, *bounds, cols)
    checked["product"] = (a @ b.ct, reference_product(a, b.ct))
    checked["product of kernel results"] = (
        (a - b) @ (a + b).ct, reference_product(a - b, (a + b).ct))
    red, _ = exact_rref(vstack(a, b))
    checked["rref"] = (red, reference_rref(vstack(a, b))[0])
    for name, (got, ref) in checked.items():
        assert got.entries.tolist() == ref, name
        assert_canonical(got)
    assert_canonical(a)
    assert_canonical(b)
    x = to_sympy(a)
    gram = from_sympy(x * adjoint(x))
    assert a.frobenius_sq() == sum((row[i].re for i, row in enumerate(gram)), Fraction(0))
    assert a.is_zero() == (not any(a.entries.flat))


@settings(max_examples=100, deadline=None)
@given(kernel_operands())
def test_equality_and_hash_agree_across_construction_routes(operands):
    a, b, _, _, _ = operands
    m, n = a.shape
    routes = {
        "constructor": Matrix(m, n, EXACT, a.entries.tolist()),
        "product": Matrix.identity(m) @ a @ Matrix.identity(n),
        "json": matrix_from_json(matrix_to_json(a)),
        "submatrix of a stack": hstack(b, a, b).submatrix(0, m, n, 2 * n),
        "sum": (a + b) - b,
        "scaled": a.scale(3).scale("1/3"),
    }
    form = listed_form(a)
    for name, m2 in routes.items():
        assert m2 == a and a == m2, name
        assert hash(m2) == hash(a), name
        assert listed_form(m2) == form, name
    same = a.entries.tolist() == b.entries.tolist()
    assert (a == b) == same and (a != b) == (not same)
    assert not same or hash(a) == hash(b)


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
    pytest.param('{"rows": 2, "cols": 2, "backend": "exact", "entries": '
                 '[[["0", "0"], ["0", "0"]], [["0", "0"]]]}', id="short-row"),
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
    '{"rows": 0, "cols": false, "backend": "float", "entries": []}',
    pytest.param('{"rows": 1, "cols": 1, "backend": "float", "entries": [[[1%s, 0]]]}'
                 % ("0" * 5000), id="int-past-the-digit-limit"),
    # Fraction would build 10**exponent: seconds of work at 1e-10000000
    pytest.param('{"rows": 1, "cols": 1, "backend": "exact", '
                 '"entries": [[["1e-4301", "0"]]]}', id="exponent-past-the-digit-limit"),
    pytest.param('{"rows": 1, "cols": 1, "backend": "exact", '
                 '"entries": [[["0", " -2.5E+4_301 "]]]}', id="signed-underscored-exponent"),
    pytest.param('{"rows": 1, "cols": 1, "backend": "exact", '
                 '"entries": [[["1e1000000", "0"]]]}', id="exponent-of-a-million"),
])
def test_malformed_json_rejected(payload):
    with pytest.raises(MatOrderError):
        matrix_from_json(payload)


def _exact_entry(re: str) -> str:
    return json.dumps({"rows": 1, "cols": 1, "backend": "exact",
                       "entries": [[[re, "0"]]]})


def test_exponent_bound_with_the_digit_limit_unset():
    # a limit of 0 means none to int(); Fraction would still build 10**exponent
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(MatOrderError, match="decimal exponent"):
            matrix_from_json(_exact_entry(
                "1e%d" % (sys.int_info.default_max_str_digits + 1)))
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("text", [
    "1e-4300", " 1E+4_300 ", "-2.5e-4300\n", "3/4", "-0.125", "5e-3", "1_000e2"])
def test_exact_entry_within_the_exponent_bound_parses_as_fraction(text):
    assert matrix_from_json(_exact_entry(text)) == Matrix.exact([[Fraction(text)]])


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
    # the kernels that only rearrange checked entries, which they do not
    # check again, give numpy's own rearrangement bit for bit
    rng = np.random.default_rng(5)
    x = _random_complex(rng, 3, 4)
    x[0, 0], x[1, 2] = 0.0, complex(-0.0, 0.0)
    y = _random_complex(rng, 3, 4)
    a, b = Matrix.from_ndarray(x), Matrix.from_ndarray(y)
    for m, want in [
        (a.ct, x.conj().T),
        (a.submatrix(1, 3, 0, 2), x[1:3, 0:2]),
        (a.columns([2, 0, 2]), x[:, [2, 0, 2]]),
        (hstack(a, b), np.hstack([x, y])),
        (vstack(a, b), np.vstack([x, y])),
        (block([[a, b], [b, a]]), np.block([[x, y], [y, x]])),
        (-a, -x),
        (Matrix.zeros(2, 3, FLOAT), np.zeros((2, 3), dtype=complex)),
        (Matrix.identity(3, FLOAT), np.eye(3, dtype=complex)),
    ]:
        assert not m.entries.flags.writeable
        assert m.entries.dtype == want.dtype and m.shape == want.shape
        assert m.entries.tobytes() == want.tobytes()


def test_signed_zeros_are_equal_and_hash_alike():
    pos, neg = Matrix.from_complex([[0.0]]), Matrix.from_complex([[-0.0]])
    assert pos == neg
    assert hash(pos) == hash(neg)
    assert str((-pos)[0, 0]) == "(-0-0j)" and -pos == pos


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   complex(0.0, float("-inf")),
                                   complex(1.0, float("nan")),
                                   complex(1.0, float("inf"))])
def test_non_finite_float_entries_rejected(value):
    with pytest.raises(DomainError):
        Matrix.from_complex([[value]])
    with pytest.raises(DomainError):
        Matrix.from_ndarray(np.array([[1.0, value]]))
    with pytest.raises(DomainError):
        Matrix.from_ndarray(np.array([[1.0, value]], dtype=object))
    z = complex(value)
    with pytest.raises(DomainError):
        matrix_from_dict({"rows": 1, "cols": 1, "backend": FLOAT,
                          "entries": [[[z.real, z.imag]]]})


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)],
                         ids=["0-by-3", "3-by-0", "0-by-0"])
def test_empty_float_arrays_pass_the_finiteness_check(shape):
    # no entry, so the count of finite entries equals the size, 0
    rows, cols = shape
    m = Matrix.from_ndarray(np.zeros(shape))
    assert m.shape == shape and not m.entries.flags.writeable
    assert Matrix(rows, cols, FLOAT, np.zeros(shape)).shape == shape
    assert (m + m).shape == (m - m).shape == m.scale(2).shape == shape
    assert (m @ Matrix.zeros(cols, 2, FLOAT)).shape == (rows, 2)
    assert (Matrix.zeros(2, rows, FLOAT) @ m).shape == (2, cols)
    assert matrices_equal(m, Matrix.zeros(rows, cols, FLOAT))


@pytest.mark.parametrize("make", [
    lambda v: Matrix.from_complex([[v]]),
    lambda v: Matrix(1, 1, FLOAT, [[v]]),
    lambda v: Matrix.from_ndarray(np.array([[v]], dtype=object)),
    lambda v: Matrix.from_ndarray([[1.0, v]]),
    lambda v: Matrix.identity(1, FLOAT).scale(v),
    lambda v: Matrix.from_complex([[gaussian(v)]]),
], ids=["from_complex", "constructor", "from_ndarray", "from_nested", "scale",
        "gaussian"])
def test_float_entry_beyond_the_float_range_is_a_domain_error(make):
    # complex(10**400) once ended in a bare OverflowError
    with pytest.raises(DomainError, match="does not fit a double"):
        make(10 ** 400)


FLOAT_MAKERS = [
    lambda v: Matrix.from_complex([[v]]),
    lambda v: Matrix.identity(1, FLOAT).scale(v),
    lambda v: Matrix(1, 1, FLOAT, [[v]]),
    lambda v: Matrix.from_ndarray(np.array([[v]])),
]
FLOAT_MAKER_IDS = ["from_complex", "scale", "constructor", "from_ndarray"]


@pytest.mark.parametrize("make", FLOAT_MAKERS, ids=FLOAT_MAKER_IDS)
@pytest.mark.parametrize("value", [np.int64(1), np.float32(1.5), np.complex64(1 + 1j),
                                   Fraction(1, 3)], ids=repr)
def test_every_float_constructor_takes_any_number(make, value):
    assert make(value)[0, 0] == complex(value)


@pytest.mark.parametrize("make", FLOAT_MAKERS, ids=FLOAT_MAKER_IDS)
@pytest.mark.parametrize("value", ["1", "1+2j", None], ids=repr)
def test_every_float_constructor_refuses_what_is_not_a_number(make, value):
    with pytest.raises(MatOrderError, match="cannot place .* in a float matrix"):
        make(value)


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


def test_compare_refuses_a_non_finite_difference(monkeypatch):
    # |a - b| <= |a| + |b|, so the bound overflows first; held finite, the
    # difference overflows as the subtraction kernel's does
    monkeypatch.setattr(matrix, "tolerance_bound", lambda tol, *norms: 1.0)
    a, b = Matrix.from_complex([[1e308]]), Matrix.from_complex([[-1e308]])
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(DomainError, match="float entries must be finite"):
        matrices_equal(a, b)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.mark.parametrize("view", [
    lambda x: x, lambda x: x.T, lambda x: x.conj().T, lambda x: x[1:, ::2],
    lambda x: x.T[::-1, 1:], lambda x: x[:0], lambda x: x[:, :0].T,
], ids=["c-order", "transposed", "adjoint", "sliced", "transposed-sliced",
        "0-by-n", "n-by-0"])
def test_float_norm_is_numpys_norm_bit_for_bit(view):
    rng = np.random.default_rng(7)
    for rows in range(1, 9):
        for cols in range(1, 9):
            arr = view(_random_complex(rng, rows, cols) * 10.0 ** rng.integers(-3, 4))
            assert float_norm(arr).hex() == float(np.linalg.norm(arr)).hex()


def test_overflowing_float_kernel_is_a_domain_error():
    big = Matrix.from_complex([[1e308, 0.0]])
    neg = Matrix.from_complex([[-1e308, 0.0]])
    finite = "float entries must be finite"
    for kernel, warning in [(lambda: big.ct @ big, "overflow encountered in matmul"),
                            (lambda: big + big, "overflow encountered in add"),
                            (lambda: big - neg, "overflow encountered in subtract"),
                            (lambda: big.scale(10), "overflow encountered in multiply")]:
        with pytest.warns(RuntimeWarning, match=warning), \
                pytest.raises(DomainError, match=finite):
            kernel()
    # a numpy result that the library wraps is checked as a kernel's is:
    # 1 / 1e-310 overflows in pinv's divide and fills its product with NaN
    tiny = Matrix.from_complex([[1e-310]])
    with pytest.warns(RuntimeWarning) as record, pytest.raises(DomainError, match=finite):
        moore_penrose(tiny)
    messages = [str(w.message) for w in record]
    assert any("in divide" in m for m in messages), messages
    assert any("in matmul" in m for m in messages), messages
    # Python's 1.0 / 1e-310 is inf without a warning
    form = hartwig_spindelbock(tiny)
    with pytest.raises(DomainError, match=finite):
        form.sigma_inv()


def test_repr_and_hash_usable():
    a = Matrix.exact([[1, 0], [0, 1]])
    assert "2x2 exact" in repr(a)
    assert len({a, Matrix.identity(2)}) == 1
