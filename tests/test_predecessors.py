"""Predecessor constructors, parameter recovery, and the closed-form criteria."""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import (EXACT, FLOAT, RANK_FACTOR, BackendError, DomainError,
                      Matrix, ShapeError, build_predecessor, dagger_isotone,
                      diamond_predecessor, hartwig_spindelbock, is_bidagger,
                      leq_diamond, matrices_equal, moore_penrose, pinv,
                      predecessor_mp, rank, random_idempotent,
                      recover_idempotent, reverse_order_law)
from matorder.orders import diamond_verdict
from matorder.sampling import random_base_matrix

TOL = 1e-9
DIAG = Matrix.from_complex([[2, 0], [0, 1]])
T_SHEAR = Matrix.from_complex([[1, 1], [0, 0]])


def test_random_idempotent_is_idempotent_of_rank_k():
    for r, k in ((1, 0), (1, 1), (3, 1), (3, 2), (4, 4)):
        t = random_idempotent(r, k, random.Random(5))
        assert t.shape == (r, r)
        assert matrices_equal(t @ t, t, TOL)
        assert rank(t) == k


def test_random_idempotent_determinism_and_edges():
    a = random_idempotent(3, 2, 42)
    b = random_idempotent(3, 2, 42)
    assert a == b
    assert random_idempotent(3, 0, 1) == Matrix.zeros(3, 3, FLOAT)
    assert random_idempotent(3, 3, 1) == Matrix.identity(3, FLOAT)
    exact_t = random_idempotent(3, 2, 7, backend=EXACT)
    assert exact_t @ exact_t == exact_t
    with pytest.raises(DomainError):
        random_idempotent(2, 3)
    with pytest.raises(DomainError):
        random_idempotent(2, -1)


def test_predecessor_frozen_oracle():
    a = diamond_predecessor(DIAG, T_SHEAR)
    assert matrices_equal(a, Matrix.from_complex([[1, 0], [1, 0]]), TOL)
    ad = predecessor_mp(DIAG, T_SHEAR)
    assert matrices_equal(ad, Matrix.from_complex([[0.5, 0.5], [0, 0]]), TOL)
    assert matrices_equal(ad, moore_penrose(a), TOL)
    assert leq_diamond(a, DIAG).verdict


def test_predecessor_parameter_extremes():
    eye = Matrix.identity(2, FLOAT)
    assert matrices_equal(diamond_predecessor(DIAG, eye), DIAG, TOL)
    zero = Matrix.zeros(2, 2, FLOAT)
    assert matrices_equal(diamond_predecessor(DIAG, zero), zero, TOL)
    assert matrices_equal(predecessor_mp(DIAG, zero), zero, TOL)


def test_recover_round_trips():
    hs = hartwig_spindelbock(DIAG)
    assert matrices_equal(recover_idempotent(DIAG, hs),
                          Matrix.identity(2, FLOAT), TOL)
    assert matrices_equal(recover_idempotent(Matrix.zeros(2, 2, FLOAT), hs),
                          Matrix.zeros(2, 2, FLOAT), TOL)
    a = diamond_predecessor(DIAG, T_SHEAR)
    assert matrices_equal(recover_idempotent(a, hs), T_SHEAR, 1e-8)


def test_recover_rejects_outsiders():
    hs = hartwig_spindelbock(DIAG)
    with pytest.raises(DomainError):
        recover_idempotent(Matrix.from_complex([[0, 0], [1, 0]]), hs)
    with pytest.raises(ShapeError):
        recover_idempotent(Matrix.zeros(3, 3, FLOAT), hs)
    with pytest.raises(BackendError):
        recover_idempotent(Matrix.exact([[1, 0], [0, 0]]), hs)


def test_recover_rejects_weight_below_the_top_block_row():
    hs = hartwig_spindelbock(Matrix.from_complex([[2, 0], [0, 0]]))
    with pytest.raises(DomainError, match="weight outside the top block row"):
        recover_idempotent(Matrix.from_complex([[0, 0], [0, 1]]), hs)


def test_recover_rejects_a_top_row_off_the_family():
    # [a11 a12] = s [k l] + e with e orthogonal to the row [k l]: the core
    # a11 k* + a12 l* is s, so t = 1 is idempotent, yet (s^-1 t)+ [k l]
    # misses e
    hs = hartwig_spindelbock(Matrix.from_complex([[2, 0], [0, 0]]))
    assert (hs.n, hs.r) == (2, 1)
    k, l = hs.k.to_ndarray()[0, 0], hs.l.to_ndarray()[0, 0]
    s = hs.sigma[0]
    top = [s * k - l.conjugate(), s * l + k.conjugate()]
    a = hs.u @ Matrix.from_complex([top, [0, 0]]) @ hs.u.ct
    with pytest.raises(DomainError, match="not in the predecessor family"):
        recover_idempotent(a, hs)


def test_idempotent_parameter_must_be_float():
    with pytest.raises(BackendError, match="idempotent parameter"):
        diamond_predecessor(DIAG, Matrix.identity(2, EXACT))
    with pytest.raises(BackendError, match="idempotent parameter"):
        build_predecessor(DIAG, Matrix.exact([[1, 1], [0, 0]]))


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_bad_tolerance_is_reported_as_such(tol):
    hs = hartwig_spindelbock(DIAG)
    a = diamond_predecessor(DIAG, T_SHEAR)
    with pytest.raises(DomainError, match="tolerance bound"):
        recover_idempotent(a, hs, tol)
    with pytest.raises(DomainError, match="tolerance bound"):
        dagger_isotone(DIAG, T_SHEAR, tol)


def test_random_family_round_trip():
    rng = random.Random(101)
    for _ in range(8):
        n = rng.randint(2, 5)
        r = rng.randint(1, n)
        b = random_base_matrix(n, r, rng)
        t = random_idempotent(r, rng.randint(0, r), rng)
        bundle = build_predecessor(b, t)
        assert bundle.base is b and bundle.idempotent is t
        assert leq_diamond(bundle.predecessor, b).verdict
        assert matrices_equal(bundle.predecessor_pinv,
                              moore_penrose(bundle.predecessor), TOL)
        back = recover_idempotent(bundle.predecessor, bundle.hs)
        assert matrices_equal(back, t, 1e-8)


def test_constructor_input_validation():
    with pytest.raises(BackendError):
        diamond_predecessor(Matrix.exact([[2, 0], [0, 1]]), T_SHEAR)
    with pytest.raises(ShapeError):
        diamond_predecessor(Matrix.zeros(2, 3, FLOAT), T_SHEAR)
    with pytest.raises(ShapeError):
        diamond_predecessor(DIAG, Matrix.identity(3, FLOAT))
    with pytest.raises(DomainError):
        diamond_predecessor(DIAG, Matrix.from_complex([[1, 1], [1, 1]]))
    with pytest.raises(BackendError):
        predecessor_mp(Matrix.exact([[1]]), Matrix.exact([[1]]))


def test_reverse_order_law_agreeing_pair():
    a = diamond_predecessor(DIAG, T_SHEAR)
    direct, criterion = reverse_order_law(a, DIAG)
    assert (direct, criterion) == (True, True)


def test_reverse_order_law_failing_pair():
    a = Matrix.from_complex([[0, 1], [0, 0]])
    b = Matrix.from_complex([[1, 1], [0, 1]])
    direct, criterion = reverse_order_law(a, b)
    assert (direct, criterion) == (False, False)
    lhs = moore_penrose(a @ b)
    rhs = moore_penrose(b) @ moore_penrose(a)
    assert matrices_equal(lhs, Matrix.from_complex([[0, 0], [1, 0]]), TOL)
    assert not matrices_equal(lhs, rhs, TOL)


def test_reverse_order_law_needs_diamond():
    a = Matrix.from_complex([[0, 1], [0, 0]])
    b = Matrix.from_complex([[1, 0], [-1, 1]])
    with pytest.raises(DomainError):
        reverse_order_law(a, b)


def test_reverse_order_law_input_validation():
    # the base's block form is taken before any order check
    with pytest.raises(BackendError):
        reverse_order_law(Matrix.exact([[0, 1], [0, 0]]),
                          Matrix.exact([[2, 0], [0, 1]]))
    with pytest.raises(ShapeError):
        reverse_order_law(Matrix.zeros(2, 3, FLOAT), Matrix.zeros(2, 3, FLOAT))
    with pytest.raises(ShapeError):
        reverse_order_law(Matrix.zeros(3, 3, FLOAT), DIAG)
    with pytest.raises(BackendError):
        reverse_order_law(Matrix.exact([[0, 1], [0, 0]]), DIAG)


def reverse_order_law_recomputing(a, b, tol=TOL, rank_factor=RANK_FACTOR):
    """reverse_order_law as it was before it reused recover_idempotent's
    (s^-1 t)+: the criterion computes that pseudoinverse again."""
    hs = hartwig_spindelbock(b, rank_factor)
    if not diamond_verdict(a, b, tol, rank_factor):
        raise DomainError("pair is not diamond-comparable")
    t = recover_idempotent(a, hs, tol, rank_factor)
    direct = matrices_equal(
        moore_penrose(a @ b, rank_factor),
        moore_penrose(b, rank_factor) @ moore_penrose(a, rank_factor), tol)
    si = hs.sigma_inv()
    lhs = moore_penrose(moore_penrose(si @ t, rank_factor) @ hs.k @ hs.sigma_diag(),
                        rank_factor)
    rhs = si @ hs.k.ct @ si @ t
    return direct, matrices_equal(lhs, rhs, tol)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_reverse_order_law_takes_one_pseudoinverse_less(seed, n):
    rng = random.Random(seed)
    r = rng.randint(1, n)
    b = random_base_matrix(n, r, rng)
    a = diamond_predecessor(b, random_idempotent(r, rng.randint(0, r), rng))
    outcomes, calls = [], []
    for law in (reverse_order_law, reverse_order_law_recomputing):
        # fresh copies, so that no pseudoinverse is memoized on them yet
        fresh = [Matrix.from_ndarray(x.to_ndarray()) for x in (a, b)]
        with patch.object(pinv, "_float_pinv", wraps=pinv._float_pinv) as spy:
            try:
                outcomes.append(law(*fresh))
            except DomainError as exc:
                outcomes.append(str(exc))
        calls.append(spy.call_count)
    assert outcomes[0] == outcomes[1]
    saved = 1 if isinstance(outcomes[0], tuple) else 0
    assert calls[0] == calls[1] - saved


def test_bidagger_cases():
    assert is_bidagger(Matrix.from_complex([[0, 1], [0, 0]])) == (True, True)
    assert is_bidagger(DIAG) == (True, True)
    assert is_bidagger(Matrix.from_complex([[1, 1], [0, 0]])) == (False, False)
    with pytest.raises(DomainError):
        is_bidagger(Matrix.zeros(2, 2, FLOAT))


def test_dagger_isotone_cases():
    assert dagger_isotone(DIAG, T_SHEAR) == (False, False)
    t_diag = Matrix.from_complex([[1, 0], [0, 0]])
    assert dagger_isotone(DIAG, t_diag) == (True, True)
    assert dagger_isotone(DIAG, Matrix.identity(2, FLOAT)) == (True, True)


def test_criteria_agree_on_random_instances():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(2, 4)
        r = rng.randint(1, n)
        b = random_base_matrix(n, r, rng)
        t = random_idempotent(r, rng.randint(0, r), rng)
        a = diamond_predecessor(b, t)
        rd, rc = reverse_order_law(a, b)
        assert rd == rc
        bd, bc = is_bidagger(b)
        assert bd == bc
        dd, dc = dagger_isotone(b, t)
        assert dd == dc
