"""Constructing and analyzing lower neighbors in the diamond order.

For a square b with unitary block form u [[sk, sl], [0, 0]] u* (rank r),
the matrices sitting below b in the diamond order are exactly

    a = u [[(s^-1 t)+ k, (s^-1 t)+ l], [0, 0]] u*

as t ranges over the r x r idempotents, and each such t is unique for its
a. The pseudoinverse of that a has the closed form
u [[k* s^-1 t, 0], [l* s^-1 t, 0]] u*. On top of the constructors this
module evaluates three criteria that reduce questions about (a, b) to the
parameters (sigma, k, t): the reverse order law for pseudoinverses, the
square/pseudoinverse exchange, and monotonicity of the pseudoinverse map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from .decomp import HSForm, hartwig_spindelbock
from .errors import BackendError, DomainError, ShapeError
from .matrix import (EQ_TOL, EXACT, FLOAT, RANK_FACTOR, Matrix, inverse,
                     matrices_equal)
from .orders import leq_diamond
from .pinv import moore_penrose


def random_idempotent(r: int, k: int,
                      rng: Union[random.Random, int, None] = None,
                      backend: str = FLOAT) -> Matrix:
    """Random r x r idempotent of rank k, as x (y x)^-1 y.

    x is r x k and y is k x r with small integer entries, resampled until
    y x is invertible. Built exactly and cast to the requested backend, so
    the idempotent identity holds to working precision.
    """
    if not 0 <= k <= r:
        raise DomainError("rank must satisfy 0 <= k <= r")
    if rng is None or isinstance(rng, int):
        rng = random.Random(rng)
    if k == 0:
        return Matrix.zeros(r, r, backend)
    if k == r:
        return Matrix.identity(r, backend)
    while True:
        x = Matrix.exact([[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)])
        y = Matrix.exact([[rng.randint(-2, 2) for _ in range(r)] for _ in range(k)])
        try:
            mid = inverse(y @ x)
        except DomainError:
            continue
        t = x @ mid @ y
        return t if backend == EXACT else t.to_float()


def _checked_form(b: Matrix, t: Matrix, tol: float, rank_factor: float) -> HSForm:
    """The block form of b, once t is checked to be an idempotent of its size."""
    hs = hartwig_spindelbock(b, rank_factor)
    if t.backend != FLOAT:
        raise BackendError("idempotent parameter must be on the float backend")
    if t.shape != (hs.r, hs.r):
        raise ShapeError("idempotent parameter must be %dx%d" % (hs.r, hs.r))
    if not matrices_equal(t @ t, t, tol):
        raise DomainError("parameter is not idempotent within tolerance")
    return hs


def diamond_predecessor(b: Matrix, t: Matrix, tol: float = EQ_TOL,
                        rank_factor: float = RANK_FACTOR) -> Matrix:
    """The matrix below b in the diamond order determined by idempotent t."""
    return _checked_form(b, t, tol, rank_factor).predecessor(t, rank_factor)


def predecessor_mp(b: Matrix, t: Matrix, tol: float = EQ_TOL,
                   rank_factor: float = RANK_FACTOR) -> Matrix:
    """Closed-form pseudoinverse of ``diamond_predecessor(b, t)``."""
    return _checked_form(b, t, tol, rank_factor).predecessor_pinv(t)


def recover_idempotent(a: Matrix, hs: HSForm, tol: float = EQ_TOL,
                       rank_factor: float = RANK_FACTOR) -> Matrix:
    """Invert ``diamond_predecessor``: find t from a and the form of b.

    Rotating a into the block frame of b must leave only a top block row
    [a11 a12]; then (s^-1 t)+ = a11 k* + a12 l* and t follows by one more
    pseudoinverse. Raises DomainError when a does not fit the family within
    tolerance (residual rows, non-idempotent t, or failed reconstruction).
    """
    if a.backend != FLOAT:
        raise BackendError("recovery needs the float backend")
    n, r = hs.n, hs.r
    if a.shape != (n, n):
        raise ShapeError("matrix does not match the block form's size")
    m = hs.u.ct @ a @ hs.u
    bottom = m.submatrix(r, n, 0, n)
    if bottom.frobenius() > tol * (1.0 + m.frobenius()):
        raise DomainError("matrix has weight outside the top block row")
    a11 = m.submatrix(0, r, 0, r)
    a12 = m.submatrix(0, r, r, n)
    core = a11 @ hs.k.ct + a12 @ hs.l.ct
    t = hs.sigma_diag() @ moore_penrose(core, rank_factor)
    if not matrices_equal(t @ t, t, tol):
        raise DomainError("recovered parameter is not idempotent")
    rebuilt = moore_penrose(hs.sigma_inv() @ t, rank_factor)
    if not (matrices_equal(rebuilt @ hs.k, a11, tol)
            and matrices_equal(rebuilt @ hs.l, a12, tol)):
        raise DomainError("matrix is not in the predecessor family")
    return t


@dataclass(frozen=True)
class PredecessorBundle:
    """A base matrix, its block form, an idempotent, and the induced pair."""

    base: Matrix
    hs: HSForm
    idempotent: Matrix
    predecessor: Matrix
    predecessor_pinv: Matrix


def build_predecessor(b: Matrix, t: Matrix, tol: float = EQ_TOL,
                      rank_factor: float = RANK_FACTOR) -> PredecessorBundle:
    """Bundle ``diamond_predecessor`` with its inputs and closed-form pinv."""
    hs = _checked_form(b, t, tol, rank_factor)
    return PredecessorBundle(b, hs, t, hs.predecessor(t, rank_factor),
                             hs.predecessor_pinv(t))


def reverse_order_law(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                      rank_factor: float = RANK_FACTOR):
    """Whether (a b)+ = b+ a+, directly and via the parameter criterion.

    Needs a below b in the diamond order and a recoverable from b's block
    form. The criterion evaluates ((s^-1 t)+ k s)+ = s^-1 k* s^-1 t; the
    pair of booleans (direct, criterion) is returned and the two agree.
    """
    hs = hartwig_spindelbock(b, rank_factor)
    if not leq_diamond(a, b, tol=tol, rank_factor=rank_factor).verdict:
        raise DomainError("pair is not diamond-comparable")
    t = recover_idempotent(a, hs, tol, rank_factor)
    direct = matrices_equal(
        moore_penrose(a @ b, rank_factor),
        moore_penrose(b, rank_factor) @ moore_penrose(a, rank_factor), tol)
    si = hs.sigma_inv()
    lhs = moore_penrose(moore_penrose(si @ t, rank_factor) @ hs.k @ hs.sigma_diag(),
                        rank_factor)
    rhs = si @ hs.k.ct @ si @ t
    criterion = matrices_equal(lhs, rhs, tol)
    return direct, criterion


def is_bidagger(b: Matrix, tol: float = EQ_TOL,
                rank_factor: float = RANK_FACTOR):
    """Whether (b^2)+ = (b+)^2, directly and via (s k s)+ = s^-1 k* s^-1.

    The zero matrix is rejected: it satisfies the law trivially but has no
    block data for the criterion side.
    """
    hs = hartwig_spindelbock(b, rank_factor)
    if hs.r == 0:
        raise DomainError("zero matrix has no block form to test")
    bd = moore_penrose(b, rank_factor)
    direct = matrices_equal(moore_penrose(b @ b, rank_factor), bd @ bd, tol)
    sd = hs.sigma_diag()
    si = hs.sigma_inv()
    criterion = matrices_equal(moore_penrose(sd @ hs.k @ sd, rank_factor),
                               si @ hs.k.ct @ si, tol)
    return direct, criterion


def dagger_isotone(b: Matrix, t: Matrix, tol: float = EQ_TOL,
                   rank_factor: float = RANK_FACTOR):
    """Whether the pseudoinverse map preserves the diamond relation for the
    pair (a, b) built from t, directly and via t (t* - I) s^-2 t = 0."""
    hs = _checked_form(b, t, tol, rank_factor)
    a = hs.predecessor(t, rank_factor)
    direct = leq_diamond(moore_penrose(a, rank_factor),
                         moore_penrose(b, rank_factor),
                         tol=tol, rank_factor=rank_factor).verdict
    si = hs.sigma_inv()
    crit = t @ (t.ct - Matrix.identity(hs.r, FLOAT)) @ si @ si @ t
    criterion = crit.frobenius() <= tol * (1.0 + t.frobenius() ** 2)
    return direct, criterion
