"""Pseudoinverses, inner inverses, and orthogonal projectors.

The pseudoinverse route differs per backend. Exact matrices go through a
rank factorization A = C R (pivot columns times reduced row echelon rows)
and MacDuffee's closed form A+ = R* (C* A R*)^-1 C*, one inverse inside
the rational field. Float matrices go through the matrix's ``float_svd``
with the spectral rank cutoff. The four defining residuals of a candidate
pseudoinverse are available as an independent check either way. Every
inner inverse, the space order's samples included, comes from the one
formula a+ + w - (a+ a) w (a a+) in ``_inner_inverse``. a+ and the
projectors a a+ and a+ a are kept on a, one per rank_factor.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import ShapeError
from .matrix import (EQ_TOL, EXACT, RANK_FACTOR, Matrix, exact_rref, float_svd,
                     inverse, matrices_equal, memoized)


@dataclass(frozen=True)
class PenroseResiduals:
    """Frobenius residuals of the four pseudoinverse equations for (a, x).

    r1: |a x a - a|, r2: |x a x - x|, r3: |(a x)* - a x|, r4: |(x a)* - x a|.
    ``satisfied`` holds the per-equation verdicts: exact zero on the exact
    backend, relative tolerance on the float backend.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    satisfied: tuple

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied)

    def to_dict(self) -> dict:
        return dict(asdict(self), satisfied=list(self.satisfied))


def penrose_residuals(a: Matrix, x: Matrix, tol: float = EQ_TOL) -> PenroseResiduals:
    if x.shape != (a.cols, a.rows):
        raise ShapeError("candidate inverse must be %sx%s" % (a.cols, a.rows))
    ax = a @ x
    xa = x @ a
    pairs = [(ax @ a, a), (xa @ x, x), (ax.ct, ax), (xa.ct, xa)]
    norms = []
    okay = []
    for lhs, rhs in pairs:
        norms.append((lhs - rhs).frobenius())
        okay.append(matrices_equal(lhs, rhs, tol))
    return PenroseResiduals(norms[0], norms[1], norms[2], norms[3], tuple(okay))


def _exact_pinv(a: Matrix) -> Matrix:
    red, pivots = exact_rref(a)
    r = len(pivots)
    if r == 0:
        return Matrix.zeros(a.cols, a.rows, EXACT)
    c = a.columns(pivots)
    rr = red.submatrix(0, r, 0, a.cols)
    return rr.ct @ inverse(c.ct @ a @ rr.ct) @ c.ct


def _float_pinv(a: Matrix, rank_factor: float) -> Matrix:
    u, s, vh, r = float_svd(a, rank_factor)
    out = (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T
    return Matrix.from_ndarray(out)


@memoized
def moore_penrose(a: Matrix, rank_factor: float = RANK_FACTOR) -> Matrix:
    """The unique matrix satisfying all four pseudoinverse equations."""
    if a.backend == EXACT:
        return _exact_pinv(a)
    return _float_pinv(a, rank_factor)


def inner_inverse(a: Matrix, w: Matrix) -> Matrix:
    """A {1}-inverse of a: g = a+ + w - a+ a w a a+ satisfies a g a = a.

    Sweeping w over all of C^(n x m) sweeps the whole solution set of
    a g a = a; w = a+ returns a+ itself.
    """
    if w.shape != (a.cols, a.rows):
        raise ShapeError("parameter must be %sx%s" % (a.cols, a.rows))
    return _inner_inverse(a, w, RANK_FACTOR)


def _inner_inverse(a: Matrix, w: Matrix, rank_factor: float) -> Matrix:
    """``inner_inverse(a, w)`` at a caller's rank factor, from a+ and the
    two projectors kept on a at that factor."""
    return (moore_penrose(a, rank_factor) + w
            - projector_rowspace(a, rank_factor) @ w @ projector_range(a, rank_factor))


@memoized
def projector_range(a: Matrix, rank_factor: float = RANK_FACTOR) -> Matrix:
    """Orthogonal projector a a+ onto the column space of a."""
    return a @ moore_penrose(a, rank_factor)


@memoized
def projector_rowspace(a: Matrix, rank_factor: float = RANK_FACTOR) -> Matrix:
    """Orthogonal projector a+ a onto the column space of a*."""
    return moore_penrose(a, rank_factor) @ a


def is_partial_isometry(a: Matrix, tol: float = EQ_TOL) -> bool:
    """Whether a+ coincides with a*, i.e. a maps row space isometrically."""
    return matrices_equal(moore_penrose(a), a.ct, tol)
