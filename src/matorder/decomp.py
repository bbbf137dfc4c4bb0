"""Float-backend matrix decompositions.

Everything here leans on the SVD, so the exact backend is rejected at the
boundary with a BackendError. Each factorization reads the one SVD that
``float_svd`` keeps per matrix, and ``HSForm.predecessor`` keeps the
predecessor it builds on its idempotent, with the form that built it.
Tests compare reconstructions and invariants rather than individual
factor entries, since unitary factors are only determined up to phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BackendError, DomainError, ShapeError
from .matrix import (EQ_TOL, EXACT, FLOAT, RANK_FACTOR, Matrix, _kept,
                     float_svd, hstack, memoized, rank, vstack)
from .orders import _require_diamond
from .pinv import moore_penrose


def _require_float(a: Matrix, what: str):
    if a.backend == EXACT:
        raise BackendError("%s needs the float backend" % what)


def _padded(core: Matrix, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix [[core, 0], [0, 0]], on core's backend."""
    top = hstack(core, Matrix.zeros(core.rows, cols - core.cols, core.backend))
    return vstack(top, Matrix.zeros(rows - core.rows, cols, core.backend))


@dataclass(frozen=True)
class SVDForm:
    """Full singular value decomposition a = u diag(sigma) v*."""

    u: Matrix
    sigma: tuple
    v: Matrix

    def sigma_matrix(self) -> Matrix:
        core = Matrix._wrap(np.diag(np.array(self.sigma, dtype=complex)))
        return _padded(core, self.u.rows, self.v.rows)

    def reconstruct(self) -> Matrix:
        return self.u @ self.sigma_matrix() @ self.v.ct


def svd(a: Matrix) -> SVDForm:
    """Full SVD with singular values in descending order."""
    _require_float(a, "svd")
    u, s, vh, _ = float_svd(a)
    return SVDForm(Matrix._wrap(u), tuple(float(x) for x in s),
                   Matrix._wrap(vh.conj().T))


@dataclass(frozen=True)
class HSForm:
    """Unitary similarity form b = u [[sk, sl], [0, 0]] u* of a square matrix.

    sigma holds the r positive singular values of b (descending), k is
    r x r, l is r x (n - r), and k k* + l l* = I_r. The matrices below b in
    the diamond order, and their pseudoinverses, have closed forms in these
    blocks; see ``predecessor`` and ``predecessor_pinv``.
    """

    u: Matrix
    sigma: tuple
    k: Matrix
    l: Matrix

    @property
    def r(self) -> int:
        return len(self.sigma)

    @property
    def n(self) -> int:
        return self.u.rows

    def sigma_diag(self) -> Matrix:
        return self._sigma_diag

    def sigma_inv(self) -> Matrix:
        return self._sigma_inv

    # built on first use and kept on the form, which is immutable
    @cached_property
    def _sigma_diag(self) -> Matrix:
        return Matrix._wrap(np.diag(np.array(self.sigma, dtype=complex)))

    @cached_property
    def _sigma_inv(self) -> Matrix:
        return Matrix._wrap(
            np.diag(np.array([1.0 / s for s in self.sigma], dtype=complex)))

    def _top_block_row(self, c: Matrix) -> Matrix:
        """The n x n block matrix [[ck, cl], [0, 0]] for an r x r block c."""
        return _padded(hstack(c @ self.k, c @ self.l), self.n, self.n)

    def core(self) -> Matrix:
        """The n x n block matrix [[sk, sl], [0, 0]]."""
        return self._top_block_row(self.sigma_diag())

    def reconstruct(self) -> Matrix:
        return self.u @ self.core() @ self.u.ct

    def predecessor(self, t: Matrix, rank_factor: float = RANK_FACTOR) -> Matrix:
        """The matrix below the reconstructed one in the diamond order that
        the r x r idempotent t determines: u [[ck, cl], [0, 0]] u* with
        c = (s^-1 t)+.

        The result is kept on t with this form as its owner, one per
        rank_factor, so its own memo (pinv, column spaces) is shared by
        every later caller with this form.
        """
        return _kept(t, ("predecessor", rank_factor), self._predecessor,
                     owner=self)

    def _predecessor(self, t: Matrix, key: tuple) -> Matrix:
        c = moore_penrose(self.sigma_inv() @ t, key[1])
        return self.u @ self._top_block_row(c) @ self.u.ct

    def predecessor_pinv(self, t: Matrix) -> Matrix:
        """Closed-form pseudoinverse of ``predecessor(t)``:
        u [[k* s^-1 t, 0], [l* s^-1 t, 0]] u*."""
        sit = self.sigma_inv() @ t
        left = vstack(self.k.ct @ sit, self.l.ct @ sit)
        return self.u @ _padded(left, self.n, self.n) @ self.u.ct

    def pinv(self) -> Matrix:
        """Closed-form pseudoinverse of the reconstructed matrix, which is
        ``predecessor_pinv`` at t = I."""
        return self.predecessor_pinv(Matrix.identity(self.r, FLOAT))


@memoized
def hartwig_spindelbock(b: Matrix, rank_factor: float = RANK_FACTOR) -> HSForm:
    """Factor a square matrix as u [[sk, sl], [0, 0]] u* with u unitary.

    u comes from the SVD b = u1 diag(s) v1*; the top block row is then
    diag(s) times the leading rows of v1* u1, which splits into k and l
    with k k* + l l* = I_r.
    """
    _require_float(b, "hartwig_spindelbock")
    if not b.is_square:
        raise ShapeError("need a square matrix, got %sx%s" % b.shape)
    u1, s, v1h, r = float_svd(b, rank_factor)
    w = v1h @ u1
    k = Matrix._wrap(w[:r, :r])
    l = Matrix._wrap(w[:r, r:])
    return HSForm(Matrix._wrap(u1), tuple(float(x) for x in s[:r]), k, l)


def partitioned_mp(p: Matrix, q: Matrix):
    """Pseudoinverse of m = [[p, q], [0, 0]] from r = p p* + q q*.

    The zero block row pads m to p.cols + q.cols rows when that exceeds the
    row count of [p q], otherwise no padding is added. Returns (m, m_pinv)
    with m_pinv = [[p* r+, 0], [q* r+, 0]].
    """
    if p.rows != q.rows:
        raise ShapeError("blocks need equal row counts")
    if p.backend != q.backend:
        raise BackendError("mixed backends")
    cols = p.cols + q.cols
    rows = max(p.rows, cols)
    rd = moore_penrose(p @ p.ct + q @ q.ct)
    return (_padded(hstack(p, q), rows, cols),
            _padded(vstack(p.ct @ rd, q.ct @ rd), cols, rows))


@dataclass(frozen=True)
class CanonicalPair:
    """Simultaneous block form of a pair a, b with a below b in diamond order.

    With r = rank(b) and t = rank(a), there are unitaries u, v such that

        a = u [[a_core, 0], [0, 0]] v*      (a_core is t x r)
        b = u [[b_core, 0], [0, 0]] v*      (b_core is r x r)

    where a_core a_core* = a_core (top t rows of b_core)* and that common
    Gram matrix is nonsingular.
    """

    u: Matrix
    v: Matrix
    a_core: Matrix
    b_core: Matrix

    @property
    def rank_first(self) -> int:
        return self.a_core.rows

    @property
    def rank_second(self) -> int:
        return self.b_core.rows

    def _embed(self, core: Matrix) -> Matrix:
        return self.u @ _padded(core, self.u.rows, self.v.rows) @ self.v.ct

    def first(self) -> Matrix:
        return self._embed(self.a_core)

    def second(self) -> Matrix:
        return self._embed(self.b_core)

    def gram(self) -> Matrix:
        return self.a_core @ self.a_core.ct

    def cross_gram(self) -> Matrix:
        t = self.rank_first
        return self.a_core @ self.b_core.submatrix(0, t, 0, self.rank_second).ct


def diamond_canonical_pair(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                           rank_factor: float = RANK_FACTOR) -> CanonicalPair:
    """Simultaneous unitary block form for a diamond-comparable pair.

    Requires a below b in the diamond order and a nonzero; the zero matrix
    sits below everything and carries no block data, so it is rejected.
    """
    _require_float(a, "diamond_canonical_pair")
    _require_float(b, "diamond_canonical_pair")
    a._check_same_shape(b, "diamond_canonical_pair")
    if rank(a, rank_factor) == 0:
        raise DomainError("zero lower matrix has no canonical block form")
    _require_diamond(a, b, tol, rank_factor)

    u1, s, v1h, r = float_svd(b, rank_factor)
    d = np.diag(s[:r])

    a_rot = u1.conj().T @ a.to_ndarray() @ v1h.conj().T
    a1 = Matrix._wrap(a_rot[:r, :r])

    hs = hartwig_spindelbock(a1, rank_factor)
    t = hs.r
    u2 = hs.u.to_ndarray()

    u_full = u1.copy()
    u_full[:, :r] = u1[:, :r] @ u2
    v_full = v1h.conj().T.copy()
    v_full[:, :r] = v_full[:, :r] @ u2

    a_core = hs.core().submatrix(0, t, 0, r)
    b_core = Matrix._wrap(u2.conj().T @ d @ u2)
    return CanonicalPair(Matrix._wrap(u_full), Matrix._wrap(v_full),
                         a_core, b_core)
