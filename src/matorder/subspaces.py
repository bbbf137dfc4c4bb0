"""Column spaces and subspace comparisons.

A subspace of C^m is the column space of any m-row Matrix; its columns
need not be independent. ``column_space`` returns a basis matrix whose
columns are. On the exact backend, inclusion and intersection are decided
against a left-null basis X of one side T, whose columns span null(T*): a
vector lies in col(T) exactly when it is orthogonal to every column of X
(Ben-Israel and Greville, *Generalized Inverses*, 2nd ed., 2003, ch. 1).
X is read off T*'s kept elimination and kept on T, so the calls that
share a matrix share X. On the float backend both reduce to rank
computations on the stacked ``column_space`` bases of the two sides.
"""

from __future__ import annotations

import numpy as np

from .errors import BackendError, ShapeError
from .matrix import (EXACT, RANK_FACTOR, Matrix, _elimination, _kept,
                     float_svd, hstack, memoized, rank)


@memoized
def column_space(a: Matrix, rank_factor: float = RANK_FACTOR) -> Matrix:
    """A basis matrix of the column space of a, with independent columns.

    Exact: the pivot columns of a. Float: left singular vectors kept by
    the rank cutoff, so the returned basis is orthonormal.
    """
    if a.backend == EXACT:
        return a.columns(_elimination(a)[3])
    u, _, _, r = float_svd(a, rank_factor)
    return Matrix.from_ndarray(u[:, :r])


def _check_comparable(s: Matrix, t: Matrix):
    if s.rows != t.rows:
        raise ShapeError("subspaces live in different ambient spaces")
    if s.backend != t.backend:
        raise BackendError("cannot compare subspaces across backends")


def _left_null(t: Matrix, key: str) -> Matrix:
    """A Gaussian-integer matrix whose columns span null(t*), read off the
    kept elimination of t*; kept on t under ``key``.

    The final rows of that elimination are the reduced row echelon form of
    t* times ``last``, so for each free column f the vector with x[f] =
    ``last``, x[p] = -row[f] at the pivot p of each row, and 0 elsewhere
    lies in null(t*); together they span it.
    """
    re, im, (lr, li), pivots = _elimination(t.ct)
    free = [c for c in range(t.rows) if c not in pivots]
    xr = np.zeros((t.rows, len(free)), dtype=object)
    xi = np.zeros((t.rows, len(free)), dtype=object)
    xr[list(pivots)] = -re[:len(pivots), free]
    xi[list(pivots)] = -im[:len(pivots), free]
    xr[free, range(len(free))] = lr
    xi[free, range(len(free))] = li
    return Matrix._from_ints(xr, xi, 1)


def subspace_leq(s: Matrix, t: Matrix,
                 rank_factor: float = RANK_FACTOR) -> bool:
    """Whether col(s) is contained in col(t), for any matrices s and t
    with the same number of rows.

    Exact: col(s) ⊆ col(t) exactly when s* X = 0 for the kept left-null
    basis X of t. Float: when ``subspace_intersection_dim(t, s)``, read
    off the rank of the stacked bases, is the dimension of col(s). The
    verdict is kept on s under ``("leq", rank_factor)`` for t, so a later
    call on the same pair reads it; a call on s with another t replaces it.
    """
    _check_comparable(s, t)
    return _kept(s, ("leq", rank_factor),
                 lambda s, key: _leq(s, t, rank_factor), owner=t)


def _leq(s: Matrix, t: Matrix, rank_factor: float) -> bool:
    if s.backend == EXACT:
        return (s.ct @ _kept(t, "left_null", _left_null)).is_zero()
    return (subspace_intersection_dim(t, s, rank_factor)
            == column_space(s, rank_factor).cols)


def subspace_intersection_dim(s: Matrix, t: Matrix,
                              rank_factor: float = RANK_FACTOR) -> int:
    """dim(col(s) ∩ col(t)), for any matrices s and t with the same number
    of rows.

    Exact: rank(t) - rank(t* X), for the kept left-null basis X of s, so
    the side that recurs goes first. Float: with S and T the
    ``column_space`` bases of s and t, S.cols + T.cols - rank([S | T]).
    """
    _check_comparable(s, t)
    if s.backend == EXACT:
        return rank(t) - rank(t.ct @ _kept(s, "left_null", _left_null))
    s, t = column_space(s, rank_factor), column_space(t, rank_factor)
    if s.cols == 0 or t.cols == 0:
        return 0
    return s.cols + t.cols - rank(hstack(s, t), rank_factor)


def range_sum_check(a: Matrix, b: Matrix, rank_factor: float = RANK_FACTOR) -> bool:
    """Whether the column space of a + b equals col(a) + col(b).

    The sum's range always sits inside col(a) + col(b); equality is a
    rank comparison against the stacked matrix [a | b].
    """
    a._check_same_shape(b, "range_sum_check")
    return rank(a + b, rank_factor) == rank(hstack(a, b), rank_factor)
