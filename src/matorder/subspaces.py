"""Column spaces and subspace comparisons.

A subspace of C^m is carried around as a basis matrix whose columns are
linearly independent spanning vectors. On the exact backend, inclusion and
intersection are decided against a left-null basis X of one side's basis
T, whose columns span null(T*): a vector lies in col(T) exactly when it is
orthogonal to every column of X (Ben-Israel and Greville, *Generalized
Inverses*, 2nd ed., 2003, ch. 1). X is read off T*'s kept elimination and
kept on T, so the calls that share a basis share X. On the float backend
both reduce to rank computations on stacked bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BackendError, ShapeError
from .matrix import (EXACT, RANK_FACTOR, Matrix, _elimination, _read_only,
                     float_svd, hstack, memoized, rank)


@dataclass(frozen=True)
class SubspaceBasis:
    """Basis of a subspace of C^ambient_dim; columns of ``basis`` span it."""

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ShapeError("a basis of %d rows spans no subspace of C^%d"
                             % (self.basis.rows, self.ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    @property
    def backend(self) -> str:
        return self.basis.backend


@memoized
def column_space(a: Matrix, rank_factor: float = RANK_FACTOR) -> SubspaceBasis:
    """Basis of the column space of a.

    Exact: the pivot columns of a. Float: left singular vectors kept by
    the rank cutoff, so the returned basis is orthonormal.
    """
    if a.backend == EXACT:
        return SubspaceBasis(a.rows, a.columns(_elimination(a)[3]))
    u, _, _, r = float_svd(a, rank_factor)
    return SubspaceBasis(a.rows, Matrix.from_ndarray(u[:, :r]))


def _check_comparable(s: SubspaceBasis, t: SubspaceBasis):
    if s.ambient_dim != t.ambient_dim:
        raise ShapeError("subspaces live in different ambient spaces")
    if s.backend != t.backend:
        raise BackendError("cannot compare subspaces across backends")


def _left_null(t: Matrix) -> tuple:
    """``(re, im)``: Gaussian-integer columns re + i·im spanning null(t*),
    read off the kept elimination of t* and kept in ``t._memo``.

    The final rows of that elimination are the reduced row echelon form of
    t* times ``last``, so for each free column f the vector with x[f] =
    ``last``, x[p] = -row[f] at the pivot p of each row, and 0 elsewhere
    lies in null(t*); together they span it.
    """
    memo = t._memo
    if "left_null" not in memo:
        re, im, (lr, li), pivots = _elimination(t.ct)
        free = [c for c in range(t.rows) if c not in pivots]
        xr = np.zeros((t.rows, len(free)), dtype=object)
        xi = np.zeros((t.rows, len(free)), dtype=object)
        xr[list(pivots)] = -re[:len(pivots), free]
        xi[list(pivots)] = -im[:len(pivots), free]
        xr[free, range(len(free))] = lr
        xi[free, range(len(free))] = li
        memo["left_null"] = (_read_only(xr), _read_only(xi))
    return memo["left_null"]


def _adjoint_times(s: Matrix, x: tuple) -> tuple:
    """The numerators ``(re, im)`` of s* x for the Gaussian-integer matrix
    x = (xr, xi): s* x times s's common denominator, which has the same
    zeros and the same rank."""
    sr, si, _ = s.integer_form
    xr, xi = x
    return sr.T @ xr + si.T @ xi, sr.T @ xi - si.T @ xr


def subspace_leq(s: SubspaceBasis, t: SubspaceBasis,
                 rank_factor: float = RANK_FACTOR) -> bool:
    """Whether span(s) is contained in span(t).

    Exact: span(s) ⊆ span(t) exactly when s* X = 0 for the kept left-null
    basis X of t's basis, one product on integer numerators, whatever the
    rank of t's columns. Float: each vector of s lies in span(t) when
    appending s's basis to t's does not raise the rank, so one stacked rank
    computation decides the whole inclusion.
    """
    _check_comparable(s, t)
    if s.dim == 0:
        return True
    if s.backend == EXACT:
        re, im = _adjoint_times(s.basis, _left_null(t.basis))
        return not (re.any() or im.any())
    if t.dim == 0:
        return rank(s.basis, rank_factor) == 0
    stacked = hstack(t.basis, s.basis)
    return rank(stacked, rank_factor) == t.dim


def subspace_intersection_dim(s: SubspaceBasis, t: SubspaceBasis,
                              rank_factor: float = RANK_FACTOR) -> int:
    """dim(span(s) ∩ span(t)).

    Exact: dim t - rank(t* X), for the kept left-null basis X of s's basis,
    so the side that recurs goes first. Float: dim s + dim t - rank([s | t]).
    Both read the dimensions as the column counts of the bases.
    """
    _check_comparable(s, t)
    if s.dim == 0 or t.dim == 0:
        return 0
    if s.backend == EXACT:
        re, im = _adjoint_times(t.basis, _left_null(s.basis))
        return t.dim - rank(Matrix._from_ints(re, im, 1))
    return s.dim + t.dim - rank(hstack(s.basis, t.basis), rank_factor)


def range_sum_check(a: Matrix, b: Matrix, rank_factor: float = RANK_FACTOR) -> bool:
    """Whether the column space of a + b equals col(a) + col(b).

    The sum's range always sits inside col(a) + col(b); equality is a
    rank comparison against the stacked matrix [a | b].
    """
    a._check_same_shape(b, "range_sum_check")
    return rank(a + b, rank_factor) == rank(hstack(a, b), rank_factor)
