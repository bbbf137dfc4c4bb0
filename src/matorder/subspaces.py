"""Column spaces and subspace comparisons.

A subspace of C^m is carried around as a basis matrix whose columns are
linearly independent spanning vectors. Inclusion and intersection reduce
to rank computations on stacked bases, so both backends share one code
path on top of ``rank``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BackendError, ShapeError
from .matrix import (EXACT, RANK_FACTOR, Matrix, _gauss_jordan, hstack,
                     memoized, rank, spectral_rank)


@dataclass(frozen=True)
class SubspaceBasis:
    """Basis of a subspace of C^ambient_dim; columns of ``basis`` span it."""

    ambient_dim: int
    basis: Matrix

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
        pivots = _gauss_jordan(a)[3]
        return SubspaceBasis(a.rows, Matrix(a.rows, len(pivots), EXACT,
                                            a.entries[:, pivots]))
    u, s, _ = np.linalg.svd(a.to_ndarray())
    r = spectral_rank(s, a.shape, rank_factor)
    return SubspaceBasis(a.rows, Matrix.from_ndarray(u[:, :r]))


def _check_comparable(s: SubspaceBasis, t: SubspaceBasis):
    if s.ambient_dim != t.ambient_dim:
        raise ShapeError("subspaces live in different ambient spaces")
    if s.backend != t.backend:
        raise BackendError("cannot compare subspaces across backends")


def subspace_leq(s: SubspaceBasis, t: SubspaceBasis,
                 rank_factor: float = RANK_FACTOR) -> bool:
    """Whether span(s) is contained in span(t).

    Each vector of s lies in span(t) exactly when appending s's basis to
    t's does not raise the rank, so one stacked rank computation decides
    the whole inclusion.
    """
    _check_comparable(s, t)
    if s.dim == 0:
        return True
    if t.dim == 0:
        return rank(s.basis, rank_factor) == 0
    stacked = hstack(t.basis, s.basis)
    return rank(stacked, rank_factor) == t.dim


def subspace_intersection_dim(s: SubspaceBasis, t: SubspaceBasis,
                              rank_factor: float = RANK_FACTOR) -> int:
    """dim(span(s) ∩ span(t)) = dim s + dim t - rank([s | t])."""
    _check_comparable(s, t)
    if s.dim == 0 or t.dim == 0:
        return 0
    return s.dim + t.dim - rank(hstack(s.basis, t.basis), rank_factor)


def range_sum_check(a: Matrix, b: Matrix, rank_factor: float = RANK_FACTOR) -> bool:
    """Whether the column space of a + b equals col(a) + col(b).

    The sum's range always sits inside col(a) + col(b); equality is a
    rank comparison against the stacked matrix [a | b].
    """
    a._check_same_shape(b, "range_sum_check")
    return rank(a + b, rank_factor) == rank(hstack(a, b), rank_factor)
