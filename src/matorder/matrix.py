"""Dense complex matrices over an exact rational or floating backend.

A Matrix is an immutable value: fixed shape, one backend for all entries.
The exact backend stores GaussianRational entries and supports decidable
equality and rank. The float backend stores complex128-compatible entries;
comparisons there go through ``matrices_equal`` with a relative Frobenius
tolerance, and rank goes through singular values with a spectral cutoff.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BackendError, DomainError, MatOrderError, ShapeError
from .scalars import GR_ONE, GR_ZERO, GaussianRational, as_rational, rational_str

EXACT = "exact"
FLOAT = "float"

EQ_TOL = 1e-9
RANK_FACTOR = 64.0
EPS = 2.0 ** -52


def _coerce_exact(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, tuple) and len(value) == 2:
        return GaussianRational(value[0], value[1])
    if isinstance(value, (int, str, Fraction)):
        return GaussianRational(value)
    raise MatOrderError("cannot place %r in an exact matrix" % (value,))


def _coerce_float(value) -> complex:
    if isinstance(value, GaussianRational):
        return complex(value)
    if isinstance(value, (int, float, complex)):
        return complex(value)
    raise MatOrderError("cannot place %r in a float matrix" % (value,))


class Matrix:
    """Immutable dense m-by-n complex matrix tied to one scalar backend."""

    __slots__ = ("rows", "cols", "backend", "entries")

    def __init__(self, rows: int, cols: int, backend: str, entries):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimension")
        if backend not in (EXACT, FLOAT):
            raise BackendError("unknown backend %r" % backend)
        ent = tuple(tuple(row) for row in entries)
        if len(ent) != rows or any(len(row) != cols for row in ent):
            raise ShapeError("entry grid does not match declared shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, data: Sequence[Sequence]) -> "Matrix":
        rows = [[_coerce_exact(v) for v in row] for row in data]
        m = len(rows)
        n = len(rows[0]) if m else 0
        return cls(m, n, EXACT, rows)

    @classmethod
    def from_complex(cls, data: Sequence[Sequence]) -> "Matrix":
        rows = [[_coerce_float(v) for v in row] for row in data]
        m = len(rows)
        n = len(rows[0]) if m else 0
        return cls(m, n, FLOAT, rows)

    @classmethod
    def zeros(cls, rows: int, cols: int, backend: str = EXACT) -> "Matrix":
        z = GR_ZERO if backend == EXACT else 0j
        return cls(rows, cols, backend, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, backend: str = EXACT) -> "Matrix":
        z = GR_ZERO if backend == EXACT else 0j
        o = GR_ONE if backend == EXACT else 1 + 0j
        return cls(n, n, backend, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_ndarray(cls, arr) -> "Matrix":
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ShapeError("expected a 2-d array")
        return cls(a.shape[0], a.shape[1], FLOAT, [[complex(v) for v in row] for row in a])

    # -- basic views ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def to_ndarray(self):
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, v in enumerate(row):
                out[i, j] = complex(v)
        return out

    def to_float(self) -> "Matrix":
        if self.backend == FLOAT:
            return self
        return Matrix(self.rows, self.cols, FLOAT,
                      [[complex(v) for v in row] for row in self.entries])

    # -- arithmetic ----------------------------------------------------

    def _check_same_backend(self, other: "Matrix"):
        if self.backend != other.backend:
            raise BackendError("mixed backends: %s vs %s" % (self.backend, other.backend))

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_backend(other)
        if self.shape != other.shape:
            raise ShapeError("addition needs equal shapes, got %s and %s" % (self.shape, other.shape))
        return Matrix(self.rows, self.cols, self.backend,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, self.backend,
                      [[-v for v in row] for row in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_backend(other)
        if self.cols != other.rows:
            raise ShapeError("product needs inner dims to agree, got %s and %s" % (self.shape, other.shape))
        zero = GR_ZERO if self.backend == EXACT else 0j
        bt = [tuple(col) for col in zip(*other.entries)] if other.entries else []
        if other.cols and not bt:
            bt = [()] * other.cols
        out = []
        for arow in self.entries:
            orow = []
            for j in range(other.cols):
                acc = zero
                bcol = bt[j]
                for t in range(self.cols):
                    acc = acc + arow[t] * bcol[t]
                orow.append(acc)
            out.append(orow)
        return Matrix(self.rows, other.cols, self.backend, out)

    def scale(self, scalar) -> "Matrix":
        s = _coerce_exact(scalar) if self.backend == EXACT else _coerce_float(scalar)
        return Matrix(self.rows, self.cols, self.backend,
                      [[s * v for v in row] for row in self.entries])

    def conj_transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, self.backend,
                      [[self.entries[i][j].conjugate() for i in range(self.rows)]
                       for j in range(self.cols)])

    @property
    def ct(self) -> "Matrix":
        return self.conj_transpose()

    # -- predicates and norms -------------------------------------------

    def is_zero(self) -> bool:
        return all(not bool(v) for row in self.entries for v in row)

    def frobenius_sq(self):
        """Squared Frobenius norm; exact rational on the exact backend."""
        if self.backend == EXACT:
            total = as_rational(0)
            for row in self.entries:
                for v in row:
                    total = total + v.abs_sq()
            return total
        return sum(abs(v) ** 2 for row in self.entries for v in row)

    def frobenius(self) -> float:
        return math.sqrt(float(self.frobenius_sq()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.backend == other.backend and self.shape == other.shape
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.backend, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(v) for v in row) for row in self.entries)
        return "Matrix(%dx%d %s: %s)" % (self.rows, self.cols, self.backend, body)

    # -- slicing and stacking -------------------------------------------

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ShapeError("submatrix bounds out of range")
        return Matrix(r1 - r0, c1 - c0, self.backend,
                      [row[c0:c1] for row in self.entries[r0:r1]])


def conj_transpose(a: Matrix) -> Matrix:
    return a.conj_transpose()


def hstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ShapeError("need at least one matrix")
    first = mats[0]
    for m in mats[1:]:
        first._check_same_backend(m)
        if m.rows != first.rows:
            raise ShapeError("hstack needs equal row counts")
    rows = first.rows
    out = [[] for _ in range(rows)]
    for m in mats:
        for i in range(rows):
            out[i].extend(m.entries[i])
    return Matrix(rows, sum(m.cols for m in mats), first.backend, out)


def vstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ShapeError("need at least one matrix")
    first = mats[0]
    for m in mats[1:]:
        first._check_same_backend(m)
        if m.cols != first.cols:
            raise ShapeError("vstack needs equal column counts")
    out = []
    for m in mats:
        out.extend(m.entries)
    return Matrix(sum(m.rows for m in mats), first.cols, first.backend, out)


def block(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack(*[hstack(*row) for row in grid])


# -- equality and rank -------------------------------------------------


def matrices_equal(a: Matrix, b: Matrix, tol: float = EQ_TOL) -> bool:
    """Backend-aware equality.

    Exact: entrywise. Float: ``diff <= bound`` from ``float_residual``.
    """
    if a.backend != b.backend:
        raise BackendError("cannot compare across backends")
    if a.shape != b.shape:
        raise ShapeError("cannot compare shapes %s and %s" % (a.shape, b.shape))
    if a.backend == EXACT:
        return a.entries == b.entries
    diff, bound = float_residual(a, b, tol)
    return diff <= bound


def float_residual(a: Matrix, b: Matrix, tol: float) -> tuple:
    """The relative Frobenius rule for float equality as (diff, bound):
    |a - b|_F and tol * (1 + |a|_F + |b|_F); a equals b when diff <= bound."""
    return (a - b).frobenius(), tol * (1.0 + a.frobenius() + b.frobenius())


def is_zero_matrix(a: Matrix, tol: float = EQ_TOL) -> bool:
    if a.backend == EXACT:
        return a.is_zero()
    return a.frobenius() <= tol * (1.0 + a.frobenius())


def _echelon(rows, nrows: int, ncols: int):
    """In-place forward elimination, first-nonzero pivoting; returns pivot cols."""
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


def exact_rref(a: Matrix):
    """Reduced row echelon form of an exact matrix with its pivot columns."""
    if a.backend != EXACT:
        raise BackendError("row reduction is an exact-backend operation")
    rows = [list(row) for row in a.entries]
    pivots = _echelon(rows, a.rows, a.cols)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        pivot = rows[r][c]
        if pivot != GR_ONE:
            rows[r] = [v / pivot for v in rows[r]]
        for i in range(r):
            if bool(rows[i][c]):
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                for j in range(c, a.cols):
                    ri[j] = ri[j] - f * rr[j]
    return Matrix(a.rows, a.cols, EXACT, rows), tuple(pivots)


def rank(a: Matrix, rank_factor: float = RANK_FACTOR) -> int:
    """Rank: pivot count (exact) or singular values above a spectral cutoff (float)."""
    if a.backend == EXACT:
        rows = [list(row) for row in a.entries]
        return len(_echelon(rows, a.rows, a.cols))
    return spectral_rank(np.linalg.svd(a.to_ndarray(), compute_uv=False),
                         a.shape, rank_factor)


def spectral_rank(s, shape: tuple, rank_factor: float, floor: float = 0.0) -> int:
    """The float rank rule: how many singular values s (descending) of a
    matrix of this shape exceed the larger of ``floor`` and the spectral
    cutoff, the longer side times s[0] times rank_factor machine epsilons."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    cutoff = max(shape) * s[0] * EPS * rank_factor
    return int(np.count_nonzero(s > max(cutoff, floor)))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a nonsingular square exact matrix."""
    if a.backend != EXACT:
        raise BackendError("exact inverse needs the exact backend")
    if not a.is_square:
        raise ShapeError("inverse needs a square matrix")
    n = a.rows
    aug = hstack(a, Matrix.identity(n, EXACT))
    red, pivots = exact_rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise DomainError("matrix is singular")
    return red.submatrix(0, n, n, 2 * n)


# -- JSON wire format ---------------------------------------------------


def matrix_to_dict(a: Matrix) -> dict:
    if a.backend == EXACT:
        ent = [[[rational_str(v.re), rational_str(v.im)] for v in row] for row in a.entries]
    else:
        ent = [[[float(v.real), float(v.imag)] for v in row] for row in a.entries]
    return {"rows": a.rows, "cols": a.cols, "backend": a.backend, "entries": ent}


def matrix_from_dict(d: dict) -> Matrix:
    try:
        rows, cols, backend, entries = d["rows"], d["cols"], d["backend"], d["entries"]
    except (KeyError, TypeError) as exc:
        raise MatOrderError("matrix object needs rows/cols/backend/entries") from exc
    if backend not in (EXACT, FLOAT):
        raise MatOrderError("unknown backend %r" % (backend,))
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise MatOrderError("rows/cols must be non-negative integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise MatOrderError("entry grid does not match declared shape")
    grid = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise MatOrderError("entry grid does not match declared shape")
        out = []
        for pair in row:
            if not isinstance(pair, list) or len(pair) != 2:
                raise MatOrderError("each entry must be a [re, im] pair")
            re, im = pair
            if backend == EXACT:
                if not isinstance(re, str) or not isinstance(im, str):
                    raise MatOrderError("exact entries must be 'p/q' strings")
                try:
                    out.append(GaussianRational(re, im))
                except (ValueError, ZeroDivisionError) as exc:
                    raise MatOrderError("bad rational %r" % ((re, im),)) from exc
            else:
                if isinstance(re, bool) or isinstance(im, bool) or \
                        not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                    raise MatOrderError("float entries must be numbers")
                try:
                    z = complex(re, im)
                except OverflowError as exc:
                    raise DomainError("float entry does not fit a double") from exc
                if not cmath.isfinite(z):
                    raise DomainError("float entries must be finite, got %s" % (pair,))
                out.append(z)
        grid.append(out)
    return Matrix(rows, cols, backend, grid)


def matrix_to_json(a: Matrix) -> str:
    return json.dumps(matrix_to_dict(a))


def matrix_from_json(text: str) -> Matrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatOrderError("invalid JSON: %s" % exc) from exc
    return matrix_from_dict(obj)
