"""Dense complex matrices over an exact rational or floating backend.

A Matrix is an immutable value: fixed shape, one backend for all entries,
held in one read-only 2-d numpy array. The exact backend stores
GaussianRational entries in an object array and supports decidable
equality and rank; its products and eliminations run on the matrix's
integer form, Gaussian-integer numerators over one common denominator.
The float backend stores finite complex128 entries; comparisons there go
through ``matrices_equal`` with a relative Frobenius tolerance, and rank
goes through singular values with a spectral cutoff. Each arithmetic
kernel is one numpy expression on the stored arrays.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BackendError, DomainError, MatOrderError, ShapeError
from .scalars import (GR_ONE, GR_ZERO, GaussianRational, _rat, as_rational,
                      rational_str)

EXACT = "exact"
FLOAT = "float"

EQ_TOL = 1e-9
RANK_FACTOR = 64.0
EPS = 2.0 ** -52

# backend -> (array dtype, zero, one)
_KIND = {EXACT: (object, GR_ZERO, GR_ONE), FLOAT: (complex, 0j, 1 + 0j)}
_ABS_SQ = np.frompyfunc(GaussianRational.abs_sq, 1, 1)
_DIVMOD = np.frompyfunc(divmod, 2, 2)


def _kind(rows: int, cols: int, backend: str) -> tuple:
    if rows < 0 or cols < 0:
        raise ShapeError("negative dimension")
    if backend not in _KIND:
        raise BackendError("unknown backend %r" % backend)
    return _KIND[backend]


def _coerce_exact(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, tuple) and len(value) == 2:
        return GaussianRational(value[0], value[1])
    if isinstance(value, (int, str, Fraction)):
        return GaussianRational(value)
    raise MatOrderError("cannot place %r in an exact matrix" % (value,))


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _gaussian_array(re, im, d: int):
    """The GaussianRational array (re + i·im) / d, for integer arrays re, im."""
    values = [GaussianRational._raw(_rat(x, d), _rat(y, d))
              for x, y in zip(re.flat, im.flat)]
    return np.array(values, dtype=object).reshape(re.shape)


def _coerce_float(value) -> complex:
    if isinstance(value, GaussianRational):
        return complex(value)
    if isinstance(value, (int, float, complex)):
        return complex(value)
    raise MatOrderError("cannot place %r in a float matrix" % (value,))


class Matrix:
    """Immutable dense m-by-n complex matrix tied to one scalar backend.

    ``entries`` is a read-only 2-d ndarray: GaussianRational objects on the
    exact backend, complex128 on the float backend. ``_memo`` holds what
    ``ct``, ``integer_form`` and the ``memoized`` factorizations computed
    on this matrix.
    """

    __slots__ = ("rows", "cols", "backend", "entries", "_memo")

    def __init__(self, rows: int, cols: int, backend: str, entries):
        """Copy ``entries``, a nested sequence or an array, into a new matrix."""
        dtype = _kind(rows, cols, backend)[0]
        try:
            arr = np.array(entries, dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise ShapeError("entry grid does not match declared shape") from exc
        if rows == 0 and arr.shape == (0,):
            arr = arr.reshape(0, cols)
        if arr.shape != (rows, cols):
            raise ShapeError("entry grid does not match declared shape")
        self._store(backend, arr)

    def _store(self, backend: str, arr):
        if backend == FLOAT and not np.isfinite(arr).all():
            raise DomainError("float entries must be finite: the input holds "
                              "NaN or infinity, or the arithmetic overflowed")
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr.shape[0])
        object.__setattr__(self, "cols", arr.shape[1])
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _wrap(cls, backend: str, arr) -> "Matrix":
        """A matrix on ``arr`` without a copy: a 2-d array of the backend's
        dtype that no one writes to afterwards."""
        out = object.__new__(cls)
        out._store(backend, arr)
        return out

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
        dtype, zero, _ = _kind(rows, cols, backend)
        return cls._wrap(backend, np.full((rows, cols), zero, dtype=dtype))

    @classmethod
    def identity(cls, n: int, backend: str = EXACT) -> "Matrix":
        dtype, zero, one = _kind(n, n, backend)
        arr = np.full((n, n), zero, dtype=dtype)
        np.fill_diagonal(arr, one)
        return cls._wrap(backend, arr)

    @classmethod
    def from_ndarray(cls, arr) -> "Matrix":
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ShapeError("expected a 2-d array")
        return cls(a.shape[0], a.shape[1], FLOAT, a)

    # -- basic views ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        return self.entries[key]

    def to_ndarray(self):
        """The entries as complex128; on the float backend, the stored array."""
        if self.backend == FLOAT:
            return self.entries
        return self.entries.astype(complex)

    def to_float(self) -> "Matrix":
        if self.backend == FLOAT:
            return self
        return Matrix._wrap(FLOAT, self.to_ndarray())

    # -- arithmetic ----------------------------------------------------

    def _like(self, arr) -> "Matrix":
        return Matrix._wrap(self.backend, arr)

    def _check_same_backend(self, other: "Matrix"):
        if self.backend != other.backend:
            raise BackendError("mixed backends: %s vs %s" % (self.backend, other.backend))

    def _check_same_shape(self, other: "Matrix", what: str):
        self._check_same_backend(other)
        if self.shape != other.shape:
            raise ShapeError("%s needs equal shapes, got %s and %s"
                             % (what, self.shape, other.shape))

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other, "addition")
        return self._like(self.entries + other.entries)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other, "subtraction")
        return self._like(self.entries - other.entries)

    def __neg__(self) -> "Matrix":
        return self._like(-self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_backend(other)
        if self.cols != other.rows:
            raise ShapeError("product needs inner dims to agree, got %s and %s" % (self.shape, other.shape))
        if self.backend == FLOAT:
            return self._like(self.entries @ other.entries)
        xr, xi, dx = self.integer_form
        yr, yi, dy = other.integer_form
        re, im, d = xr @ yr - xi @ yi, xr @ yi + xi @ yr, dx * dy
        out = self._like(_gaussian_array(re, im, d))
        # the product's own integer form: the next product starts from it
        g = math.gcd(d, *re.flat, *im.flat)
        out._memo["ints"] = (_read_only(re // g), _read_only(im // g), d // g)
        return out

    def scale(self, scalar) -> "Matrix":
        s = _coerce_exact(scalar) if self.backend == EXACT else _coerce_float(scalar)
        return self._like(s * self.entries)

    def conj_transpose(self) -> "Matrix":
        return self._like(self.entries.conj().T)

    @property
    def ct(self) -> "Matrix":
        """The conjugate transpose, computed once per matrix. It keeps no
        link back, so ``a.ct.ct`` is a new matrix equal to ``a``."""
        memo = self._memo
        if "ct" not in memo:
            memo["ct"] = self.conj_transpose()
        return memo["ct"]

    @property
    def integer_form(self) -> tuple:
        """``(re, im, d)`` with entries == (re + i·im) / d, computed once per
        exact matrix: re and im are read-only object arrays of Python ints,
        d > 0 is the lcm of the denominators of every real and imaginary part."""
        if self.backend != EXACT:
            raise BackendError("the integer form is an exact-backend value")
        memo = self._memo
        if "ints" not in memo:
            parts = [q for v in self.entries.flat for q in (v.re, v.im)]
            d = math.lcm(*(int(q.denominator) for q in parts))
            nums = np.array([int(q.numerator) * (d // int(q.denominator)) for q in parts],
                            dtype=object).reshape(self.rows, self.cols, 2)
            memo["ints"] = (_read_only(nums[..., 0]), _read_only(nums[..., 1]), d)
        return memo["ints"]

    # -- predicates and norms -------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries.any()

    def frobenius_sq(self):
        """Squared Frobenius norm; exact rational on the exact backend."""
        if self.backend == EXACT:
            return np.add.reduce(_ABS_SQ(self.entries), axis=None,
                                 initial=as_rational(0))
        return self.frobenius() ** 2

    def frobenius(self) -> float:
        if self.backend == EXACT:
            return math.sqrt(float(self.frobenius_sq()))
        norm = float(np.linalg.norm(self.entries))
        if norm == math.inf:
            # the squares of entries beyond 1e154 overflowed: compute again
            # on the entries scaled by a power of two, which is exact
            scale = math.ldexp(1.0, math.frexp(np.abs(self.entries).max())[1] - 1)
            norm = scale * float(np.linalg.norm(self.entries / scale))
            if norm == math.inf:
                raise DomainError("Frobenius norm beyond the float range")
        return norm

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.backend == other.backend and self.shape == other.shape
                and bool((self.entries == other.entries).all()))

    def __hash__(self):
        # by value, so that -0.0 and 0.0 hash alike as they compare equal
        return hash((self.backend, self.shape, tuple(self.entries.flat)))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(v) for v in row) for row in self.entries.tolist())
        return "Matrix(%dx%d %s: %s)" % (self.rows, self.cols, self.backend, body)

    # -- slicing and stacking -------------------------------------------

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ShapeError("submatrix bounds out of range")
        return self._like(self.entries[r0:r1, c0:c1])


def _stack(join, mats, side: int, message: str) -> Matrix:
    """Join the entry arrays of ``mats``, whose shapes agree at index ``side``."""
    if not mats:
        raise ShapeError("need at least one matrix")
    first = mats[0]
    for m in mats[1:]:
        first._check_same_backend(m)
        if m.shape[side] != first.shape[side]:
            raise ShapeError(message)
    return first._like(join([m.entries for m in mats]))


def hstack(*mats: Matrix) -> Matrix:
    return _stack(np.hstack, mats, 0, "hstack needs equal row counts")


def vstack(*mats: Matrix) -> Matrix:
    return _stack(np.vstack, mats, 1, "vstack needs equal column counts")


def block(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack(*[hstack(*row) for row in grid])


def memoized(f):
    """Compute ``f(a, rank_factor)`` once per matrix ``a``: the result is
    kept on ``a`` under the key ``(f.__name__, rank_factor)``. Every later
    caller on ``a`` shares it, so f must return an immutable value."""
    name = f.__name__

    @functools.wraps(f)
    def cached(a: Matrix, rank_factor: float = RANK_FACTOR):
        key = (name, rank_factor)
        memo = a._memo
        if key not in memo:
            memo[key] = f(a, rank_factor)
        return memo[key]

    return cached


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
        return a == b
    diff, bound = float_residual(a, b, tol)
    return diff <= bound


def float_residual(a: Matrix, b: Matrix, tol: float) -> tuple:
    """The relative Frobenius rule for float equality as (diff, bound):
    |a - b|_F and tol * (1 + |a|_F + |b|_F); a equals b when diff <= bound."""
    bound = tol * (1.0 + a.frobenius() + b.frobenius())
    if bound == math.inf:
        raise DomainError("equality bound beyond the float range")
    return (a - b).frobenius(), bound


def is_zero_matrix(a: Matrix, tol: float = EQ_TOL) -> bool:
    if a.backend == EXACT:
        return a.is_zero()
    return a.frobenius() <= tol * (1.0 + a.frobenius())


def _exact_quotient(x, n):
    """x // n for an object array x of ints, which n must divide exactly."""
    q, rem = _DIVMOD(x, n)
    if rem.any():
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def _gauss_jordan(a: Matrix):
    """Fraction-free Gauss–Jordan elimination of an exact matrix over Z[i].

    Runs on the numerators of ``a.integer_form``, which have the same row
    space as a. Column by column, the first row at or below the next pivot
    row with a nonzero entry becomes the pivot row, so the pivot columns are
    the rank profile of a. Each step replaces every other row x by
    (p·x − x[c]·row) / q, with p the new pivot and q the previous one (1 at
    first); the division is exact (Bareiss 1968, in the Gauss–Jordan form of
    Nakos, Turner and Williams 1997). Returns ``(re, im, last, pivots)``:
    every pivot entry of the final rows re + i·im equals ``last``, a
    Gaussian integer (re, im) pair, so those rows divided by it are the
    reduced row echelon form of a.
    """
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
            # x / q = x·conj(q) / |q|^2
            xr, xi = xr * qr + xi * qi, xi * qr - xr * qi
            norm = qr * qr + qi * qi
        else:
            norm = qr
        re, im = _exact_quotient(xr, norm), _exact_quotient(xi, norm)
        re[r], im[r] = row_re, row_im
        pivots.append(c)
        qr, qi = pr, pi
    return re, im, (qr, qi), pivots


def exact_rref(a: Matrix):
    """Reduced row echelon form of an exact matrix with its pivot columns."""
    if a.backend != EXACT:
        raise BackendError("row reduction is an exact-backend operation")
    re, im, (pr, pi), pivots = _gauss_jordan(a)
    # x / p = x·conj(p) / |p|^2
    red = _gaussian_array(re * pr + im * pi, im * pr - re * pi, pr * pr + pi * pi)
    return Matrix._wrap(EXACT, red), tuple(pivots)


def rank(a: Matrix, rank_factor: float = RANK_FACTOR) -> int:
    """Rank: pivot count (exact) or singular values above a spectral cutoff (float)."""
    if a.backend == EXACT:
        return len(_gauss_jordan(a)[3])
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
        ent = [[[rational_str(v.re), rational_str(v.im)] for v in row]
               for row in a.entries.tolist()]
    else:
        ent = np.stack([a.entries.real, a.entries.imag], axis=-1).tolist()
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
                    out.append(complex(re, im))
                except OverflowError as exc:
                    raise DomainError("float entry does not fit a double") from exc
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
