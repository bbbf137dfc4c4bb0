"""Dense complex matrices over an exact rational or floating backend.

A Matrix is an immutable value: fixed shape, one backend for all entries.
An exact matrix lives in its integer form: two read-only object arrays of
Python-int numerators, real and imaginary, over one positive common
denominator that shares no factor with all of them. Every exact kernel
(products, sums, scaling, adjoints, slicing, stacking, elimination) runs
on that form, so equality is a comparison of integers and rank is decided
by a fraction-free elimination. Every exact constructor builds that form
at once with ``_integer_form``; GaussianRational entries are built only
when read, for display and indexing. The float backend stores finite
complex128 entries. They are checked where an array is computed (a
product, sum, difference or scaling, or a numpy factorization's result)
or read from outside, and not where a kernel only rearranges or negates
checked entries (an adjoint, a slice, a stack, a negation), which cannot
make a finite entry infinite. Every float threshold in the package is
``tolerance_bound`` of the operands' Frobenius norms: comparisons go
through ``_compare`` (``matrices_equal`` is its verdict), and rank counts
singular values above a spectral cutoff, or above a caller's floor
(``_rank``): ``rank_floor``, such a bound raised to the operands' own
spectral cutoff. Each arithmetic kernel is one numpy expression on the
stored arrays; the exact elimination alone updates lists of int rows
(``_gauss_jordan``). What a matrix keeps of its own (adjoint, elimination, SVD,
the ``memoized`` factorizations) is read and written only by ``_kept``, and
so is what it keeps for a partner: a value built from the two matrices,
owned by a weak reference to the partner, as an adjoint refers weakly
back to its source (``a.ct.ct is a``), so no memo forms a reference cycle.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import reprlib
import weakref
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BackendError, DomainError, MatOrderError, ShapeError
from .scalars import GaussianRational, as_rational

EXACT = "exact"
FLOAT = "float"

EQ_TOL = 1e-9
RANK_FACTOR = 64.0
EPS = 2.0 ** -52

# backend -> dtype of its arrays
_DTYPE = {EXACT: object, FLOAT: complex}
# the dtype kinds of numbers: bool, signed and unsigned int, float, complex
_NUMERIC = "biufc"
# the longest side whose square complex array numpy can index: the package
# forms such squares from a matrix (A*A, a full SVD), so a longer side is
# refused where a matrix is declared, even when it has no entries
_MAX_SIDE = math.isqrt(int(np.iinfo(np.intp).max) // 16)


def _dtype(rows: int, cols: int, backend: str):
    if rows < 0 or cols < 0:
        raise ShapeError("negative dimension")
    if max(rows, cols) > _MAX_SIDE:
        raise ShapeError("dimension %s beyond the largest array side, %d"
                         % (reprlib.repr(max(rows, cols)), _MAX_SIDE))
    if backend not in _DTYPE:
        raise BackendError("unknown backend %s" % reprlib.repr(backend))
    return _DTYPE[backend]


def _parts(value) -> tuple:
    """The (re, im) Fraction pair of an exact entry: a GaussianRational, an
    int, Fraction or 'p/q' string, or an (re, im) tuple of the last three."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    if isinstance(value, tuple) and len(value) == 2:
        re, im = value
    elif isinstance(value, (int, str, Fraction)):
        re, im = value, 0
    else:
        raise MatOrderError("cannot place %s in an exact matrix" % reprlib.repr(value))
    try:
        return as_rational(re), as_rational(im)
    except MatOrderError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MatOrderError("cannot place %s in an exact matrix"
                            % reprlib.repr(value)) from exc


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def _finite(arr):
    """The float array ``arr``, once its entries are checked finite. This is
    the one finiteness check, run on an array that arithmetic computed or
    that came from outside; ``isfinite`` raises no warning, so an overflow
    keeps the warning of the kernel that overflowed."""
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise DomainError("float entries must be finite: the input holds "
                          "NaN or infinity, or the arithmetic overflowed")
    return arr


def _gaussian_array(re, im, d: int):
    """The GaussianRational array (re + i·im) / d, for integer arrays re, im."""
    values = [GaussianRational._raw(Fraction(x, d), Fraction(y, d))
              for x, y in zip(re.flat, im.flat)]
    return np.array(values, dtype=object).reshape(re.shape)


def _integer_form(parts, shape: tuple) -> tuple:
    """The canonical integer form ``(re, im, d)`` of the entries whose
    ``(re, im)`` Fraction pairs ``parts`` lists in row-major order: d is the
    lcm of their denominators, so the form needs no further reduction."""
    d = math.lcm(*(q.denominator for pair in parts for q in pair))
    nums = np.array([q.numerator * (d // q.denominator) for pair in parts for q in pair],
                    dtype=object).reshape(*shape, 2)
    return _read_only(nums[..., 0]), _read_only(nums[..., 1]), d


def _over_common_denominator(mats) -> tuple:
    """The numerators of the exact ``mats`` over the lcm d of their
    denominators, as ([(re, im), ...], d)."""
    forms = [m.integer_form for m in mats]
    d = math.lcm(*(e for _, _, e in forms))
    return [(re, im) if e == d else (re * (d // e), im * (d // e))
            for re, im, e in forms], d


def _float_array(entries, arr):
    """A new complex array of the float entries ``entries``, which numpy
    reads as ``arr``: an array of a numeric dtype converts as a whole, any
    other is read entry by entry by ``_coerce_float``."""
    if arr.dtype.kind in _NUMERIC:
        return np.array(arr, dtype=complex)
    values = np.asarray(entries, dtype=object).flat
    return np.array([_coerce_float(v) for v in values], dtype=complex).reshape(arr.shape)


def _coerce_float(value) -> complex:
    """The float entry ``value``: a number (any ``numbers.Complex``) or a
    GaussianRational. Anything else, a string or None included, is a
    MatOrderError."""
    if not isinstance(value, (numbers.Complex, GaussianRational)):
        raise MatOrderError("cannot place %s in a float matrix" % reprlib.repr(value))
    try:
        return complex(value)
    except OverflowError as exc:
        raise DomainError("float entry does not fit a double") from exc


class Matrix:
    """Immutable dense m-by-n complex matrix tied to one scalar backend.

    ``entries`` is a read-only 2-d ndarray: GaussianRational objects on the
    exact backend, complex128 on the float backend. An exact matrix stores
    ``_ints``, its canonical integer form (``integer_form``), from the
    moment it is built, and builds ``entries`` from it on first read, for
    display and indexing. A float matrix stores ``_entries``, so the float
    branches read that slot and skip the property. ``_memo``, which only
    ``_kept`` touches, holds what ``ct``, the exact elimination, the float
    SVD, the ``memoized`` factorizations and other modules keep on it.
    """

    __slots__ = ("rows", "cols", "backend", "_entries", "_ints", "_memo",
                 "__weakref__")

    def __init__(self, rows: int, cols: int, backend: str, entries):
        """Copy ``entries``, a nested sequence or an array, into a new
        matrix. An exact entry is a GaussianRational, an int, a Fraction or
        a 'p/q' string. A float entry is what ``_coerce_float`` takes; an
        array of a numeric dtype is taken whole. Anything else is a
        MatOrderError."""
        _dtype(rows, cols, backend)
        try:
            if backend == FLOAT:
                arr = np.asarray(entries)
            else:
                arr = np.array(entries, dtype=object)
        except (TypeError, ValueError) as exc:
            raise ShapeError("entry grid does not match declared shape") from exc
        if rows == 0 and arr.shape == (0,):
            arr = arr.reshape(0, cols)
        if arr.shape != (rows, cols):
            raise ShapeError("entry grid does not match declared shape")
        if backend == FLOAT:
            self._set(FLOAT, arr.shape, "_entries",
                      _read_only(_finite(_float_array(entries, arr))))
        else:
            self._set(EXACT, arr.shape, "_ints",
                      _integer_form([_parts(v) for v in arr.flat], arr.shape))

    def _set(self, backend: str, shape: tuple, slot: str, value):
        """Fill a new matrix that stores ``value`` in ``slot``: its entry
        array ``_entries`` or its integer form ``_ints``."""
        object.__setattr__(self, "rows", shape[0])
        object.__setattr__(self, "cols", shape[1])
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, slot, value)

    @classmethod
    def _wrap(cls, arr) -> "Matrix":
        """A float matrix on ``arr`` without a copy: a 2-d complex array,
        computed by arithmetic or by numpy, that no one writes to
        afterwards. Its entries are checked finite, then it is built by
        ``_from_checked``."""
        return cls._from_checked(_finite(arr))

    @classmethod
    def _from_checked(cls, arr) -> "Matrix":
        """A float matrix on ``arr`` without a copy or a check: a 2-d complex
        array, made read-only here, whose entries are finite because they
        rearrange or negate the entries of checked arrays (an adjoint, a
        slice, a stack, a negation) or are zeros and ones. Transposing,
        slicing, stacking and negating cannot make a finite entry
        infinite, so checking them again would find nothing."""
        out = object.__new__(cls)
        out._set(FLOAT, arr.shape, "_entries", _read_only(arr))
        return out

    @classmethod
    def _from_ints(cls, re, im, d: int, reduced: bool = False) -> "Matrix":
        """The exact matrix (re + i·im) / d, for object arrays re, im of ints
        and d > 0, on those arrays without a copy. The form is divided by
        the gcd of d and every numerator unless ``reduced`` says it is 1."""
        if not reduced and d != 1:
            g = math.gcd(d, *re.flat, *im.flat)
            if g != 1:
                re, im, d = re // g, im // g, d // g
        out = object.__new__(cls)
        out._set(EXACT, re.shape, "_ints", (_read_only(re), _read_only(im), d))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, data: Sequence[Sequence]) -> "Matrix":
        """The exact matrix of the rows ``data``, whose entries are what the
        constructor takes or (re, im) pairs of those."""
        rows = [[_parts(v) for v in row] for row in data]
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(row) != n for row in rows):
            raise ShapeError("entry grid does not match declared shape")
        return cls._from_ints(*_integer_form([p for row in rows for p in row], (m, n)),
                              reduced=True)

    @classmethod
    def from_complex(cls, data: Sequence[Sequence]) -> "Matrix":
        m = len(data)
        n = len(data[0]) if m else 0
        return cls(m, n, FLOAT, data)

    @classmethod
    def zeros(cls, rows: int, cols: int, backend: str = EXACT) -> "Matrix":
        arr = np.zeros((rows, cols), dtype=_dtype(rows, cols, backend))
        if backend == FLOAT:
            return cls._from_checked(arr)
        return cls._from_ints(arr, arr, 1)

    @classmethod
    def identity(cls, n: int, backend: str = EXACT) -> "Matrix":
        arr = np.eye(n, dtype=_dtype(n, n, backend))
        if backend == FLOAT:
            return cls._from_checked(arr)
        return cls._from_ints(arr, np.zeros((n, n), dtype=object), 1)

    @classmethod
    def from_ndarray(cls, arr) -> "Matrix":
        """The float matrix of a copy of the 2-d array ``arr``, built by the
        constructor."""
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ShapeError("expected a 2-d array")
        return cls(a.shape[0], a.shape[1], FLOAT, a)

    # -- basic views ---------------------------------------------------

    @property
    def entries(self):
        """The read-only 2-d array of entries; an exact matrix builds its
        GaussianRational array from its integer form on first read."""
        try:
            return self._entries
        except AttributeError:
            re, im, d = self._ints
            arr = _read_only(_gaussian_array(re, im, d))
            object.__setattr__(self, "_entries", arr)
            return arr

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
            return self._entries
        re, im, d = self.integer_form
        # int / int rounds correctly, so each value is complex() of the entry
        try:
            values = [complex(x / d, y / d) for x, y in zip(re.flat, im.flat)]
        except OverflowError as exc:
            raise DomainError("exact entry does not fit a double") from exc
        return np.array(values, dtype=complex).reshape(self.shape)

    def to_float(self) -> "Matrix":
        if self.backend == FLOAT:
            return self
        return Matrix._wrap(self.to_ndarray())

    # -- arithmetic ----------------------------------------------------

    def _check_same_backend(self, other: "Matrix"):
        if self.backend != other.backend:
            raise BackendError("mixed backends: %s vs %s" % (self.backend, other.backend))

    def _check_same_shape(self, other: "Matrix", what: str):
        self._check_same_backend(other)
        if self.shape != other.shape:
            raise ShapeError("%s needs equal shapes, got %s and %s"
                             % (what, self.shape, other.shape))

    def _entrywise(self, other, op, what: str) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other, what)
        if self.backend == FLOAT:
            return Matrix._wrap(op(self._entries, other._entries))
        ((xr, xi), (yr, yi)), d = _over_common_denominator((self, other))
        return Matrix._from_ints(op(xr, yr), op(xi, yi), d)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.sub, "subtraction")

    def __neg__(self) -> "Matrix":
        if self.backend == FLOAT:
            return Matrix._from_checked(-self._entries)
        re, im, d = self.integer_form
        return Matrix._from_ints(-re, -im, d, reduced=True)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_backend(other)
        if self.cols != other.rows:
            raise ShapeError("product needs inner dims to agree, got %s and %s" % (self.shape, other.shape))
        if self.backend == FLOAT:
            return Matrix._wrap(self._entries @ other._entries)
        xr, xi, dx = self.integer_form
        yr, yi, dy = other.integer_form
        return Matrix._from_ints(xr @ yr - xi @ yi, xr @ yi + xi @ yr, dx * dy)

    def scale(self, scalar) -> "Matrix":
        if self.backend == FLOAT:
            return Matrix._wrap(_coerce_float(scalar) * self._entries)
        (sr,), (si,), q = _integer_form([_parts(scalar)], (1,))
        re, im, d = self.integer_form
        return Matrix._from_ints(sr * re - si * im, sr * im + si * re, d * q)

    def conj_transpose(self) -> "Matrix":
        if self.backend == FLOAT:
            return Matrix._from_checked(self._entries.conj().T)
        re, im, d = self.integer_form
        return Matrix._from_ints(re.T, -im.T, d, reduced=True)

    @property
    def ct(self) -> "Matrix":
        """The conjugate transpose, computed once per matrix. The adjoint
        refers weakly back to its source, so ``a.ct.ct is a`` while a
        lives; once a is gone, ``a.ct.ct`` is a new matrix equal to it."""
        return _kept(self, "ct", _adjoint)

    @property
    def integer_form(self) -> tuple:
        """``(re, im, d)`` with entries == (re + i·im) / d: re and im are
        read-only object arrays of Python ints, and d > 0 is the lcm of the
        denominators of every real and imaginary part, so d shares no factor
        with all the numerators and two equal matrices have equal forms."""
        if self.backend != EXACT:
            raise BackendError("the integer form is an exact-backend value")
        return self._ints

    # -- predicates and norms -------------------------------------------

    def is_zero(self) -> bool:
        if self.backend == FLOAT:
            return not self._entries.any()
        re, im, _ = self.integer_form
        return not (re.any() or im.any())

    def frobenius_sq(self):
        """Squared Frobenius norm; exact rational on the exact backend."""
        if self.backend == EXACT:
            re, im, d = self.integer_form
            return Fraction((re * re + im * im).sum(initial=0), d * d)
        return self.frobenius() ** 2

    def frobenius(self) -> float:
        if self.backend == EXACT:
            return math.sqrt(float(self.frobenius_sq()))
        return float_norm(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.backend != other.backend or self.shape != other.shape:
            return False
        if self.backend == FLOAT:
            return bool((self._entries == other._entries).all())
        # both forms are canonical, so equal matrices have equal forms
        xr, xi, dx = self.integer_form
        yr, yi, dy = other.integer_form
        return dx == dy and bool((xr == yr).all()) and bool((xi == yi).all())

    def __hash__(self):
        if self.backend == FLOAT:
            # by value, so that -0.0 and 0.0 hash alike as they compare equal
            return hash((self.backend, self.shape, tuple(self._entries.flat)))
        re, im, d = self.integer_form
        return hash((self.backend, self.shape, d, tuple(re.flat), tuple(im.flat)))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(v) for v in row) for row in self.entries.tolist())
        return "Matrix(%dx%d %s: %s)" % (self.rows, self.cols, self.backend, body)

    # -- slicing and stacking -------------------------------------------

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ShapeError("submatrix bounds out of range")
        return self._take(np.s_[r0:r1, c0:c1])

    def columns(self, index: Sequence[int]) -> "Matrix":
        """The matrix of the columns of self at ``index``, in that order."""
        return self._take(np.s_[:, list(index)])

    def _take(self, key) -> "Matrix":
        if self.backend == FLOAT:
            return Matrix._from_checked(self._entries[key])
        re, im, d = self.integer_form
        return Matrix._from_ints(re[key], im[key], d)


def _stack(join, mats, side: int, message: str) -> Matrix:
    """Join the entry arrays of ``mats``, whose shapes agree at index ``side``."""
    if not mats:
        raise ShapeError("need at least one matrix")
    first = mats[0]
    for m in mats[1:]:
        first._check_same_backend(m)
        if m.shape[side] != first.shape[side]:
            raise ShapeError(message)
    if first.backend == FLOAT:
        return Matrix._from_checked(join([m._entries for m in mats]))
    parts, d = _over_common_denominator(mats)
    # over the lcm, the block holding the highest power of each prime of d
    # keeps a numerator prime to it, so the joined form is canonical
    return Matrix._from_ints(join([re for re, _ in parts]),
                             join([im for _, im in parts]), d, reduced=True)


def hstack(*mats: Matrix) -> Matrix:
    return _stack(np.hstack, mats, 0, "hstack needs equal row counts")


def vstack(*mats: Matrix) -> Matrix:
    return _stack(np.vstack, mats, 1, "vstack needs equal column counts")


def block(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack(*[hstack(*row) for row in grid])


def _kept(a: Matrix, key, build, owner=None):
    """``build(a, key)``, an immutable value other than None, kept on a
    under ``key`` from the first call on: the one reader and writer of
    ``Matrix._memo``. A value kept for an ``owner`` is returned only to it;
    another owner builds its own, which replaces it, so a key holds one
    value. The owner is held by a weak reference, which no later object
    can match once the owner is gone, so a value built from a and another
    matrix b is kept for b without a reference cycle. A ``weakref.ref``
    kept under a key stands for its referent on later calls, and the value
    is built again once the referent is gone."""
    memo = a._memo
    kept = memo.get(key)
    if owner is None:
        if type(kept) is weakref.ref:
            kept = kept()
        if kept is None:
            kept = memo[key] = build(a, key)
        return kept
    if kept is None or kept[0]() is not owner:
        kept = memo[key] = weakref.ref(owner), build(a, key)
    return kept[1]


def memoized(f):
    """Compute ``f(a, rank_factor)`` once per matrix ``a``: the result is
    kept on ``a`` under the key ``(f.__name__, rank_factor)``. Every later
    caller on ``a`` shares it, so f must return an immutable value."""
    name = f.__name__

    def build(a: Matrix, key: tuple):
        return f(a, key[1])

    @functools.wraps(f)
    def cached(a: Matrix, rank_factor: float = RANK_FACTOR):
        return _kept(a, (name, rank_factor), build)

    return cached


def _adjoint(a: Matrix, key: str) -> Matrix:
    adjoint = a.conj_transpose()
    _kept(adjoint, key, lambda adjoint, key: weakref.ref(a))
    return adjoint


# -- equality and rank -------------------------------------------------


def matrices_equal(a: Matrix, b: Matrix, tol: float = EQ_TOL) -> bool:
    """Backend-aware equality: entrywise on the exact backend, and by the
    relative Frobenius rule of ``_compare`` on the float backend."""
    return _compare(a, b, tol)[0]


def _compare(a: Matrix, b: Matrix, tol: float) -> tuple:
    """``(verdict, margin)`` of a == b: ``(a == b, None)`` on the exact
    backend. On the float backend a equals b when diff <= bound, for
    diff = |a - b|_F and bound = ``tolerance_bound(tol, |a|_F, |b|_F)``,
    and the margin is diff / bound; under a zero bound (tol = 0) it is 0.0
    for equal sides and infinite otherwise."""
    a._check_same_shape(b, "comparison")
    if a.backend == EXACT:
        return a == b, None
    bound = tolerance_bound(tol, a.frobenius(), b.frobenius())
    diff = float_norm(_finite(a._entries - b._entries))
    if bound:
        margin = diff / bound
    else:
        margin = math.inf if diff else 0.0
    return diff <= bound, margin


# below this norm the sum of squares nears the subnormal range, 2^-1022
_TINY_NORM = 2.0 ** -485


def float_norm(arr) -> float:
    """Frobenius norm of a finite complex array, as ``Matrix.frobenius``
    computes it on the float backend: ``float(np.linalg.norm(arr))`` bit for
    bit, by numpy's own formula without its dispatch, except where that
    overflows or falls below ``_TINY_NORM``: there the formula runs on the
    entries scaled by a power of two."""
    # numpy ravels in memory order; a C-order ravel of a transposed or
    # sliced view would sum the squares in another order
    x = arr.ravel(order="K")
    re, im = x.real, x.imag
    norm = math.sqrt(re.dot(re) + im.dot(im))
    if norm == math.inf or (norm < _TINY_NORM and np.count_nonzero(x)):
        # the squares of entries beyond 1e154 overflowed, or those of
        # entries this small lost bits: compute again on the entries scaled
        # by a power of two, which is exact; their float parts are divided,
        # as a complex division by 2^-1024 or less overflows in 1 / scale
        scale = math.ldexp(1.0, math.frexp(np.abs(arr).max())[1] - 1)
        y = (x.view(np.float64) / scale).view(complex)
        norm = scale * math.sqrt(y.real.dot(y.real) + y.imag.dot(y.imag))
        if norm == math.inf:
            raise DomainError("Frobenius norm beyond the float range")
    return norm


def tolerance_bound(tol: float, *norms: float) -> float:
    """tol * (1.0 + n1 + n2 + ...): the one float threshold, relative to
    the Frobenius norms ``norms`` of the operands it judges. The norms are
    added left to right without compensation, as that expression adds them.

    A negative or NaN tol, or norms beyond the float range, leave no
    threshold that separates equal from unequal, so anything but a finite
    non-negative bound is a DomainError.
    """
    scale = 1.0
    for norm in norms:
        scale += norm
    bound = tol * scale
    if not (0.0 <= bound < math.inf and tol >= 0.0):
        raise DomainError("tolerance bound %r is not a finite non-negative "
                          "number: tol must be >= 0 and the operands within "
                          "the float range" % bound)
    return bound


def is_zero_matrix(a: Matrix, tol: float = EQ_TOL) -> bool:
    """Whether ``matrices_equal`` finds a equal to zero: entrywise on the
    exact backend, and on the float backend |a|_F <= tol·(1 + |a|_F + 0.0),
    which for tol < 1 is |a|_F <= tol / (1 - tol): an absolute test, whose
    threshold does not scale with a."""
    return matrices_equal(a, Matrix.zeros(a.rows, a.cols, a.backend), tol)


def _elimination(a: Matrix) -> tuple:
    """``_gauss_jordan(a)``, run once per matrix and kept on a under
    ``"gauss_jordan"``."""
    return _kept(a, "gauss_jordan", lambda a, key: _gauss_jordan(a))


def _gauss_jordan(a: Matrix):
    """Fraction-free Gauss–Jordan elimination of an exact matrix over Z[i].

    Runs on the numerators of ``a.integer_form``, which have the same row
    space as a. Column by column, the first row at or below the next pivot
    row with a nonzero entry becomes the pivot row, so the pivot columns are
    the rank profile of a. Each step replaces every other row x by
    (p·x − x[c]·row) / q, with p the new pivot and q the previous one (1 at
    first); the division is exact (Bareiss 1968, in the Gauss–Jordan form of
    Nakos, Turner and Williams 1997). Returns ``(re, im, last, pivots)``:
    every pivot entry of the final rows re + i·im, read-only arrays, equals
    ``last``, a Gaussian integer (re, im) pair, so those rows divided by it
    are the reduced row echelon form of a; ``pivots`` is a tuple.

    The rows are lists of Python ints, so that a step builds no
    whole-matrix object temporaries and skips the entries it cannot change:
    left of column c the pivot row is zero, and so is every row below it,
    which is therefore updated from c on only; a row above it is updated on
    every column, where left of c the step only scales it by p/q.
    """
    re, im, _ = a.integer_form
    re, im = re.tolist(), im.tolist()
    pivots = []
    qr, qi = 1, 0
    for c in range(a.cols):
        r = len(pivots)
        if r == a.rows:
            break
        k = next((i for i in range(r, a.rows) if re[i][c] or im[i][c]), None)
        if k is None:
            continue
        re[r], re[k] = re[k], re[r]
        im[r], im[k] = im[k], im[r]
        pr, pi = re[r][c], im[r][c]
        # x / q = x·conj(q) / |q|^2, so x becomes (s·x − t·row) / norm with
        # s = p·conj(q) and t = x[c]·conj(q)
        sr, si = pr * qr + pi * qi, pi * qr - pr * qi
        norm = qr * qr + qi * qi
        for i in range(a.rows):
            if i == r:
                continue
            lo = 0 if i < r else c
            xr, xi = re[i], im[i]
            tr, ti = xr[c] * qr + xi[c] * qi, xi[c] * qr - xr[c] * qi
            part = list(zip(xr[lo:], xi[lo:], re[r][lo:], im[r][lo:]))
            yr = [sr * x - si * y - tr * u + ti * v for x, y, u, v in part]
            yi = [sr * y + si * x - tr * v - ti * u for x, y, u, v in part]
            re[i] = xr[:lo] + _exact_quotients(yr, norm)
            im[i] = xi[:lo] + _exact_quotients(yi, norm)
        pivots.append(c)
        qr, qi = pr, pi
    return _int_array(re, a.shape), _int_array(im, a.shape), (qr, qi), tuple(pivots)


def _exact_quotients(xs: list, n: int) -> list:
    """The ints x // n for x in xs, each of which n must divide exactly."""
    if n == 1:
        return xs
    qs = [x // n for x in xs]
    # n > 0 leaves remainders in [0, n), so all are 0 exactly when they sum to 0
    if sum(xs) != n * sum(qs):
        raise ArithmeticError("inexact division in fraction-free elimination")
    return qs


def _int_array(rows: list, shape: tuple):
    """The read-only object array of the int rows ``rows``."""
    return _read_only(np.array(rows, dtype=object).reshape(shape))


def exact_rref(a: Matrix):
    """Reduced row echelon form of an exact matrix with its pivot columns."""
    if a.backend != EXACT:
        raise BackendError("row reduction is an exact-backend operation")
    re, im, (pr, pi), pivots = _elimination(a)
    # x / p = x·conj(p) / |p|^2
    return Matrix._from_ints(re * pr + im * pi, im * pr - re * pi, pr * pr + pi * pi), pivots


def rank(a: Matrix, rank_factor: float = RANK_FACTOR) -> int:
    """Rank: pivot count (exact) or singular values above a spectral cutoff (float)."""
    return _rank(a, rank_factor, 0.0)


def _rank(a: Matrix, rank_factor: float, floor: float) -> int:
    """``rank``, counting on the float backend only singular values above
    ``floor`` as well as above the spectral cutoff."""
    if a.backend == EXACT:
        return len(_elimination(a)[3])
    # not float_svd: on numpy 2.4.6 its values differ in the last bits and could move a rank
    return spectral_rank(np.linalg.svd(a.to_ndarray(), compute_uv=False),
                         a.shape, rank_factor, floor)


def float_svd(a: Matrix, rank_factor: float = RANK_FACTOR) -> tuple:
    """``(u, s, vh, r)``: the full SVD a = u diag(s) vh of a float matrix,
    kept read-only on a, and the rank r that rank_factor gives."""
    u, s, vh = _kept(a, "svd", _kept_svd)
    return u, s, vh, spectral_rank(s, a.shape, rank_factor)


def _kept_svd(a: Matrix, key: str) -> tuple:
    return tuple(_read_only(x) for x in np.linalg.svd(a._entries))


def spectral_rank(s, shape: tuple, rank_factor: float, floor: float = 0.0) -> int:
    """The float rank rule: how many singular values s (descending) of a
    matrix of this shape exceed the larger of ``floor`` and the spectral
    cutoff, the longer side times s[0] times rank_factor machine epsilons.

    A rank_factor that ``_check_rank_factor`` refuses is a DomainError.
    """
    _check_rank_factor(rank_factor)
    if s.size == 0 or s[0] == 0.0:
        return 0
    cutoff = max(shape) * s[0] * EPS * rank_factor
    return int(np.count_nonzero(s > max(cutoff, floor)))


def _check_rank_factor(rank_factor: float):
    """A negative rank_factor would count roundoff as rank, and a NaN or
    infinite one leaves no cutoff, so anything outside [0, inf) is a
    DomainError, as ``tolerance_bound`` treats tol."""
    if not 0.0 <= rank_factor < math.inf:
        raise DomainError("rank_factor %r is not a finite non-negative number"
                          % (rank_factor,))


def rank_floor(tol: float, rank_factor: float, shape: tuple, *norms: float) -> float:
    """A ``_rank`` floor for a matrix of this shape built from operands of
    Frobenius norms ``norms``: the larger of ``tolerance_bound(tol, *norms)``
    and the spectral cutoff that the largest norm would set, the longer side
    times that norm times rank_factor machine epsilons. The second term
    keeps roundoff out of the rank where tol is 0; at the default tol and
    rank_factor the first is the larger for every side below 70,000."""
    cutoff = max(shape) * max(norms, default=0.0) * EPS * rank_factor
    return max(tolerance_bound(tol, *norms), cutoff)


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


def _ratio_str(n: int, d: int) -> str:
    """The 'p/q' encoding of n/d: reduced, q > 0 (for d > 0)."""
    g = math.gcd(n, d)
    try:
        return "%d/%d" % (n // g, d // g)
    except ValueError as exc:
        # past sys.get_int_max_str_digits(), which also bounds what is read
        raise DomainError("exact entry too long to write: %s" % exc) from exc


def matrix_to_dict(a: Matrix) -> dict:
    if a.backend == EXACT:
        re, im, d = a.integer_form
        ent = [[[_ratio_str(x, d), _ratio_str(y, d)] for x, y in zip(xs, ys)]
               for xs, ys in zip(re.tolist(), im.tolist())]
    else:
        ent = np.stack([a._entries.real, a._entries.imag], axis=-1).tolist()
    return {"rows": a.rows, "cols": a.cols, "backend": a.backend, "entries": ent}


def matrix_from_dict(d: dict) -> Matrix:
    try:
        rows, cols, backend, entries = d["rows"], d["cols"], d["backend"], d["entries"]
    except (KeyError, TypeError) as exc:
        raise MatOrderError("matrix object needs rows/cols/backend/entries") from exc
    if backend not in (EXACT, FLOAT):
        raise MatOrderError("unknown backend %s" % reprlib.repr(backend))
    if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in (rows, cols)):
        raise MatOrderError("rows/cols must be non-negative integers")
    _dtype(rows, cols, backend)
    if not isinstance(entries, list) or len(entries) != rows:
        raise MatOrderError("entry grid does not match declared shape")
    values = []  # row-major: (re, im) Fraction pairs, or complex
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise MatOrderError("entry grid does not match declared shape")
        for pair in row:
            if not isinstance(pair, list) or len(pair) != 2:
                raise MatOrderError("each entry must be a [re, im] pair")
            re, im = pair
            if backend == EXACT:
                if not isinstance(re, str) or not isinstance(im, str):
                    raise MatOrderError("exact entries must be 'p/q' strings")
                try:
                    values.append((as_rational(re), as_rational(im)))
                except MatOrderError:
                    raise
                except (ValueError, ZeroDivisionError) as exc:
                    raise MatOrderError("bad rational %s"
                                        % reprlib.repr((re, im))) from exc
            else:
                if isinstance(re, bool) or isinstance(im, bool) or \
                        not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                    raise MatOrderError("float entries must be numbers")
                try:
                    values.append(complex(re, im))
                except OverflowError as exc:
                    raise DomainError("float entry does not fit a double") from exc
    if backend == EXACT:
        return Matrix._from_ints(*_integer_form(values, (rows, cols)), reduced=True)
    return Matrix(rows, cols, FLOAT, np.reshape(values, (rows, cols)))


def matrix_to_json(a: Matrix) -> str:
    return json.dumps(matrix_to_dict(a))


def matrix_from_json(text: str | bytes) -> Matrix:
    """The matrix in a JSON document, given as ``str`` or as ``bytes`` in
    UTF-8 (with or without BOM), UTF-16 or UTF-32, which json.loads tells
    apart."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError or UnicodeDecodeError, an int literal past
        # int()'s digit limit, or nesting past the recursion limit
        raise MatOrderError("invalid JSON: %s" % exc) from exc
    return matrix_from_dict(obj)
