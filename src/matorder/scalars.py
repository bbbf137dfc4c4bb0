"""Scalar types for the two backends.

``GaussianRational`` is a complex number with rational real and imaginary
parts, each a fractions.Fraction. It is the exact backend's scalar at the
boundary: an entry ``Matrix.exact`` and the constructor take, and what an
exact matrix's ``entries`` and indexing give back. It compares, hashes,
prints and converts to ``complex``, and has no arithmetic: exact matrices
store and compute on their integer form (see ``matrix``). Float matrices
hold plain ``complex``.
"""

from __future__ import annotations

import re as regex  # re names real parts here
import sys
from fractions import Fraction

from .errors import MatOrderError

# the decimal exponent at the end of a Fraction string, read as Fraction
# reads it: an optional sign, digits with single underscores, e or E
_EXPONENT = regex.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", regex.IGNORECASE)


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to a Fraction.

    A string's decimal exponent must stay within int()'s digit limit, or
    this is a MatOrderError: Fraction computes 10**|exponent|, whose cost
    grows faster than the exponent and reaches seconds for "1e-10000000".
    """
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to an exact rational")
    if isinstance(value, str):
        exp = _EXPONENT.search(value)
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if exp and abs(int(exp.group(1))) > limit:
            raise MatOrderError("exact entry %r has a decimal exponent beyond %d"
                                % (value, limit))
    return Fraction(value)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_rational(re)
        self.im = as_rational(im)

    @classmethod
    def _raw(cls, re, im):
        obj = object.__new__(cls)
        obj.re = re
        obj.im = im
        return obj

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return "%si" % self.im
        sign = "+" if self.im > 0 else "-"
        return "%s%s%si" % (self.re, sign, abs(self.im))


def gaussian(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions, or 'p/q' strings."""
    return GaussianRational(re, im)
