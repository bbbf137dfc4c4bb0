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

from fractions import Fraction


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to a Fraction."""
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to an exact rational")
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
