"""Scalar types for the two backends.

Exact matrices hold ``GaussianRational`` entries (complex numbers with
rational real and imaginary parts, each a fractions.Fraction); float
matrices hold plain ``complex``.
"""

from __future__ import annotations

from fractions import Fraction


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to a Fraction."""
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to an exact rational")
    return Fraction(value)


def rational_str(q) -> str:
    """Canonical 'p/q' encoding: reduced, q > 0, sign on the numerator."""
    return "%d/%d" % (q.numerator, q.denominator)


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

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational._raw(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    def abs_sq(self):
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

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


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def gaussian(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions, or 'p/q' strings."""
    return GaussianRational(re, im)


def to_fraction(q) -> Fraction:
    return Fraction(q)
