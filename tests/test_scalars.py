"""The exact scalar at the matrix boundary."""

from fractions import Fraction

import pytest

from matorder.scalars import GaussianRational, as_rational, gaussian


def test_construction_accepts_int_str_fraction():
    assert GaussianRational(2).re == 2
    assert GaussianRational("3/4").re == Fraction(3, 4)
    assert GaussianRational(Fraction(-1, 2), 5).im == 5


def test_as_rational_refuses_float():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_equality_across_types_and_hash():
    assert gaussian(3) == 3
    assert gaussian("1/2") == Fraction(1, 2)
    assert gaussian(3, 1) != 3
    assert (GaussianRational(1) == 1.5) is False
    assert hash(gaussian(2, 5)) == hash(gaussian(2, 5))
    assert not gaussian(0) and gaussian(0, "1/2")


def test_str_forms():
    assert str(gaussian(2)) == "2"
    assert str(gaussian(0, "1/2")) == "1/2i"
    assert str(gaussian(1, -1)) == "1-1i"
    assert repr(gaussian(1, -2)) == "GaussianRational(1, -2)"
