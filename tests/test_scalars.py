from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onsager.scalars import (
    GaussianRational,
    I,
    format_scalar,
    gaussian,
    parse_scalar,
)

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
gaussians = st.builds(gaussian, fractions, fractions)
scalars = st.one_of(fractions, gaussians)


def test_arith_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(1, 2) - I == gaussian(Fraction(1, 2), -1)
    assert I * I == Fraction(-1)
    with pytest.raises(ZeroDivisionError):
        Fraction(3, 4) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        I / Fraction(0)


def test_scalar_operators_reject_non_scalars():
    with pytest.raises(TypeError):
        I + "1"
    with pytest.raises(TypeError):
        I * 1.5


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_inverses(a):
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


def test_canonical_form_unique():
    # A vanished imaginary part normalizes back to Fraction.
    assert gaussian(Fraction(1, 2), 0) == Fraction(1, 2)
    assert isinstance(gaussian(Fraction(1, 2), 0), Fraction)
    assert isinstance(I * I, Fraction)
    value = (Fraction(1) + I) * (Fraction(1) - I)
    assert value == Fraction(2) and isinstance(value, Fraction)


@given(gaussians)
def test_hash_consistent_with_fraction(a):
    if isinstance(a, Fraction):
        assert hash(gaussian(a, 0)) == hash(a)


def test_mixed_arithmetic_embeds_rationals():
    z = Fraction(1, 2) + I
    assert isinstance(z, GaussianRational)
    assert z.re == Fraction(1, 2) and z.im == 1
    assert Fraction(2) * z == gaussian(1, 2)
    assert z / I == gaussian(1, Fraction(-1, 2))


def test_gaussian_division():
    z = gaussian(1, 1)
    assert z * z == gaussian(0, 2)
    assert gaussian(0, 2) / z == z
    with pytest.raises(ZeroDivisionError):
        z / gaussian(0, 0)


@given(scalars)
def test_parse_format_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


def test_parse_examples():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-1/2*i") == gaussian(0, Fraction(-1, 2))
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("2 - 3*i") == gaussian(2, -3)
    with pytest.raises(ValueError):
        parse_scalar("3//4")


def test_power():
    assert I ** 2 == Fraction(-1)
    assert I ** -1 == -I
    assert gaussian(1, 1) ** 4 == Fraction(-4)
