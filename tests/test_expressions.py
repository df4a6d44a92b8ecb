from fractions import Fraction

import pytest

from onsager.core import A, G
from onsager.expressions import (
    ExpressionError,
    ParseError,
    RealizationError,
    format_value,
    parse,
    parse_element,
    parse_polynomial,
    parse_value,
)
from onsager.loop import basis_b, basis_c
from onsager.polynomials import LaurentPoly, ThreePointFraction
from onsager.tetra import from_v, u_elements, v_elements

from helpers import random_fixed_loop, random_onsager, random_velement, rng


def test_parse_bracket_node():
    ast = parse("[A_1, A_0]")
    assert ast[0] == "bracket"
    assert ast[1][0] == "atom" and ast[1][1] == "A_1"


def test_parse_sum_node():
    ast = parse("1/2*c_3 + b_-2")
    assert ast[0] == "add"


def test_long_sum_evaluates_without_recursion():
    # A sum parses to a left-deep chain; a printed high-degree element has
    # thousands of terms, more than the interpreter's recursion limit.
    assert parse_value(" + ".join(["A_1"] * 3000) + " - G_2") == 3000 * A(1) - G(2)


def test_mixed_realization_rejected():
    with pytest.raises(RealizationError):
        parse_value("[A_1, b_0]")
    with pytest.raises(RealizationError):
        parse_value("x + e")


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse("A_1 +* 2")
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse("[A_1, A_0")
    with pytest.raises(ParseError):
        parse("(1 + 2")
    with pytest.raises(ParseError):
        parse("A_1 @ A_0")


def test_evaluate_examples():
    assert parse_value("[A_1, A_0]") == 2 * G(1)
    assert parse_value("1/2*c_3 + b_-2") == Fraction(1, 2) * basis_c(3) + basis_b(-2)
    assert parse_value("(t-1)^2*(t+1)^2") == LaurentPoly({4: 1, 2: -2, 0: 1})
    assert parse_value("t - t^-1") == LaurentPoly({1: 1, -1: -1})
    assert parse_value("t'") == LaurentPoly({0: 1, -1: -1})
    assert parse_value("t''") == ThreePointFraction(LaurentPoly.one(), 0, 1)
    assert parse_value("u_1") == u_elements()[1]
    assert parse_value("v_0 + v_2") == v_elements()[0] + v_elements()[2]
    assert parse_value("i^2") == Fraction(-1)


def test_division_semantics():
    assert parse_value("(t^2-1)/(t-1)") == LaurentPoly({1: 1, 0: 1})
    assert parse_value("1/(1-t)") == ThreePointFraction(LaurentPoly.one(), 0, 1)
    assert parse_value("(t+1)/t^2") == LaurentPoly({-1: 1, -2: 1})
    # (t-1) is invertible in the three-point ring
    v = parse_value("1/(t-1)")
    assert isinstance(v, ThreePointFraction) and v.b == 1
    with pytest.raises(ExpressionError):
        parse_value("1/(t+1)")
    with pytest.raises(ExpressionError):
        parse_value("1/0")


def test_element_type_rules():
    with pytest.raises(ExpressionError):
        parse_value("A_0 * A_1")
    with pytest.raises(ExpressionError):
        parse_value("t*A_0")  # abstract-basis coefficients are scalars
    with pytest.raises(ExpressionError):
        parse_value("[t, A_0]")
    assert parse_value("t*b_0") == LaurentPoly({1: 1}) * basis_b(0)
    assert parse_value("A_0/2") == Fraction(1, 2) * A(0)


def test_parse_element_with_realization():
    assert parse_element("0", "onsager").is_zero
    with pytest.raises(ExpressionError):
        parse_element("0")
    with pytest.raises(RealizationError):
        parse_element("b_0", "onsager")


def test_parse_polynomial():
    assert parse_polynomial("t^2 + 3*t + 1") == LaurentPoly({2: 1, 1: 3, 0: 1})
    with pytest.raises(ExpressionError):
        parse_polynomial("t^-1")
    with pytest.raises(ExpressionError):
        parse_polynomial("b_0")


def test_round_trip_onsager():
    r = rng(81)
    for _ in range(100):
        x = random_onsager(r)
        if not x.is_zero:
            assert parse_value(format_value(x)) == x


def test_round_trip_loop():
    r = rng(82)
    for _ in range(100):
        x = random_fixed_loop(r)
        if not x.is_zero:
            assert parse_value(format_value(x)) == x


def test_round_trip_tetra_and_v():
    r = rng(83)
    for _ in range(100):
        v = random_velement(r)
        element = from_v(v)
        if element.is_zero:
            continue
        assert parse_value(format_value(element)) == element
        # v-coordinate printing round-trips through the tetra realization
        printed = format_value(v)
        if v.is_zero:
            continue
        assert parse_value(printed) == element


def test_round_trip_gaussian_loop():
    from onsager.loop import tau

    r = rng(84)
    for _ in range(30):
        x = tau(random_fixed_loop(r))
        if not x.is_zero:
            assert parse_value(format_value(x)) == x


def test_round_trip_three_point_fractions():
    r = rng(85)
    from helpers import random_polynomial

    for _ in range(60):
        f = ThreePointFraction(random_polynomial(r, 3), r.randint(0, 2), r.randint(0, 2))
        assert parse_value(format_value(f)) == f
