"""Golden table of exact printer output for every element type.

Each row pins the canonical text of one element, so the printers of the
abstract, loop, three-point and v realizations (and of Laurent
polynomials) stay byte-identical across refactors.
"""

from fractions import Fraction

import pytest

from onsager.core import ZERO
from onsager.expressions import format_value, parse_value
from onsager.loop import ZERO as LOOP_ZERO
from onsager.polynomials import LaurentPoly
from onsager.scalars import I, gaussian
from onsager.tetra import TP_ZERO, V_ZERO, VElement

PARSED_GOLDEN = [
    # abstract basis: unit, negative leading, rational, Gaussian
    ("A_1", "A_1"),
    ("-A_1 + G_2", "-A_1 + G_2"),
    ("1/2*A_-2 - 3/4*G_1", "1/2*A_-2 - 3/4*G_1"),
    ("i*A_1", "(i)*A_1"),
    ("(1+i)*A_1 - G_1", "(1 + i)*A_1 - G_1"),
    ("-(1+i)*A_1", "(-1 - i)*A_1"),
    # loop atoms: monomial and multi-term Laurent coefficients
    ("e", "e"),
    ("-f + h", "-f + h"),
    ("3/2*e - 1/3*h", "3/2*e - 1/3*h"),
    ("t*e", "t*e"),
    ("-t^-2*f", "-t^-2*f"),
    ("2*t^3*h", "2*t^3*h"),
    ("i*e", "(i)*e"),
    ("(1+i)*e", "(1 + i)*e"),
    ("(1+i)*t*e", "(1 + i)*t*e"),
    ("(t+1)*e - (t^2-3/2)*h", "(t + 1)*e + (-t^2 + 3/2)*h"),
    ("(t - t^-1)*h", "(t - t^-1)*h"),
    ("(-t+1)*e", "(-t + 1)*e"),
    # three-point atoms: Laurent and (1-t)-denominator coefficients
    ("x", "x"),
    ("-y + z", "-y + z"),
    ("1/2*x", "1/2*x"),
    ("t*y", "t*y"),
    ("(t-1)*z", "(t - 1)*z"),
    ("t''*y", "((1)/(1-t))*y"),
    ("-t''*y", "((-1)/(1-t))*y"),
    ("t'*x", "(1 - t^-1)*x"),
    ("(t^2+1)/(1-t)^2*z", "((t^2 + 1)/(1-t)^2)*z"),
    ("1/t*(1/(1-t))*x", "((1)/(t*(1-t)))*x"),
    ("i*x", "(i)*x"),
    ("(1+i)*y", "(1 + i)*y"),
    ("v_0", "-1/4*x - 1/4*t*y + (1/4*t - 1/4)*z"),
    ("-v_2", "1/4*x - 1/4*t*y + (-1/4*t + 1/4)*z"),
]


@pytest.mark.parametrize("expr,expected", PARSED_GOLDEN)
def test_printer_golden_parsed(expr, expected):
    assert format_value(parse_value(expr)) == expected


ONE = LaurentPoly.one()
T = LaurentPoly({1: 1})

DIRECT_GOLDEN = [
    (VElement(ONE), "v_0"),
    (VElement(None, -ONE, 2 * T), "-v_1 + 2*t*v_2"),
    (VElement(Fraction(1, 2) * ONE, None, T * T - ONE), "1/2*v_0 + (t^2 - 1)*v_2"),
    (VElement(I * ONE, None, (1 + I) * T), "(i)*v_0 + (1 + i)*t*v_2"),
    (VElement(-T, T + ONE, Fraction(-3, 4) * ONE), "-t*v_0 + (t + 1)*v_1 - 3/4*v_2"),
    (ZERO, "0"),
    (LOOP_ZERO, "0"),
    (TP_ZERO, "0"),
    (V_ZERO, "0"),
    (LaurentPoly.zero(), "0"),
    (LaurentPoly({0: 1}), "1"),
    (LaurentPoly({0: -1, 2: I}), "(i)*t^2 - 1"),
    (LaurentPoly({-1: Fraction(-1, 2), 3: 1, 0: gaussian(1, 1)}), "t^3 + (1 + i) - 1/2*t^-1"),
]


@pytest.mark.parametrize("value,expected", DIRECT_GOLDEN)
def test_printer_golden_direct(value, expected):
    assert str(value) == expected
