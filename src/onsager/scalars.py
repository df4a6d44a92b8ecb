"""Exact scalar arithmetic: rationals and Gaussian rationals.

Plain rationals are ``fractions.Fraction`` values.  Gaussian rationals
(a + b*i with rational a, b) get their own class; any result whose
imaginary part vanishes normalizes back to a plain ``Fraction``, so every
scalar value has exactly one canonical representation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


@dataclass(frozen=True)
class GaussianRational:
    """A Gaussian rational a + b*i with exact rational parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return gaussian(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("scalar division by zero")
        return gaussian(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (Fraction(1) / self) ** (-n)
        result: Scalar = Fraction(1)
        base: Scalar = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


Scalar = Union[Fraction, GaussianRational]


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    return NotImplemented


def gaussian(re, im=0) -> Scalar:
    """Build a scalar from rational parts, normalizing im == 0 to Fraction."""
    re = Fraction(re)
    im = Fraction(im)
    if im == 0:
        return re
    return GaussianRational(re, im)


I = gaussian(0, 1)


def as_scalar(value) -> Scalar:
    """Coerce an int/Fraction/GaussianRational into canonical scalar form."""
    if isinstance(value, GaussianRational):
        return gaussian(value.re, value.im)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"not a scalar: {value!r}")


def is_scalar(value) -> bool:
    return isinstance(value, (int, Fraction, GaussianRational))


_RAT = r"-?\d+(?:\s*/\s*\d+)?"
_IMAG_RE = re.compile(
    rf"^\s*(?:(?P<re>{_RAT})\s*(?P<sign>[+-])\s*)?(?P<coef>-|{_RAT}\s*\*\s*)?i\s*$"
)


def parse_scalar(text: str) -> Scalar:
    """Parse canonical scalar text: 'p/q', 'p/q*i', 'a + b*i', 'i', '-i'."""
    stripped = text.strip()
    if "i" not in stripped:
        try:
            return Fraction(stripped.replace(" ", ""))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse scalar: {text!r}") from exc
    m = _IMAG_RE.match(stripped)
    if not m or (m.group("sign") and m.group("coef") == "-"):
        raise ValueError(f"cannot parse scalar: {text!r}")
    re_part = Fraction(m.group("re").replace(" ", "")) if m.group("re") else Fraction(0)
    coef = m.group("coef")
    if coef is None:
        im_part = Fraction(1)
    elif coef == "-":
        im_part = Fraction(-1)
    else:
        im_part = Fraction(coef.rstrip("* \t").replace(" ", ""))
    if m.group("sign") == "-":
        im_part = -im_part
    return gaussian(re_part, im_part)


def format_scalar(s: Scalar) -> str:
    """Canonical text for a scalar; inverse of parse_scalar."""
    s = as_scalar(s)
    if isinstance(s, Fraction):
        return str(s)
    if s.re == 0:
        return _format_imag(s.im)
    sign = "-" if s.im < 0 else "+"
    return f"{s.re} {sign} {_format_imag(abs(s.im)).lstrip('-')}"


def _format_imag(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{b}*i"
