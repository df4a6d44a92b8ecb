"""Sparse exact polynomial machinery over the rational scalars.

Three rings live here:

* ``LaurentPoly`` — k[t, t^-1] as a map from integer exponents to nonzero
  scalar coefficients (the empty map is zero).  Plain polynomials in k[t]
  are Laurent polynomials whose valuation is >= 0; the k[t]-only helpers
  below validate that.
* ``ThreePointFraction`` — the ring k[t, t^-1, (1-t)^-1]: a polynomial
  numerator over a denominator t^a * (1-t)^b, kept canonical (no common
  t or (1-t) factor between numerator and denominator).

The number-theoretic toolkit (gcd, lcm, CRT, multiplicities, reciprocal
test, antisymmetric decomposition, Laurent divisibility) operates on these
representations and is exact throughout.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .scalars import GaussianRational, Scalar, as_scalar, format_scalar, is_scalar


class LaurentPoly:
    """A sparse Laurent polynomial: {exponent: nonzero coefficient}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = as_scalar(c)
                if c != 0:
                    clean[int(e)] = c
        self._terms = clean

    @classmethod
    def term(cls, coeff, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_polynomial(self) -> bool:
        """True when no negative exponents occur (element of k[t])."""
        return all(e >= 0 for e in self._terms)

    @property
    def degree(self) -> int:
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self._terms)

    @property
    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("valuation of the zero polynomial is undefined")
        return min(self._terms)

    def coeff(self, exp: int) -> Scalar:
        return self._terms.get(exp, Fraction(0))

    def items(self):
        return self._terms.items()

    def support(self):
        return sorted(self._terms)

    @property
    def leading_coeff(self) -> Scalar:
        return self._terms[self.degree]

    @property
    def is_monic(self) -> bool:
        return bool(self._terms) and self.leading_coeff == 1

    def __add__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return _wrap(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _wrap({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if is_scalar(other):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self._terms) != 1:
                raise ValueError("negative powers exist only for monomials")
            ((e, c),) = self._terms.items()
            return LaurentPoly({e * n: (Fraction(1) / c) ** (-n)})
        result = _ONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if is_scalar(other):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return _wrap({e + k: c for e, c in self._terms.items()})

    def subs_inverse(self) -> "LaurentPoly":
        """Substitute t -> t^-1 (negate every exponent)."""
        return _wrap({-e: c for e, c in self._terms.items()})

    def evaluate(self, point) -> Scalar:
        """Evaluate at a scalar point (nonzero if negative exponents occur)."""
        point = as_scalar(point)
        total: Scalar = Fraction(0)
        for e, c in self._terms.items():
            if e < 0 and point == 0:
                raise ZeroDivisionError("evaluating a negative power at 0")
            total = total + c * point ** e
        return total

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return f"LaurentPoly({self._terms!r})"


def _wrap(terms: dict) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = {e: c for e, c in terms.items() if c != 0}
    return p


def _as_laurent(value):
    if isinstance(value, LaurentPoly):
        return value
    if is_scalar(value):
        return LaurentPoly.term(value)
    return NotImplemented


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})
T = LaurentPoly({1: 1})
T_MINUS_ONE = LaurentPoly({1: 1, 0: -1})
ONE_MINUS_T = LaurentPoly({0: 1, 1: -1})


def format_terms(terms) -> str:
    """Canonical signed-term text for (atom, coefficient) pairs.

    A coefficient is a scalar, a LaurentPoly or a ThreePointFraction.  Zero
    coefficients are skipped and an empty sum prints as '0'.  A monomial
    coefficient prints inline as 'c*t^e*atom' (a Gaussian c parenthesized),
    any other coefficient as '(coefficient)*atom'.  The empty atom stands
    for the unit, which is how format_laurent prints its own terms.
    """
    chunks = []
    for atom, coeff in terms:
        if not coeff:
            continue
        body, negative = _format_term(atom, coeff)
        if chunks:
            chunks.append(f"- {body}" if negative else f"+ {body}")
        else:
            chunks.append(f"-{body}" if negative else body)
    return " ".join(chunks) or "0"


def _format_term(atom: str, coeff) -> tuple[str, bool]:
    """Render coeff*atom; returns (text_without_sign, leading_minus)."""
    if isinstance(coeff, ThreePointFraction):
        if coeff.b:
            return f"({format_fraction(coeff)})*{atom}", False
        coeff = coeff.to_laurent()
    if isinstance(coeff, LaurentPoly):
        if len(coeff._terms) > 1:
            return f"({format_laurent(coeff)})*{atom}", False
        ((e, coeff),) = coeff._terms.items()
        atom = "*".join(filter(None, (_t_power(e), atom)))
    if isinstance(coeff, GaussianRational):
        prefix, negative = f"({format_scalar(coeff)})", False
    else:
        negative = coeff < 0
        mag = -coeff if negative else coeff
        prefix = None if mag == 1 else str(mag)
    return "*".join(filter(None, (prefix, atom))) or "1", negative


def _t_power(e: int) -> str:
    return "" if e == 0 else "t" if e == 1 else f"t^{e}"


def format_laurent(p: LaurentPoly) -> str:
    """Canonical text: terms in descending exponent, 'c*t^e' pieces."""
    return format_terms((_t_power(e), p._terms[e]) for e in sorted(p._terms, reverse=True))


def require_polynomial(p: LaurentPoly, what: str = "polynomial") -> LaurentPoly:
    if not isinstance(p, LaurentPoly):
        p = _as_laurent(p)
        if p is NotImplemented:
            raise TypeError(f"{what}: not a polynomial value")
    if not p.is_polynomial:
        raise ValueError(f"{what}: negative exponents are not allowed here")
    return p


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder in k[t]."""
    a = require_polynomial(a, "dividend")
    b = require_polynomial(b, "divisor")
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q: dict = {}
    r = a
    db = b.degree
    lb = b.leading_coeff
    while not r.is_zero and r.degree >= db:
        e = r.degree - db
        c = r.leading_coeff / lb
        q[e] = q.get(e, 0) + c
        r = r - LaurentPoly({e: c}) * b
    return _wrap(q), r


def poly_mod(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    return poly_divmod(a, b)[1]


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The quotient a / b in k[t] where b divides a; a remainder raises."""
    q, r = poly_divmod(a, b)
    if not r.is_zero:
        raise ArithmeticError(f"{format_laurent(b)} does not divide {format_laurent(a)}")
    return q


def monic(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    lead = p.leading_coeff
    if lead == 1:
        return p
    return p * (Fraction(1) / lead)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd in k[t]; errors when both inputs are zero."""
    a = require_polynomial(a, "gcd argument")
    b = require_polynomial(b, "gcd argument")
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, poly_mod(a, b)
    return monic(a)


def poly_lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic lcm in k[t]: gcd * lcm equals the monic normalization of a*b."""
    if a.is_zero or b.is_zero:
        raise ValueError("lcm with a zero polynomial is undefined")
    return monic(exact_div(a * b, poly_gcd(a, b)))


def poly_xgcd(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Extended Euclid: returns (g, s, u) with s*a + u*b = g, g monic."""
    a = require_polynomial(a)
    b = require_polynomial(b)
    r0, r1 = a, b
    s0, s1 = _ONE, _ZERO
    u0, u1 = _ZERO, _ONE
    while not r1.is_zero:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    if r0.is_zero:
        raise ValueError("xgcd(0, 0) is undefined")
    lead = r0.leading_coeff
    inv = Fraction(1) / lead
    return r0 * inv, s0 * inv, u0 * inv


def crt_solve(residues: Iterable[LaurentPoly], moduli: Iterable[LaurentPoly]) -> LaurentPoly:
    """Chinese remainder solve in k[t] over pairwise coprime moduli.

    The result is reduced modulo the product, so its degree is below
    deg(prod moduli).  Non-coprime moduli raise, reporting the common factor.
    """
    residues = [require_polynomial(r, "residue") for r in residues]
    moduli = [require_polynomial(m, "modulus") for m in moduli]
    if len(residues) != len(moduli):
        raise ValueError("residue/modulus count mismatch")
    if not moduli:
        raise ValueError("no moduli given")
    for m in moduli:
        if m.is_zero:
            raise ValueError("zero modulus")
    x = poly_mod(residues[0], moduli[0])
    m_all = moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        # gcd(m_1...m_{k-1}, m_k) = 1 at every step iff the moduli are pairwise coprime.
        g, s, u = poly_xgcd(m_all, m)
        if g != _ONE:
            raise ValueError(f"moduli are not coprime: common factor {format_laurent(g)}")
        # s*m_all + u*m = 1, so x + (r - x)*s*m_all is r mod m, x mod m_all
        x = poly_mod(x + (r - x) * s * m_all, m_all * m)
        m_all = m_all * m
    return x


def multiplicity_at(p: LaurentPoly, c) -> int:
    """Largest k with (t - c)^k dividing p, for nonzero p in k[t]."""
    p = require_polynomial(p)
    if p.is_zero:
        raise ValueError("multiplicity in the zero polynomial is undefined")
    factor = LaurentPoly({1: 1, 0: -as_scalar(c)})
    count = 0
    while p.evaluate(c) == 0:
        p = exact_div(p, factor)
        count += 1
    return count


def reciprocal_sign(p: LaurentPoly) -> Optional[int]:
    """The sign s with p(t) = s * t^d * p(1/t), or None when neither fits.

    Requires a nonzero monic polynomial; equivalently tests whether the
    coefficient sequence is palindromic up to a global sign.
    """
    p = require_polynomial(p)
    if p.is_zero:
        raise ValueError("the zero polynomial is not reciprocal-testable")
    if not p.is_monic:
        raise ValueError("reciprocal test requires a monic polynomial")
    reversed_p = p.subs_inverse().shift(p.degree)
    if reversed_p == p:
        return 1
    if reversed_p == -p:
        return -1
    return None


def antisym_part(r: LaurentPoly) -> LaurentPoly:
    """The unique r_+ in t*k[t] with r(t) = r_+(t) - r_+(1/t).

    The input must satisfy r(t) + r(1/t) = 0; a violating exponent pair is
    reported otherwise.
    """
    for e, c in r.items():
        if c != -r.coeff(-e):
            raise ValueError(
                f"not antisymmetric: coefficients at exponents {e} and {-e} do not cancel"
            )
    return _wrap({e: c for e, c in r.items() if e > 0})


def laurent_divisible(x: LaurentPoly, p: LaurentPoly) -> bool:
    """Whether x lies in p(t) * k[t, t^-1].

    Powers of t are units, so any t^k factor of p is stripped first and x
    is shifted into k[t] before the remainder test.
    """
    p = require_polynomial(p, "divisor")
    if p.is_zero:
        raise ValueError("divisibility by the zero polynomial is undefined")
    if x.is_zero:
        return True
    p = p.shift(-p.valuation)
    y = x.shift(-min(0, x.valuation))
    return poly_mod(y, p).is_zero


class ThreePointFraction:
    """An element of k[t, t^-1, (1-t)^-1]: num / (t^a * (1-t)^b), canonical."""

    __slots__ = ("num", "a", "b")

    def __init__(self, num, a: int = 0, b: int = 0):
        num = _as_laurent(num)
        if num is NotImplemented:
            raise TypeError("numerator must be a polynomial value")
        if a < 0 or b < 0:
            raise ValueError("denominator exponents must be nonnegative")
        # Pull any negative t-powers of the numerator into the denominator.
        if not num.is_zero and num.valuation < 0:
            a += -num.valuation
            num = num.shift(-num.valuation)
        require_polynomial(num, "numerator")
        if num.is_zero:
            a = b = 0
        else:
            while a > 0 and num.valuation >= 1:
                num = num.shift(-1)
                a -= 1
            while b > 0 and num.evaluate(1) == 0:
                num = exact_div(num, ONE_MINUS_T)
                b -= 1
        self.num = num
        self.a = a
        self.b = b

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def to_laurent(self) -> LaurentPoly:
        if self.b != 0:
            raise ValueError("nonzero (1-t) denominator: not a Laurent polynomial")
        return self.num.shift(-self.a)

    def __add__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        a = max(self.a, other.a)
        b = max(self.b, other.b)
        left = self.num.shift(a - self.a) * ONE_MINUS_T ** (b - self.b)
        right = other.num.shift(a - other.a) * ONE_MINUS_T ** (b - other.b)
        return ThreePointFraction(left + right, a, b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        out = ThreePointFraction.__new__(ThreePointFraction)
        out.num = -self.num
        out.a = self.a
        out.b = self.b
        return out

    def __mul__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return ThreePointFraction(self.num * other.num, self.a + other.a, self.b + other.b)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.a == other.a and self.b == other.b

    def __bool__(self):
        return not self.is_zero

    def div_t(self) -> "ThreePointFraction":
        return ThreePointFraction(self.num, self.a + 1, self.b)

    def div_one_minus_t(self) -> "ThreePointFraction":
        return ThreePointFraction(self.num, self.a, self.b + 1)

    def __str__(self):
        return format_fraction(self)

    def __repr__(self):
        return f"ThreePointFraction({self.num!r}, {self.a}, {self.b})"


def _as_fraction(value):
    if isinstance(value, ThreePointFraction):
        return value
    p = _as_laurent(value)
    if p is NotImplemented:
        return NotImplemented
    return ThreePointFraction(p)


def format_fraction(f: ThreePointFraction) -> str:
    if f.b == 0:
        return format_laurent(f.num.shift(-f.a))
    pieces = []
    if f.a:
        pieces.append(_t_power(f.a))
    pieces.append("(1-t)" if f.b == 1 else f"(1-t)^{f.b}")
    # A single piece binds tighter than '/' already ('^' outranks '/').
    den = pieces[0] if len(pieces) == 1 else "(" + "*".join(pieces) + ")"
    return f"({format_laurent(f.num)})/{den}"


TP_T_PRIME = ThreePointFraction(LaurentPoly({0: 1, -1: -1}))
TP_T_DPRIME = ThreePointFraction(_ONE, 0, 1)
