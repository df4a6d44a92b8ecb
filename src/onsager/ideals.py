"""Closed-ideal machinery on the fixed loop realization.

For a monic reciprocal polynomial P the set I_P of fixed elements with
P | p(t) and P | r(t) is an ideal.  Writing P = (t-1)^L (t+1)^K P* with
P*(1), P*(-1) nonzero, the enlarged polynomial

    tilde(P) = (t-1)^(2*[L/2]) (t+1)^(2*[K/2]) P*

controls the Z-operator: Z(I_P) consists of the fixed elements with
tilde(P) | p and P | r, so I_P is closed exactly when L and K are even.

Intersections follow the lcm, and quotient decompositions lift through an
explicit Chinese-remainder construction on cleared components.
"""

from __future__ import annotations

from fractions import Fraction

from .loop import LoopElement, require_fixed
from .polynomials import (
    T_MINUS_ONE,
    LaurentPoly,
    crt_solve,
    exact_div,
    format_laurent,
    laurent_divisible,
    monic,
    multiplicity_at,
    poly_lcm,
    reciprocal_sign,
    require_polynomial,
)

T_PLUS_ONE = LaurentPoly({1: 1, 0: 1})


class ReciprocalIdeal:
    """The divisibility ideal of a monic reciprocal polynomial P."""

    __slots__ = ("poly", "sign", "mult_one", "mult_minus_one", "star", "tilde")

    def __init__(self, poly: LaurentPoly):
        poly = require_polynomial(poly, "ideal generator")
        if poly.is_zero:
            raise ValueError("the zero polynomial does not define a divisibility ideal")
        poly = monic(poly)
        sign = reciprocal_sign(poly)
        if sign is None:
            raise ValueError(f"not a reciprocal polynomial: {format_laurent(poly)}")
        self.poly = poly
        self.sign = sign
        self.mult_one = multiplicity_at(poly, 1)
        self.mult_minus_one = multiplicity_at(poly, -1)
        star = poly
        for factor, count in ((T_MINUS_ONE, self.mult_one), (T_PLUS_ONE, self.mult_minus_one)):
            for _ in range(count):
                star = exact_div(star, factor)
        self.star = star
        self.tilde = (
            T_MINUS_ONE ** (2 * (self.mult_one // 2))
            * T_PLUS_ONE ** (2 * (self.mult_minus_one // 2))
            * star
        )

    def contains(self, x: LoopElement) -> bool:
        """Membership in I_P: P divides the e- and h-components.

        For reciprocal P the f-component condition is implied, since
        P(1/t) generates the same Laurent ideal as P.
        """
        require_fixed(x)
        return laurent_divisible(x.p, self.poly) and laurent_divisible(x.r, self.poly)

    def z_contains(self, x: LoopElement) -> bool:
        """Membership in Z(I_P): tilde(P) divides p, P divides r."""
        require_fixed(x)
        return laurent_divisible(x.p, self.tilde) and laurent_divisible(x.r, self.poly)

    def is_closed(self) -> bool:
        """Closed exactly when the multiplicities at t = 1 and t = -1 are even."""
        return self.mult_one % 2 == 0 and self.mult_minus_one % 2 == 0

    def intersect(self, other: "ReciprocalIdeal") -> "ReciprocalIdeal":
        """The intersection ideal, generated by the lcm."""
        lcm = poly_lcm(self.poly, other.poly)
        # The lcm of reciprocal polynomials is reciprocal; the constructor
        # re-validates and would raise if that ever failed.
        return ReciprocalIdeal(lcm)

    def equiv_mod(self, x: LoopElement, y: LoopElement) -> bool:
        """Quotient equality: x - y in I_P."""
        return self.contains(x - y)

    def membership_report(self, x: LoopElement) -> dict:
        """Structured verdict with per-component divisibility witnesses."""
        require_fixed(x)
        failures = []
        if not laurent_divisible(x.p, self.poly):
            failures.append("e-component not divisible")
        if not laurent_divisible(x.r, self.poly):
            failures.append("h-component not divisible")
        return {"member": not failures, "witness": failures}

    def __repr__(self):
        return f"ReciprocalIdeal({format_laurent(self.poly)})"


def divides_element(poly: LaurentPoly, x: LoopElement) -> bool:
    """General (not necessarily reciprocal) divisibility of a fixed element.

    All three component conditions are checked: P | p(t), P | p(1/t) and
    P | r(t).
    """
    require_fixed(x)
    poly = require_polynomial(poly, "divisor")
    if poly.is_zero:
        raise ValueError("divisibility by the zero polynomial is undefined")
    return (
        laurent_divisible(x.p, poly)
        and laurent_divisible(x.q, poly)
        and laurent_divisible(x.r, poly)
    )


def crt_lift(targets: list[tuple[LoopElement, ReciprocalIdeal]]) -> LoopElement:
    """A single fixed element congruent to each target modulo its ideal.

    Construction: pick N so t^N clears every component denominator,
    CRT-solve for the cleared e- and h-components, then symmetrize the
    h-part:  p = ptilde / t^N  and  q = (qtilde/t^N - t^N qtilde(1/t)) / 2.
    """
    if not targets:
        raise ValueError("no targets given")
    for x, _ in targets:
        require_fixed(x)
    # crt_solve rejects generators that are not pairwise coprime.
    moduli = [ideal.poly for _, ideal in targets]
    clear = 0
    for x, _ in targets:
        for comp in (x.p, x.r):
            if not comp.is_zero:
                clear = max(clear, -min(0, comp.valuation))
    p_residues = [x.p.shift(clear) for x, _ in targets]
    r_residues = [x.r.shift(clear) for x, _ in targets]
    p_tilde = crt_solve(p_residues, moduli)
    r_tilde = crt_solve(r_residues, moduli)
    p = p_tilde.shift(-clear)
    half = Fraction(1, 2)
    r = half * (r_tilde.shift(-clear) - r_tilde.subs_inverse().shift(clear))
    return require_fixed(LoopElement(p, p.subs_inverse(), r))
