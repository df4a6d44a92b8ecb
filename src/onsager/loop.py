"""The sl2 loop algebra and the fixed subalgebra realizing the Onsager algebra.

Elements are triples (p, q, r) of Laurent polynomials: the coefficients of
e, f, h in X = p(t)e + q(t)f + r(t)h, where [e,f] = h, [h,e] = 2e and
[h,f] = -2f.

The Chevalley involution omega sends e <-> f, h -> -h and t -> 1/t; its
fixed subalgebra has the basis

    b_m = t^m e + t^-m f   (m in Z)
    c_l = (t^l - t^-l) h   (l >= 1, with c_{-l} = -c_l)

and the realization map identifies A_m with b_m and G_l with (1/2) c_l.
No separate wrapper type exists for fixed elements: ``is_fixed`` tests the
component criterion q(t) = p(1/t), r(t) + r(1/t) = 0, and operations whose
contract needs a fixed element validate with ``require_fixed``.
"""

from __future__ import annotations

from fractions import Fraction

from .core import CoordinateTriple, OnsagerElement
from .polynomials import LaurentPoly, antisym_part
from .scalars import I, is_scalar


class LoopElement(CoordinateTriple):
    """p(t)e + q(t)f + r(t)h with exact Laurent polynomial components."""

    __slots__ = ("p", "q", "r")
    ATOMS = ("e", "f", "h")
    FACTORS = (LaurentPoly,)

    def __init__(self, p=None, q=None, r=None):
        super().__init__(p, q, r)

    @staticmethod
    def _coerce(value, atom) -> LaurentPoly:
        if isinstance(value, LaurentPoly):
            return value
        if is_scalar(value):
            return LaurentPoly.term(value)
        raise TypeError(f"not a polynomial component: {value!r}")

    def bracket(self, other: "LoopElement") -> "LoopElement":
        return loop_bracket(self, other)


ZERO = LoopElement()
E = LoopElement(p=1)
F = LoopElement(q=1)
H = LoopElement(r=1)


def loop_bracket(x: LoopElement, y: LoopElement) -> LoopElement:
    """Pointwise sl2 bracket: [p1 e + q1 f + r1 h, p2 e + q2 f + r2 h]."""
    p = 2 * (x.r * y.p - x.p * y.r)
    q = 2 * (x.q * y.r - x.r * y.q)
    r = x.p * y.q - x.q * y.p
    return LoopElement(p, q, r)


def chevalley(x: LoopElement) -> LoopElement:
    """The Chevalley involution: e <-> f, h -> -h composed with t -> 1/t."""
    return LoopElement(
        x.q.subs_inverse(),
        x.p.subs_inverse(),
        -x.r.subs_inverse(),
    )


def sigma(x: LoopElement) -> LoopElement:
    """The alternate involution: e -> -f, f -> -e, h -> -h with t -> 1/t."""
    return LoopElement(
        -x.q.subs_inverse(),
        -x.p.subs_inverse(),
        -x.r.subs_inverse(),
    )


def tau(x: LoopElement) -> LoopElement:
    """Conjugation by diag(i, 1) composed with t -> 1/t.

    On the sl2 factor: e -> i*e, f -> -i*f, h -> h.  Gaussian rational
    coefficients appear here and nowhere else.
    """
    return LoopElement(
        I * x.p.subs_inverse(),
        (-I) * x.q.subs_inverse(),
        x.r.subs_inverse(),
    )


def tau_inverse(x: LoopElement) -> LoopElement:
    return LoopElement(
        (-I) * x.p.subs_inverse(),
        I * x.q.subs_inverse(),
        x.r.subs_inverse(),
    )


def is_fixed(x: LoopElement) -> bool:
    """Component criterion for membership in the fixed subalgebra."""
    return x.q == x.p.subs_inverse() and (x.r + x.r.subs_inverse()).is_zero


def require_fixed(x: LoopElement) -> LoopElement:
    if not is_fixed(x):
        raise ValueError("loop element is not fixed by the Chevalley involution")
    return x


def basis_b(m: int) -> LoopElement:
    """b_m = t^m e + t^-m f."""
    return LoopElement(LaurentPoly.term(1, m), LaurentPoly.term(1, -m), None)


def basis_c(l: int) -> LoopElement:
    """c_l = (t^l - t^-l) h, with c_0 = 0 and c_{-l} = -c_l."""
    if l == 0:
        return ZERO
    return LoopElement(None, None, LaurentPoly({l: 1, -l: -1}))


def to_loop(x: OnsagerElement) -> LoopElement:
    """The realization isomorphism: A_m -> b_m, G_l -> (1/2) c_l."""
    p: dict = {}
    r: dict = {}
    for m, c in x.a_terms.items():
        p[m] = p.get(m, 0) + c
    half = Fraction(1, 2)
    for l, c in x.g_terms.items():
        r[l] = r.get(l, 0) + half * c
        r[-l] = r.get(-l, 0) - half * c
    p_poly = LaurentPoly(p)
    return LoopElement(p_poly, p_poly.subs_inverse(), LaurentPoly(r))


def from_loop(x: LoopElement) -> OnsagerElement:
    """Inverse of the realization map; the input must be a fixed element."""
    require_fixed(x)
    a_terms = {m: c for m, c in x.p.items()}
    r_plus = antisym_part(x.r)
    g_terms = {l: 2 * c for l, c in r_plus.items()}
    return OnsagerElement(a_terms, g_terms)
