"""The tetrahedron algebra through its three-point loop realization.

Generators X_ij (i != j in {0,1,2,3}) map into sl2 tensored with the
three-point ring k[t, 1/t, 1/(1-t)]; elements are stored in the equitable
basis x, y, z of sl2, which satisfies [x,y] = 2(x+y), [y,z] = 2(y+z),
[z,x] = 2(z+x).

Two non-adjacent edges generate a copy of the Onsager algebra; the
embedding used here is pinned to the edge pair (1,2), (0,3).  Its image is
the free k[t]-module on

    v_0 = u_0 (t-1),   v_1 = u_1,   v_2 = u_2 t

with the k[t]-bilinear bracket

    [v_0, v_1] = -v_2 (t-1),   [v_1, v_2] = -v_0,   [v_2, v_0] = v_1 t,

so Onsager elements convert to and from coordinate triples over k[t].

The basis images are closed forms in the Chebyshev polynomials T_n, U_n
(Hartwig & Terwilliger, J. Algebra 308, 2007; Mason & Handscomb, Chebyshev
Polynomials, 2003, ch. 1).  With k = m-1 and s = (-1)^k,

    A_m, A_{1-m} -> 2s U_{2k}(sqrt t) v_1 +- 2s (T_{2k+1}(sqrt t)/sqrt t) v_2,
    G_l          -> 4 U_{l-1}(1-2t) v_0,

and both A-coordinates are even in sqrt t, hence polynomials in t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import ZERO, A, CoordinateTriple, G, OnsagerElement
from .polynomials import (
    T,
    T_MINUS_ONE,
    LaurentPoly,
    ThreePointFraction,
    require_polynomial,
)

QUARTER = Fraction(1, 4)


class ThreePointElement(CoordinateTriple):
    """cx*x + cy*y + cz*z with three-point fraction coordinates."""

    __slots__ = ("cx", "cy", "cz")
    ATOMS = ("x", "y", "z")
    FACTORS = (LaurentPoly, ThreePointFraction)

    def __init__(self, cx=None, cy=None, cz=None):
        super().__init__(cx, cy, cz)

    @staticmethod
    def _coerce(value, atom) -> ThreePointFraction:
        return value if isinstance(value, ThreePointFraction) else ThreePointFraction(value)

    def bracket(self, other: "ThreePointElement") -> "ThreePointElement":
        return tp_bracket(self, other)


TP_ZERO = ThreePointElement()
X_ATOM = ThreePointElement(cx=LaurentPoly.one())
Y_ATOM = ThreePointElement(cy=LaurentPoly.one())
Z_ATOM = ThreePointElement(cz=LaurentPoly.one())


def tp_bracket(a: ThreePointElement, b: ThreePointElement) -> ThreePointElement:
    """Bilinear bracket over the three-point ring via the equitable constants."""
    pxy = a.cx * b.cy - a.cy * b.cx
    pyz = a.cy * b.cz - a.cz * b.cy
    pzx = a.cz * b.cx - a.cx * b.cz
    two = Fraction(2)
    return ThreePointElement(
        two * (pxy + pzx),
        two * (pxy + pyz),
        two * (pyz + pzx),
    )


# Images of the six forward generators; the reversed pairs are negatives.
_T_PRIME = ThreePointFraction(T_MINUS_ONE, 1, 0)          # 1 - 1/t
_T_PRIME_MINUS_ONE = ThreePointFraction(LaurentPoly.term(-1), 1, 0)   # -1/t
_T_DPRIME = ThreePointFraction(LaurentPoly.one(), 0, 1)   # 1/(1-t)
_T_DPRIME_MINUS_ONE = ThreePointFraction(T, 0, 1)         # t/(1-t)

_PSI_TABLE = {
    (1, 2): ThreePointElement(cx=LaurentPoly.one()),
    (2, 3): ThreePointElement(cy=LaurentPoly.one()),
    (3, 1): ThreePointElement(cz=LaurentPoly.one()),
    (0, 3): ThreePointElement(cy=T, cz=T_MINUS_ONE),
    (0, 1): ThreePointElement(cx=_T_PRIME_MINUS_ONE, cz=_T_PRIME),
    (0, 2): ThreePointElement(cx=_T_DPRIME, cy=_T_DPRIME_MINUS_ONE),
}


def psi_generator(i: int, j: int) -> ThreePointElement:
    """The image of the generator X_ij; X_ji maps to the negative."""
    if i == j:
        raise ValueError("generator indices must differ")
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise ValueError("generator indices must lie in {0,1,2,3}")
    if (i, j) in _PSI_TABLE:
        return _PSI_TABLE[(i, j)]
    return -_PSI_TABLE[(j, i)]


@lru_cache(maxsize=1)
def u_elements() -> tuple[ThreePointElement, ThreePointElement, ThreePointElement]:
    """The generating triple u_0, u_1, u_2 of the three-point algebra."""
    u0 = QUARTER * (psi_generator(0, 2) + psi_generator(3, 1))
    u1 = QUARTER * (psi_generator(0, 3) + psi_generator(1, 2))
    u2 = QUARTER * (psi_generator(0, 1) + psi_generator(2, 3))
    return u0, u1, u2


@lru_cache(maxsize=1)
def v_elements() -> tuple[ThreePointElement, ThreePointElement, ThreePointElement]:
    """v_0 = u_0(t-1), v_1 = u_1, v_2 = u_2 t: a free k[t]-module basis."""
    u0, u1, u2 = u_elements()
    return T_MINUS_ONE * u0, u1, T * u2


class VElement(CoordinateTriple):
    """Coordinates (q0, q1, q2) over k[t] in the basis v_0, v_1, v_2."""

    __slots__ = ("q0", "q1", "q2")
    ATOMS = ("v_0", "v_1", "v_2")
    FACTORS = (LaurentPoly,)

    def __init__(self, q0=None, q1=None, q2=None):
        super().__init__(q0, q1, q2)

    @staticmethod
    def _coerce(value, atom) -> LaurentPoly:
        return require_polynomial(value, f"{atom} coordinate")

    def bracket(self, other: "VElement") -> "VElement":
        return v_bracket(self, other)


V_ZERO = VElement()


def v_bracket(a: VElement, b: VElement) -> VElement:
    """k[t]-bilinear extension of the v-basis relations."""
    wedge01 = a.q0 * b.q1 - a.q1 * b.q0
    wedge12 = a.q1 * b.q2 - a.q2 * b.q1
    wedge20 = a.q2 * b.q0 - a.q0 * b.q2
    return VElement(-wedge12, T * wedge20, -(T_MINUS_ONE) * wedge01)


def from_v(v: VElement) -> ThreePointElement:
    """Expand coordinates against the stored v-basis elements."""
    v0, v1, v2 = v_elements()
    return v.q0 * v0 + v.q1 * v1 + v.q2 * v2


def to_v(element: ThreePointElement) -> VElement:
    """Coordinates of a three-point element in the free module on v_0, v_1, v_2.

    Inverts the 3x3 change of basis between the equitable coordinates and
    the v-basis; inputs outside the module raise, naming the coordinate
    that fails to land in k[t].
    """
    cy_over_t = element.cy.div_t()
    cz_over = -(element.cz.div_one_minus_t())
    four_cx = Fraction(4) * element.cx
    q0 = Fraction(2) * (cz_over - cy_over_t)
    q2 = Fraction(2) * (cy_over_t - element.cx)
    q1 = four_cx + q0 + q2
    coords = []
    for name, frac in (("v_0", q0), ("v_1", q1), ("v_2", q2)):
        if frac.a != 0 or frac.b != 0:
            raise ValueError(f"element lies outside the v-module: {name} coordinate is not in k[t]")
        coords.append(frac.num)
    result = VElement(*coords)
    return result


# --- The Onsager embedding pinned to the edge pair (1,2), (0,3). ---


def _lane_images(k: int) -> tuple[list, list, list]:
    """Ascending integer coefficients of G_{k+1} in v_0 and of A_{k+1} in v_1, v_2.

    With b_i = (-4)^i C(k+i, 2i), the t^i coefficient of (-1)^k U_{2k}(sqrt t),
    they are 4 (-4)^i C(k+1+i, 2i+1), 2 b_i and 2 b_i (2k+1)/(2i+1).
    """
    b = [1]
    for i in range(k):  # C(k+i+1, 2i+2) / C(k+i, 2i) = (k+i+1)(k-i) / ((2i+1)(2i+2))
        b.append(-4 * b[i] * (k + i + 1) * (k - i) // ((2 * i + 1) * (2 * i + 2)))
    return (
        [4 * x * (k + 1 + i) // (2 * i + 1) for i, x in enumerate(b)],
        [2 * x for x in b],
        [2 * x * (2 * k + 1) // (2 * i + 1) for i, x in enumerate(b)],
    )


def _poly(coeffs) -> LaurentPoly:
    return LaurentPoly(dict(enumerate(coeffs)))


def phi_v(x: OnsagerElement) -> VElement:
    """The embedding into v-coordinates: linear extension of the closed forms."""
    out = V_ZERO
    for m, c in x.a_terms.items():
        _, v1, v2 = _lane_images(m - 1 if m >= 1 else -m)
        out = out + c * VElement(None, _poly(v1), _poly(v2) if m >= 1 else -_poly(v2))
    for l, c in x.g_terms.items():
        out = out + c * VElement(_poly(_lane_images(l - 1)[0]))
    return out


def phi(x: OnsagerElement) -> ThreePointElement:
    """The embedding of the Onsager algebra into the three-point algebra."""
    return from_v(phi_v(x))


def phi_inverse(v: VElement) -> OnsagerElement:
    """Invert the embedding on the v-module, one lane at a time.

    In degree k the v_0, v_1 and v_2 lanes are spanned by the images of
    G_{k+1}, A_{k+1} + A_{-k} and A_{k+1} - A_{-k}, each of degree exactly
    k, so peeling leading terms from the top degree down finds the preimage.
    """
    result = ZERO
    for lane, poly in enumerate(v.coords()):
        rest = [poly.coeff(i) for i in range(poly.degree + 1)] if poly else []
        for k in reversed(range(len(rest))):
            if rest[k] != 0:
                # A_{-k} has the v_1 coordinate of A_{k+1} and its negated v_2 one.
                image = [x * (2 if lane else 1) for x in _lane_images(k)[lane]]
                w = rest[k] * Fraction(1, image[k])
                rest = [r - w * x for r, x in zip(rest, image)]
                result = result + w * (G(k + 1) if lane == 0 else A(k + 1) + (A(-k) if lane == 1 else -A(-k)))
    # Every polynomial triple has a preimage; the round trip guards the closed forms.
    if phi_v(result) != v:
        raise ValueError("v-element is not in the image of the embedding (round trip failed)")
    return result


# --- Relation verification and the linear-independence witness. ---


@dataclass(frozen=True)
class CheckRecord:
    name: str
    detail: str
    ok: bool
    defect: str = ""


@dataclass(frozen=True)
class VerificationReport:
    records: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.records)


def verify_tetra_relations() -> VerificationReport:
    """Check every generator-relation instance under the realization map."""
    records = []
    indices = range(4)
    for i in indices:
        for j in indices:
            if i < j:
                defect = psi_generator(i, j) + psi_generator(j, i)
                records.append(
                    CheckRecord("antisymmetry", f"X_{i}{j} + X_{j}{i}", defect.is_zero, _fmt_defect(defect))
                )
    for i in indices:
        for j in indices:
            for k in indices:
                if len({i, j, k}) == 3:
                    a = psi_generator(i, j)
                    b = psi_generator(j, k)
                    defect = tp_bracket(a, b) - 2 * (a + b)
                    records.append(
                        CheckRecord(
                            "adjacent-edges", f"[X_{i}{j}, X_{j}{k}] = 2(X_{i}{j} + X_{j}{k})",
                            defect.is_zero, _fmt_defect(defect),
                        )
                    )
    for h in indices:
        for i in indices:
            for j in indices:
                for k in indices:
                    if len({h, i, j, k}) == 4:
                        a = psi_generator(h, i)
                        b = psi_generator(j, k)
                        ab = tp_bracket(a, b)
                        defect = tp_bracket(a, tp_bracket(a, ab)) - 4 * ab
                        records.append(
                            CheckRecord(
                                "opposite-edges",
                                f"[X_{h}{i},[X_{h}{i},[X_{h}{i},X_{j}{k}]]] = 4[X_{h}{i},X_{j}{k}]",
                                defect.is_zero, _fmt_defect(defect),
                            )
                        )
    for face in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        h, i, j = face
        ok = True
        for a_pair, b_pair in (((h, i), (i, j)), ((i, j), (j, h)), ((j, h), (h, i))):
            a = psi_generator(*a_pair)
            b = psi_generator(*b_pair)
            if not (tp_bracket(a, b) - 2 * (a + b)).is_zero:
                ok = False
        records.append(CheckRecord("face-equitable", f"face {{{h},{i},{j}}}", ok))
    return VerificationReport(tuple(records))


def _fmt_defect(defect) -> str:
    return "" if defect.is_zero else str(defect)


@dataclass(frozen=True)
class WitnessEntry:
    start: str
    power: int
    lane: str
    degree: int
    leading: object
    element: VElement


@dataclass(frozen=True)
class IndependenceWitness:
    entries: tuple
    leading_monomials_distinct: bool


def independence_witness(max_m: int) -> IndependenceWitness:
    """Iterate ad of v_0 = u_0(t-1) on u_1 and u_2*t and track leading terms.

    Every iterate stays in a single v-module lane (v_1 or v_2), alternating
    with each application, and the leading monomials are pairwise distinct
    on the window, which witnesses linear independence of the images.
    """
    v0 = VElement(LaurentPoly.one(), None, None)
    entries = []
    for start_name, start in (("u_1", VElement(None, LaurentPoly.one(), None)),
                              ("u_2*t", VElement(None, None, LaurentPoly.one()))):
        current = start
        for m in range(max_m + 1):
            if not current.q0.is_zero:
                raise AssertionError("iterate left the v_1/v_2 lanes")
            if not current.q1.is_zero and not current.q2.is_zero:
                raise AssertionError("iterate is not lane-pure")
            lane, poly = ("v_1", current.q1) if not current.q1.is_zero else ("v_2", current.q2)
            entries.append(
                WitnessEntry(start_name, m, lane, poly.degree, poly.coeff(poly.degree), current)
            )
            current = v_bracket(v0, current)
    seen = {(e.lane, e.degree) for e in entries}
    return IndependenceWitness(tuple(entries), len(seen) == len(entries))
