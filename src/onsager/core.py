"""The abstract Onsager algebra on the basis {A_m (m in Z), G_l (l >= 1)}.

Structure constants:

    [A_l, A_m] = 2 G_{l-m}        (with G_0 = 0 and G_{-l} = -G_l)
    [G_l, A_m] = A_{m+l} - A_{m-l}
    [G_l, G_m] = 0

Basis normalization: A_m and G_l here are half of the operators in the
original transfer-matrix normalization; this is the convention that makes
the two-generator relations read [A,[A,[A,B]]] = 4[A,B].

G-indices normalize at construction time, so equality of elements is a
plain representation check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, attrgetter, sub

from .polynomials import LaurentPoly, format_terms
from .scalars import Scalar, as_scalar, is_scalar


class OnsagerElement:
    """A finite rational combination of the A_m and G_l basis symbols."""

    __slots__ = ("_a", "_g")

    def __init__(self, a_terms: dict | None = None, g_terms: dict | None = None):
        a: dict = {}
        if a_terms:
            for m, c in a_terms.items():
                c = as_scalar(c)
                if c != 0:
                    a[int(m)] = c
        g: dict = {}
        if g_terms:
            for l, c in g_terms.items():
                _add_g(g, int(l), as_scalar(c))
        self._a = a
        self._g = g

    @property
    def a_terms(self) -> dict:
        return dict(self._a)

    @property
    def g_terms(self) -> dict:
        return dict(self._g)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._g

    def __add__(self, other):
        if not isinstance(other, OnsagerElement):
            return NotImplemented
        a = dict(self._a)
        for m, c in other._a.items():
            s = a.get(m, 0) + c
            if s == 0:
                a.pop(m, None)
            else:
                a[m] = s
        g = dict(self._g)
        for l, c in other._g.items():
            _add_g(g, l, c)
        return _make(a, g)

    def __sub__(self, other):
        if not isinstance(other, OnsagerElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _make({m: -c for m, c in self._a.items()}, {l: -c for l, c in self._g.items()})

    def __rmul__(self, scalar):
        if not is_scalar(scalar):
            return NotImplemented
        scalar = as_scalar(scalar)
        if scalar == 0:
            return ZERO
        return _make(
            {m: scalar * c for m, c in self._a.items()},
            {l: scalar * c for l, c in self._g.items()},
        )

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, OnsagerElement):
            return NotImplemented
        return self._a == other._a and self._g == other._g

    def __bool__(self):
        return not self.is_zero

    def bracket(self, other: "OnsagerElement") -> "OnsagerElement":
        return bracket(self, other)

    def __str__(self):
        return format_onsager(self)

    def __repr__(self):
        return f"OnsagerElement({self._a!r}, {self._g!r})"


def _add_g(g: dict, l: int, c: Scalar) -> None:
    # Normalization: G_0 = 0 and G_{-l} = -G_l.
    if c == 0 or l == 0:
        return
    if l < 0:
        l, c = -l, -c
    s = g.get(l, 0) + c
    if s == 0:
        g.pop(l, None)
    else:
        g[l] = s


def _make(a: dict, g: dict) -> OnsagerElement:
    elt = OnsagerElement.__new__(OnsagerElement)
    elt._a = {m: c for m, c in a.items() if c != 0}
    elt._g = {l: c for l, c in g.items() if c != 0}
    return elt


ZERO = OnsagerElement()


def A(m: int) -> OnsagerElement:
    """The basis element A_m."""
    return OnsagerElement({m: 1}, None)


def G(l: int) -> OnsagerElement:
    """The basis element G_l (G_0 = 0, G_{-l} = -G_l normalized away)."""
    return OnsagerElement(None, {l: 1})


def bracket(x: OnsagerElement, y: OnsagerElement) -> OnsagerElement:
    """The Lie bracket, extended bilinearly from the structure constants."""
    a_out: dict = {}
    g_out: dict = {}

    def add_a(m, c):
        s = a_out.get(m, 0) + c
        if s == 0:
            a_out.pop(m, None)
        else:
            a_out[m] = s

    for l, cl in x._a.items():
        for m, cm in y._a.items():
            _add_g(g_out, l - m, 2 * cl * cm)
    for l, cl in x._g.items():
        for m, cm in y._a.items():
            c = cl * cm
            add_a(m + l, c)
            add_a(m - l, -c)
    for m, cm in x._a.items():
        for l, cl in y._g.items():
            c = cm * cl
            add_a(m + l, -c)
            add_a(m - l, c)
    return _make(a_out, g_out)


def jacobi_defect(x, y, z):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero exactly when Jacobi holds.

    Works for any element type with .bracket and addition, so the same
    defect is computed in every realization.
    """
    return x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))


@dataclass(frozen=True)
class DolanGradyReport:
    """Outcome of the two quartic generator relations for a pair (a, b)."""

    dg1_holds: bool
    dg2_holds: bool
    defect1: object
    defect2: object

    @property
    def both_hold(self) -> bool:
        return self.dg1_holds and self.dg2_holds


def check_dolan_grady(a, b) -> DolanGradyReport:
    """Check [a,[a,[a,b]]] = 4[a,b] and the swapped relation.

    Works for any element type with .bracket, subtraction and scalar
    multiplication, so the same checker runs in every realization.
    """
    ab = a.bracket(b)
    defect1 = a.bracket(a.bracket(a.bracket(b))) - 4 * ab
    ba = b.bracket(a)
    defect2 = b.bracket(b.bracket(b.bracket(a))) - 4 * ba
    return DolanGradyReport(defect1.is_zero, defect2.is_zero, defect1, defect2)


@dataclass(frozen=True)
class ShiftPolynomialPair:
    """The pair (g_l, h_l) with A_{m+l} = g_l(ad_{G_1}) A_m + h_l(ad_{G_1}) A_{m+1}."""

    g: LaurentPoly
    h: LaurentPoly
    level: int


def shift_polynomials(level: int) -> ShiftPolynomialPair:
    """Shift polynomials by the recurrence p_l = x*p_{l-1} + p_{l-2}.

    Base cases: g_0 = 1, g_1 = 0 and h_0 = 0, h_1 = 1.
    """
    if level < 0:
        raise ValueError("shift level must be nonnegative")
    x = LaurentPoly.term(1, 1)
    g_prev, g_cur = LaurentPoly.one(), LaurentPoly.zero()
    h_prev, h_cur = LaurentPoly.zero(), LaurentPoly.one()
    if level == 0:
        return ShiftPolynomialPair(g_prev, h_prev, 0)
    for _ in range(level - 1):
        g_prev, g_cur = g_cur, x * g_cur + g_prev
        h_prev, h_cur = h_cur, x * h_cur + h_prev
    return ShiftPolynomialPair(g_cur, h_cur, level)


def apply_poly_ad(poly: LaurentPoly, y, target):
    """Evaluate p(ad_y)(target) for a polynomial p with scalar coefficients."""
    if not poly.is_polynomial:
        raise ValueError("ad-polynomials must have nonnegative exponents")
    result = 0 * target
    if poly.is_zero:
        return result
    powers = [target]
    for _ in range(poly.degree):
        powers.append(y.bracket(powers[-1]))
    for e, c in poly.items():
        result = result + c * powers[e]
    return result


def reconstruct_basis(max_n: int, seeds=None) -> dict[str, OnsagerElement]:
    """Rebuild G_n, A_n, A_{-n} for 1 <= n <= max_n from A_0 and A_1 alone.

    Follows the constructive generation argument: G_1 = (1/2)[A_1, A_0],
    A_{-1} = A_1 - [G_1, A_0], then for n >= 2 take G_n from
    [A_{n-1}, A_{-1}] = 2 G_n, A_n = A_{n-2} + [G_1, A_{n-1}] and
    A_{-n} = A_n - [G_n, A_0].

    ``seeds`` may supply the images of (A_0, A_1) in another realization;
    the same bracket recipe then rebuilds the corresponding basis images.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    half = Fraction(1, 2)
    seed0, seed1 = seeds if seeds is not None else (A(0), A(1))
    a = {0: seed0, 1: seed1}
    out: dict[str, OnsagerElement] = {"A_0": a[0], "A_1": a[1]}
    g1 = half * a[1].bracket(a[0])
    out["G_1"] = g1
    a[-1] = a[1] - g1.bracket(a[0])
    out["A_-1"] = a[-1]
    for n in range(2, max_n + 1):
        gn = half * a[n - 1].bracket(a[-1])
        a[n] = a[n - 2] + g1.bracket(a[n - 1])
        a[-n] = a[n] - gn.bracket(a[0])
        out[f"G_{n}"] = gn
        out[f"A_{n}"] = a[n]
        out[f"A_-{n}"] = a[-n]
    return out


def format_onsager(x: OnsagerElement) -> str:
    """Canonical text: A-terms by ascending index, then G-terms."""
    return format_terms(
        [(f"A_{m}", x._a[m]) for m in sorted(x._a)] + [(f"G_{l}", x._g[l]) for l in sorted(x._g)]
    )


class CoordinateTriple:
    """Three coordinates over a coefficient ring, with an sl2-type bracket.

    The loop, three-point and v realizations all have this shape.  A
    subclass names its coordinates in ``__slots__`` and their print atoms in
    ``ATOMS``, lists the non-scalar factors it accepts for ring
    multiplication in ``FACTORS``, converts one coordinate into its ring
    with the ``_coerce(value, atom)`` hook, and defines ``bracket`` through
    its realization's module-level bracket function.
    """

    __slots__ = ()
    ATOMS: tuple = ()
    FACTORS: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._coords = attrgetter(*cls.__slots__)
        cls._zero = cls._coerce(0, cls.ATOMS[0])

    def __init__(self, *coords):
        coerce, zero = self._coerce, self._zero
        for name, atom, value in zip(self.__slots__, self.ATOMS, coords):
            setattr(self, name, zero if value is None else coerce(value, atom))

    def coords(self) -> tuple:
        return self._coords(self)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords())

    def _zip(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(*map(op, self.coords(), other.coords()))

    def __add__(self, other):
        return self._zip(other, add)

    def __sub__(self, other):
        return self._zip(other, sub)

    def __neg__(self):
        return type(self)(*[-c for c in self.coords()])

    def __rmul__(self, factor):
        if is_scalar(factor) or isinstance(factor, self.FACTORS):
            return type(self)(*[factor * c for c in self.coords()])
        return NotImplemented

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coords() == other.coords()

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return format_terms(zip(self.ATOMS, self.coords()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.coords()))})"
