"""Ideal classification in the v-realization of the Onsager algebra.

Every nonzero ideal I determines the ideal J_I = q(t)k[t] of coordinate
polynomials it reaches, and is sandwiched between OJt(t-1) and OJ.  The
quotient OJ/OJt(t-1) is six-dimensional with basis

    w_0 t, w_1 t, w_2 t, w_0 (t-1), w_1 (t-1), w_2 (t-1)     (w_i = v_i q)

so ideals with a fixed J correspond to invariant subspaces S of that
residual space, and the Z-operator (x with [x, everything] inside I)
becomes exact six-dimensional linear algebra.  The enumeration produces a
finite flag family plus a one-parameter eta family; the closedness
classifier decides Z(I) = I for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import in_row_space, nullspace, rref, subspace_equal
from .polynomials import T, T_MINUS_ONE, LaurentPoly, monic, poly_divmod, poly_gcd, require_polynomial
from .scalars import Scalar, as_scalar
from .tetra import VElement, v_bracket


def _basis_rep(index: int) -> VElement:
    """Canonical representative of the residual basis vector (q = 1)."""
    factor = T if index < 3 else T_MINUS_ONE
    coords = [LaurentPoly.zero()] * 3
    coords[index % 3] = factor
    return VElement(*coords)


def residual_of(v: VElement, q: LaurentPoly):
    """Residual coordinates of v inside OJ/OJt(t-1), or None outside OJ.

    Each coordinate must be divisible by q; the quotient s splits as
    s = s_2*t(t-1) + alpha*t + beta*(t-1) with alpha = s(1), beta = -s(0).
    """
    q = require_polynomial(q, "ideal generator")
    if q.is_zero:
        raise ValueError("the ideal generator must be nonzero")
    out = [Fraction(0)] * 6
    for i, comp in enumerate(v.coords()):
        if comp.is_zero:
            continue
        quotient, rem = poly_divmod(comp, q)
        if not rem.is_zero:
            return None
        out[i] = quotient.evaluate(1)
        out[3 + i] = -quotient.evaluate(0)
    return out


@dataclass(frozen=True)
class IdealSpec:
    """A nonzero monic q plus a residual subspace descriptor."""

    q: LaurentPoly
    kind: str  # "flags" or "eta"
    flags: tuple | None = None
    eta: Scalar | None = None

    def __post_init__(self):
        q = require_polynomial(self.q, "ideal generator")
        if q.is_zero or not q.is_monic:
            raise ValueError("q must be nonzero and monic")
        if self.kind == "flags":
            if self.flags is None or len(self.flags) != 6 or any(f not in (0, 1) for f in self.flags):
                raise ValueError("flags must be six 0/1 entries")
            eps, delta, gamma, eps2, delta2, gamma2 = self.flags
            if eps + delta == 0 or eps2 + delta2 == 0:
                raise ValueError("flag constraint violated: need eps+delta != 0 != eps'+delta'")
            if (eps * delta == 0 and gamma != 0) or (eps2 * delta2 == 0 and gamma2 != 0):
                raise ValueError("gamma flags are meaningful only when both companions are set")
        elif self.kind == "eta":
            if self.eta is None or as_scalar(self.eta) == 0:
                raise ValueError("eta must be a nonzero scalar")
        else:
            raise ValueError(f"unknown spec kind: {self.kind!r}")

    def subspace_rows(self):
        """Basis rows of the residual subspace S."""
        z = Fraction(0)
        o = Fraction(1)
        if self.kind == "flags":
            eps, delta, gamma, eps2, delta2, gamma2 = self.flags
            rows = []
            if eps:
                rows.append([o, o, z, z, z, z])
            if delta:
                rows.append([o, -o, z, z, z, z])
            if eps * delta * gamma:
                rows.append([z, z, o, z, z, z])
            if eps2:
                rows.append([z, z, z, o, z, o])
            if delta2:
                rows.append([z, z, z, o, z, -o])
            if eps2 * delta2 * gamma2:
                rows.append([z, z, z, z, o, z])
            return rows
        eta = as_scalar(self.eta)
        return [
            [o, z, z, z, z, z],
            [z, o, z, z, z, z],
            [z, z, z, o, z, z],
            [z, z, z, z, z, o],
            [z, z, o, z, eta, z],
        ]

    def contains(self, v: VElement) -> bool:
        """Membership: the residual exists and lies in the subspace S."""
        res = residual_of(v, self.q)
        if res is None:
            return False
        return in_row_space(self.subspace_rows(), res)

    def z_closure_rows(self):
        return z_closure_subspace(self.subspace_rows())

    def is_closed(self) -> bool:
        return subspace_equal(self.z_closure_rows(), self.subspace_rows())

    def describe(self) -> str:
        if self.kind == "flags":
            return "flags=" + "".join(str(f) for f in self.flags)
        return f"eta={self.eta}"


def z_closure_subspace(rows):
    """All residual vectors whose six basis-actions land inside span(rows)."""
    annihilators = nullspace([list(r) for r in rows]) if rows else _full_space()
    constraints = []
    # Row a of B's table lists the images [B_a, B_c] by c: the columns of
    # the action of B_a, so func . (ad(B_a) s) = 0 is a linear condition on s.
    for images in quotient_b().table:
        for func in annihilators:
            constraints.append([sum(f * x for f, x in zip(func, image)) for image in images])
    if not constraints:
        return _full_space()
    return nullspace(constraints)


@dataclass(frozen=True)
class EtaFamily:
    """The symbolic one-parameter family of residual subspaces."""

    q: LaurentPoly

    def at(self, eta) -> IdealSpec:
        return IdealSpec(self.q, "eta", None, as_scalar(eta))

    def describe(self) -> str:
        return "eta family: span{w_0*t, w_1*t, w_0*(t-1), w_2*(t-1), w_2*t + eta*w_1*(t-1)}, eta != 0"


_FLAG_TRIPLES = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1))


def enumerate_ideals(q: LaurentPoly) -> tuple[list[IdealSpec], EtaFamily]:
    """All ideals with the given J-generator: 16 flag specs plus the eta family.

    Flag triples (eps, delta, gamma) range over (1,0,0), (0,1,0), (1,1,0),
    (1,1,1) independently on the t and (t-1) sides; gamma is canonicalized
    to zero whenever eps*delta = 0, since the w_2*t line can only occur
    once both eigenlines are present.
    """
    q = monic(require_polynomial(q, "ideal generator"))
    specs = [
        IdealSpec(q, "flags", first + second)
        for first in _FLAG_TRIPLES
        for second in _FLAG_TRIPLES
    ]
    return specs, EtaFamily(q)


def j_from_generators(gens: list[VElement]) -> LaurentPoly:
    """The monic generator of J for the ideal generated by the given elements.

    Bracketing only multiplies coordinates by t, t-1 and shuffles lanes, so
    the coordinate ideal is generated by the gcd of all components.
    """
    components = [c for g in gens for c in g.coords() if not c.is_zero]
    if not components:
        raise ValueError("generators are all zero")
    g = components[0]
    for comp in components[1:]:
        g = poly_gcd(g, comp)
    return monic(g)


# --- The six-dimensional quotient B = O / O t(t-1). ---


@dataclass(frozen=True)
class QuotientB:
    """Structure constants of B on the residual basis (q = 1)."""

    table: tuple  # table[j][k] = residual coordinates of [B_j, B_k]

    @property
    def dim(self) -> int:
        return 6

    def bracket_vectors(self, u, v):
        out = [Fraction(0)] * 6
        for j in range(6):
            if u[j] == 0:
                continue
            for k in range(6):
                if v[k] == 0:
                    continue
                c = u[j] * v[k]
                for r in range(6):
                    out[r] += c * self.table[j][k][r]
        return out


@lru_cache(maxsize=1)
def quotient_b() -> QuotientB:
    """The structure constants of B, computed once per process."""
    one = LaurentPoly.one()
    table = []
    for j in range(6):
        row = []
        for k in range(6):
            # q = 1 divides every coordinate, so the residual always exists.
            row.append(tuple(residual_of(v_bracket(_basis_rep(j), _basis_rep(k)), one)))
        table.append(tuple(row))
    return QuotientB(tuple(table))


def _bracket_space(b: QuotientB, rows_u, rows_v):
    products = []
    for u in rows_u:
        for v in rows_v:
            w = b.bracket_vectors(u, v)
            if any(x != 0 for x in w):
                products.append(w)
    if not products:
        return []
    reduced, _ = rref(products)
    return reduced


def _full_space():
    return [[Fraction(1) if i == j else Fraction(0) for j in range(6)] for i in range(6)]


def derived_series(b: QuotientB):
    """[B, B^(k)] iterated on itself until zero or stabilization."""
    series = [_full_space()]
    while True:
        nxt = _bracket_space(b, series[-1], series[-1])
        series.append(nxt)
        if not nxt or subspace_equal(nxt, series[-2]):
            return series


def lower_central_series(b: QuotientB):
    """B^k = [B, B^(k-1)] until zero or stabilization."""
    series = [_full_space()]
    while True:
        nxt = _bracket_space(b, series[0], series[-1])
        series.append(nxt)
        if not nxt or subspace_equal(nxt, series[-2]):
            return series


_NAMED_LINES = {
    "w_0*t": (1, 0, 0, 0, 0, 0),
    "w_1*t": (0, 1, 0, 0, 0, 0),
    "w_2*t": (0, 0, 1, 0, 0, 0),
    "w_0*(t-1)": (0, 0, 0, 1, 0, 0),
    "w_1*(t-1)": (0, 0, 0, 0, 1, 0),
    "w_2*(t-1)": (0, 0, 0, 0, 0, 1),
    "w_0*t + w_1*t": (1, 1, 0, 0, 0, 0),
    "w_0*t - w_1*t": (1, -1, 0, 0, 0, 0),
    "w_0*(t-1) + w_2*(t-1)": (0, 0, 0, 1, 0, 1),
    "w_0*(t-1) - w_2*(t-1)": (0, 0, 0, 1, 0, -1),
}


@dataclass(frozen=True)
class ClassificationRecord:
    q: LaurentPoly
    kind: str
    descriptor: str
    closed: bool
    z_delta: tuple


def classify_ideals(q: LaurentPoly) -> list[ClassificationRecord]:
    """One record per enumerated spec: closedness plus the Z-closure delta.

    Neither depends on q, since the Z-closure uses only the structure
    constants of B, so the rows are computed once per process and q is
    stamped into each record.
    """
    q = monic(require_polynomial(q, "ideal generator"))
    return [ClassificationRecord(q, *row) for row in _classification_rows()]


@lru_cache(maxsize=1)
def _classification_rows() -> tuple:
    specs, family = enumerate_ideals(LaurentPoly.one())
    # The eta family is classified once with a symbolic marker; any concrete
    # nonzero parameter produces the same closure delta.
    _, _, closed, delta = _row_for(family.at(Fraction(1)))
    return tuple(_row_for(spec) for spec in specs) + (("eta", "eta=<nonzero>", closed, delta),)


def _row_for(spec: IdealSpec) -> tuple:
    rows = spec.subspace_rows()
    closure = spec.z_closure_rows()
    delta = tuple(
        name
        for name, vec in _NAMED_LINES.items()
        if in_row_space(closure, [Fraction(x) for x in vec])
        and not in_row_space(rows, [Fraction(x) for x in vec])
    )
    return spec.kind, spec.describe(), spec.is_closed(), delta
