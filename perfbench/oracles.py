"""Independent oracles for the benchmark's checks.

Nothing here imports ``onsager``: every expected answer is computed from
closed forms, planted factorizations or hand-written tables, so a check
never compares the program against itself.

Polynomials are dense coefficient lists in ascending degree
(``[c0, c1, ...]``); Laurent polynomials are ``{exponent: coefficient}``
dicts.  Coefficients are ``int`` or ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# --- dense polynomial arithmetic on coefficient lists ---


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def ppow(a, n):
    out = [1]
    for _ in range(n):
        out = pmul(out, a)
    return out


def pprod(factors):
    out = [1]
    for f in factors:
        out = pmul(out, f)
    return out


def padd(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def pscale(a, c):
    return trim([c * x for x in a])


def pdivmod(a, b):
    """Long division over the rationals; b must be nonzero."""
    a = [Fraction(x) for x in trim(a)]
    b = trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = Fraction(b[-1])
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        c = a[-1] / lead
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        a = trim(a)
    return trim(q), a


def coprime_mod_p(a, b, p=1_000_003):
    """A certificate that monic a, b are coprime over Q.

    Euclid over GF(p); a gcd of 1 there rules out any common factor over Q,
    since monic integer polynomials reduce without losing degree.
    """
    a, b = [x % p for x in a], [x % p for x in b]
    while True:
        while b and b[-1] == 0:
            b.pop()
        if not b:
            return len(trim(a)) == 1
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = (a[shift + i] - c * y) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a


# --- Laurent polynomials as {exponent: coefficient} ---


def laurent_from(p, shift=0):
    return {i + shift: c for i, c in enumerate(p) if c}


def laurent_sub(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def laurent_inverse(x):
    """The substitution t -> 1/t."""
    return {-e: c for e, c in x.items()}


def laurent_divisible(x, p):
    """Whether x lies in p(t) k[t, 1/t]; p is a polynomial with p(0) != 0."""
    if not x:
        return True
    low = min(x)
    dense = [0] * (max(x) - low + 1)
    for e, c in x.items():
        dense[e - low] = c
    return not pdivmod(dense, p)[1]


def is_fixed_loop(p, q, r):
    """The Chevalley-fixed criterion on loop components given as dicts."""
    return q == laurent_inverse(p) and not {
        e: c for e, c in r.items() if c + r.get(-e, 0) != 0
    }


# --- Chebyshev closed forms of the embedding into the v-module ---
#
# With s = (-1)^(m-1), for m >= 1:
#   A_m     -> 2s U_{2m-2}(sqrt t) v_1 + 2s (T_{2m-1}(sqrt t)/sqrt t) v_2
#   A_{1-m} -> the same v_1 coordinate and the negated v_2 coordinate
#   G_l     -> 4 U_{l-1}(1-2t) v_0
# (Hartwig & Terwilliger, J. Algebra 308 (2007); Mason & Handscomb,
# Chebyshev Polynomials, ch. 1, for the binomial sums.)


def _u_even_sqrt(k):
    """U_{2k}(sqrt t) as a polynomial in t."""
    out = [0] * (k + 1)
    for j in range(k + 1):
        out[k - j] = (-1) ** j * comb(2 * k - j, j) * 4 ** (k - j)
    return out


def _t_odd_over_sqrt(k):
    """T_{2k+1}(sqrt t) / sqrt t as a polynomial in t."""
    n = 2 * k + 1
    out = [0] * (k + 1)
    for j in range(k + 1):
        c = comb(n - j, j) + (comb(n - j - 1, j - 1) if j else 0)
        out[k - j] = (-1) ** j * c * 2 ** (n - 2 * j - 1)
    return out


def phi_a(index):
    """(v_1, v_2) coordinates of A_index, as integer coefficient lists."""
    m = index if index >= 1 else 1 - index
    s = 2 if m % 2 == 1 else -2
    v1 = [s * c for c in _u_even_sqrt(m - 1)]
    v2 = [s * c for c in _t_odd_over_sqrt(m - 1)]
    if index < 1:
        v2 = [-c for c in v2]
    return v1, v2


def phi_g(l):
    """v_0 coordinate of G_l (l >= 1), as an integer coefficient list."""
    if l < 1:
        raise ValueError("G-index must be positive")
    return [(-1) ** k * comb(l + k, 2 * k + 1) * 4 ** (k + 1) for k in range(l)]


def phi_element(a_terms, g_terms):
    """(v_0, v_1, v_2) coordinates of sum c*A_m + sum c*G_l."""
    v0, v1, v2 = [], [], []
    for m, c in a_terms.items():
        x1, x2 = phi_a(m)
        v1 = padd(v1, pscale(x1, c))
        v2 = padd(v2, pscale(x2, c))
    for l, c in g_terms.items():
        v0 = padd(v0, pscale(phi_g(l), c))
    return v0, v1, v2


# --- canonical text, written from the printing rules, not the printers ---


def _term(c, e):
    negative = c < 0
    mag = -c if negative else c
    coeff = None if mag == 1 and e != 0 else str(mag)
    if e == 0:
        body = coeff if coeff is not None else "1"
    else:
        t_txt = "t" if e == 1 else f"t^{e}"
        body = t_txt if coeff is None else f"{coeff}*{t_txt}"
    return body, negative


def _join(pieces):
    chunks = []
    for body, negative in pieces:
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks) if chunks else "0"


def format_poly(p):
    """Descending terms such as '32*t^2 - 24*t + 2'."""
    return _join(_term(c, e) for e, c in sorted(enumerate(p), reverse=True) if c)


def _coeff_atom(p, atom):
    support = [(e, c) for e, c in enumerate(p) if c]
    if len(support) == 1:
        ((e, c),) = support
        negative = c < 0
        mag = -c if negative else c
        prefix = None if mag == 1 else str(mag)
        t_txt = None if e == 0 else ("t" if e == 1 else f"t^{e}")
        return "*".join(x for x in (prefix, t_txt, atom) if x is not None), negative
    return f"({format_poly(p)})*{atom}", False


def format_v(v0, v1, v2):
    """v-module text such as '(-16*t + 8)*v_0 + 2*v_1'."""
    return _join(_coeff_atom(p, f"v_{i}") for i, p in enumerate((v0, v1, v2)) if trim(p))


def format_onsager(a_terms, g_terms):
    """Abstract-basis text: A-terms by ascending index, then G-terms."""
    pieces = []
    for letter, terms in (("A", a_terms), ("G", g_terms)):
        for idx in sorted(terms):
            c = terms[idx]
            if c:
                negative = c < 0
                mag = -c if negative else c
                atom = f"{letter}_{idx}"
                pieces.append((atom if mag == 1 else f"{mag}*{atom}", negative))
    return _join(pieces)


# --- verify-suite expectations ---


def jacobi_triples(window):
    """Basis size 2w+1 A's plus w G's, cubed."""
    return (3 * window + 1) ** 3


def verify_onsager_lines(window):
    return [f"ok jacobi window {window} ({jacobi_triples(window)} triples)"]


def verify_loop_lines(window):
    return [
        f"ok loop-basis-relations l in [0,{window}], m in [-{window},{window}]",
        f"ok realization-homomorphism basis pairs, window {window}",
    ]


# Suite sizes fixed by the relations they check: three Dolan-Grady pairs
# plus the basis reconstruction; for the tetrahedron algebra, 6
# antisymmetry pairs, 24 adjacent-edge and 24 opposite-edge relations,
# 4 faces, 6 generator relations and the independence witness.
VERIFY_OK_LINES = {"dg": 4, "tetra": 65}


def all_ok(lines, count):
    return len(lines) == count and all(line.startswith("ok ") for line in lines)


# --- planted factorizations for the ideal toolkit ---

T_MINUS_ONE = [-1, 1]
T_PLUS_ONE = [1, 1]


def quadratic(k):
    """t^2 - k t + 1: monic, palindromic, irreducible over Q for |k| >= 3."""
    if abs(k) < 3:
        raise ValueError("t^2 - k t + 1 splits for |k| <= 2")
    return [1, -k, 1]


def planted(L, K, ks):
    """(t-1)^L (t+1)^K prod(t^2 - k t + 1): monic and reciprocal."""
    return pprod([ppow(T_MINUS_ONE, L), ppow(T_PLUS_ONE, K)] + [quadratic(k) for k in ks])


def closed_expected(L, K):
    """I_P is closed exactly when both multiplicities are even."""
    return L % 2 == 0 and K % 2 == 0


# --- the ideal classification over J = q k[t] ---
#
# Sixteen flag types and the eta family.  The table depends only on the
# six action matrices on the residual space, never on q.
CLASSIFY_TABLE = (
    ("flags", "flags=100100", True, ()),
    ("flags", "flags=100010", True, ()),
    ("flags", "flags=100110", False, ("w_1*(t-1)",)),
    ("flags", "flags=100111", True, ()),
    ("flags", "flags=010100", True, ()),
    ("flags", "flags=010010", True, ()),
    ("flags", "flags=010110", False, ("w_1*(t-1)",)),
    ("flags", "flags=010111", True, ()),
    ("flags", "flags=110100", False, ("w_2*t",)),
    ("flags", "flags=110010", False, ("w_2*t",)),
    ("flags", "flags=110110", False, ("w_2*t", "w_1*(t-1)")),
    ("flags", "flags=110111", False, ("w_2*t",)),
    ("flags", "flags=111100", True, ()),
    ("flags", "flags=111010", True, ()),
    ("flags", "flags=111110", False, ("w_1*(t-1)",)),
    ("flags", "flags=111111", True, ()),
    ("eta", "eta=<nonzero>", False, ("w_2*t", "w_1*(t-1)")),
)
