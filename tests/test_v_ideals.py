from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsager.linalg import in_row_space, rank, subspace_equal
from onsager.polynomials import LaurentPoly, monic, poly_gcd
from onsager.tetra import VElement, V_ZERO, v_bracket
from onsager.v_ideals import (
    EtaFamily,
    IdealSpec,
    classify_ideals,
    derived_series,
    enumerate_ideals,
    j_from_generators,
    lower_central_series,
    quotient_b,
    residual_of,
    z_closure_subspace,
)

from helpers import random_polynomial, random_velement, rng

ONE = LaurentPoly.one()
T = LaurentPoly({1: 1})
T_MINUS_1 = LaurentPoly({1: 1, 0: -1})
TT1 = T * T_MINUS_1
TSQ = LaurentPoly({2: 1, 1: 3, 0: 1})


def unit(i):
    return [Fraction(1) if j == i else Fraction(0) for j in range(6)]


# --- residuals ---


def test_residual_examples():
    q = TSQ
    assert residual_of(VElement(q * T, None, None), q) == unit(0)
    assert residual_of(VElement(q * TT1, None, None), q) == [0] * 6
    s = LaurentPoly({2: 2, 1: -1})  # 2t^2 - t = 2t(t-1) + t: alpha = s(1) = 1, beta = -s(0) = 0
    assert residual_of(VElement(q * s, None, None), q) == unit(0)
    assert residual_of(VElement(T, None, None), q) is None
    assert residual_of(VElement(q * T_MINUS_1, None, None), q) == unit(3)


def test_residual_linear():
    r = rng(71)
    for _ in range(15):
        a, b = random_velement(r), random_velement(r)
        ra = residual_of(a, ONE)
        rb = residual_of(b, ONE)
        rsum = residual_of(a + b, ONE)
        assert rsum == [x + y for x, y in zip(ra, rb)]


# --- the action table (case table of the quotient module) ---


def test_action_case_table():
    b = quotient_b()
    # mixed t and (t-1) representatives commute in the quotient
    for i in range(3):
        for j in range(3, 6):
            assert b.table[i][j] == (0,) * 6
            assert b.table[j][i] == (0,) * 6
    expected = {
        (2, 0): unit(1),   # [v_2 t, v_0 t] = v_1 t
        (2, 1): unit(0),   # [v_2 t, v_1 t] = v_0 t
        (0, 1): [0] * 6,   # [v_0 t, v_1 t] = 0
        (4, 5): unit(3),   # [v_1(t-1), v_2(t-1)] = v_0 (t-1)
        (4, 3): unit(5),   # [v_1(t-1), v_0(t-1)] = v_2 (t-1)
        (3, 5): [0] * 6,   # [v_0(t-1), v_2(t-1)] = 0
    }
    for (j, k), res in expected.items():
        assert list(b.table[j][k]) == list(res), (j, k)
        assert list(b.table[k][j]) == [-x for x in res], (k, j)


def test_quotient_b_is_a_lie_algebra():
    b = quotient_b()
    vectors = [unit(i) for i in range(6)]
    for x in vectors:
        for y in vectors:
            xy = b.bracket_vectors(x, y)
            yx = b.bracket_vectors(y, x)
            assert xy == [-v for v in yx]
            for z in vectors:
                defect = [
                    p + q + r
                    for p, q, r in zip(
                        b.bracket_vectors(x, b.bracket_vectors(y, z)),
                        b.bracket_vectors(y, b.bracket_vectors(z, x)),
                        b.bracket_vectors(z, b.bracket_vectors(x, y)),
                    )
                ]
                assert defect == [0] * 6


def test_series_of_quotient():
    b = quotient_b()
    derived = derived_series(b)
    assert [len(s) for s in derived] == [6, 4, 0]
    expected_b1 = [unit(0), unit(1), unit(3), unit(5)]
    assert subspace_equal(derived[1], expected_b1)
    lower = lower_central_series(b)
    assert [len(s) for s in lower] == [6, 4, 4]
    assert subspace_equal(lower[1], lower[2])
    assert subspace_equal(lower[1], expected_b1)


# --- spec validation and enumeration ---


def test_spec_validation():
    with pytest.raises(ValueError):
        IdealSpec(ONE, "flags", (0, 0, 0, 1, 0, 0))
    with pytest.raises(ValueError):
        IdealSpec(ONE, "flags", (1, 0, 1, 1, 0, 0))  # gamma without eps*delta
    with pytest.raises(ValueError):
        IdealSpec(ONE, "eta", None, Fraction(0))
    with pytest.raises(ValueError):
        IdealSpec(LaurentPoly({1: 2}), "flags", (1, 0, 0, 1, 0, 0))  # non-monic q
    with pytest.raises(ValueError):
        IdealSpec(ONE, "nope")
    spec = IdealSpec(ONE, "flags", (1, 1, 1, 1, 1, 1))
    assert rank(spec.subspace_rows()) == 6


def test_enumerate_counts_and_cases():
    specs, family = enumerate_ideals(ONE)
    assert len(specs) == 16
    assert len({s.describe() for s in specs}) == 16
    assert isinstance(family, EtaFamily)
    full = [s for s in specs if s.flags == (1, 1, 1, 1, 1, 1)]
    assert len(full) == 1 and rank(full[0].subspace_rows()) == 6
    # eps = delta = 0 is never enumerated
    assert all(s.flags[0] + s.flags[1] >= 1 and s.flags[3] + s.flags[4] >= 1 for s in specs)


def test_membership_examples():
    q = TSQ
    specs, family = enumerate_ideals(q)
    full = next(s for s in specs if s.flags == (1, 1, 1, 1, 1, 1))
    assert full.contains(VElement(q * T, q * T, None))
    eta_spec = family.at(1)
    assert eta_spec.contains(VElement(None, q * T_MINUS_1, q * T))
    assert not eta_spec.contains(VElement(None, None, q * T))
    r = rng(72)
    for spec in specs[:4]:
        bulk = VElement(q * TT1 * random_polynomial(r, 2),
                        q * TT1 * random_polynomial(r, 2),
                        q * TT1 * random_polynomial(r, 2))
        assert spec.contains(bulk)


def test_sandwich_property():
    q = TSQ
    specs, _ = enumerate_ideals(q)
    r = rng(73)
    for spec in specs:
        member = _random_member(r, spec)
        for comp in member.coords():
            if not comp.is_zero:
                assert poly_gcd(comp, q) == q  # q divides every component


def _random_member(r, spec):
    q = spec.q
    bulk = VElement(
        q * TT1 * random_polynomial(r, 2),
        q * TT1 * random_polynomial(r, 2),
        q * TT1 * random_polynomial(r, 2),
    )
    rows = spec.subspace_rows()
    coeffs = [Fraction(r.randint(-4, 4)) for _ in rows]
    resid = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(6)]
    lanes = [LaurentPoly.zero()] * 3
    for i in range(3):
        lanes[i] = lanes[i] + resid[i] * q * T + resid[3 + i] * q * T_MINUS_1
    return bulk + VElement(*lanes)


def test_ideal_property_random():
    r = rng(74)
    for q in (ONE, TSQ):
        specs, family = enumerate_ideals(q)
        for spec in list(specs[:5]) + [family.at(Fraction(2))]:
            for _ in range(6):
                member = _random_member(r, spec)
                assert spec.contains(member)
                other = random_velement(r, 2)
                assert spec.contains(v_bracket(other, member))


def test_z_closure_examples():
    specs, family = enumerate_ideals(ONE)
    # the full O J spec is closed
    full = next(s for s in specs if s.flags == (1, 1, 1, 1, 1, 1))
    assert full.is_closed()
    # case (i) with single eigenlines on both sides is closed
    diag = next(s for s in specs if s.flags == (1, 0, 0, 1, 0, 0))
    assert diag.is_closed()
    # eps = delta = 1 with gamma = 0 pulls in the w_2 t line
    open_spec = next(s for s in specs if s.flags == (1, 1, 0, 1, 0, 0))
    closure = open_spec.z_closure_rows()
    assert in_row_space(closure, unit(2))
    assert not in_row_space(open_spec.subspace_rows(), unit(2))
    assert not open_spec.is_closed()
    # the eta family pulls in w_2 t as well
    eta_spec = family.at(1)
    closure = eta_spec.z_closure_rows()
    assert in_row_space(closure, unit(2))
    assert not in_row_space(eta_spec.subspace_rows(), unit(2))
    assert not eta_spec.is_closed()


def test_z_extensive_and_idempotent():
    for q in (ONE, TSQ):
        specs, family = enumerate_ideals(q)
        for spec in list(specs) + [family.at(1), family.at(Fraction(-3, 2))]:
            rows = spec.subspace_rows()
            closure = spec.z_closure_rows()
            for row in rows:
                assert in_row_space(closure, row)
            again = z_closure_subspace(closure)
            assert subspace_equal(again, closure)


def test_classification_against_families():
    for q in (ONE, TSQ):
        specs, family = enumerate_ideals(q)
        closed_flags = {s.flags for s in specs if s.is_closed()}
        eigen = ((1, 0, 0), (0, 1, 0))
        full = (1, 1, 1)
        expected = set()
        for first in eigen:            # case (i)
            for second in eigen:
                expected.add(first + second)
        for second in eigen:           # case (ii): all of w t plus one eigenline
            expected.add(full + second)
        for first in eigen:            # case (iii)
            expected.add(first + full)
        expected.add(full + full)      # case (iv): all of O J
        assert closed_flags == expected
        for eta in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)):
            assert not family.at(eta).is_closed()


def test_alternate_forms_of_cases_ii_iii():
    # Case (ii) rewrites as O J t + k(w_0 + w_2): the residuals of O J t are
    # the three w_i t lines, and w_i = w_i t - w_i (t-1) gives the
    # eigenvector's coordinates (1,0,1,-1,0,-1).
    specs, _ = enumerate_ideals(ONE)
    case_ii = next(s for s in specs if s.flags == (1, 1, 1, 1, 0, 0))
    w0_plus_w2 = [Fraction(x) for x in (1, 0, 1, -1, 0, -1)]
    assert subspace_equal(case_ii.subspace_rows(),
                          [unit(0), unit(1), unit(2), w0_plus_w2])
    # Case (iii) symmetrically: O J (t-1) + k(w_0 + w_1).
    case_iii = next(s for s in specs if s.flags == (1, 0, 0, 1, 1, 1))
    w0_plus_w1 = [Fraction(x) for x in (1, 1, 0, -1, -1, 0)]
    assert subspace_equal(case_iii.subspace_rows(),
                          [unit(3), unit(4), unit(5), w0_plus_w1])


def test_j_from_generators_examples():
    assert j_from_generators([VElement(TT1, None, None)]) == TT1
    assert j_from_generators([VElement(ONE, None, None)]) == ONE
    assert j_from_generators([VElement(TSQ, None, None), VElement(None, TSQ, None)]) == TSQ
    with pytest.raises(ValueError):
        j_from_generators([V_ZERO])


def _brute_force_j(gens, rounds=4):
    """Oracle: gcd of all components across an iterated bracket span."""
    seeds = [VElement(ONE, None, None), VElement(None, ONE, None), VElement(None, None, ONE),
             VElement(T, None, None), VElement(None, T, None), VElement(None, None, T)]
    current = list(gens)
    collected = list(gens)
    for _ in range(rounds):
        new = []
        for x in current:
            for s in seeds:
                y = v_bracket(s, x)
                if not y.is_zero:
                    new.append(y)
        collected += new
        current = new
    g = None
    for element in collected:
        for comp in element.coords():
            if not comp.is_zero:
                g = comp if g is None else poly_gcd(g, comp)
    return monic(g)


def test_j_from_generators_against_bracket_oracle():
    r = rng(75)
    cases = [
        [VElement(TT1, None, None)],
        [VElement(TSQ * T, None, None), VElement(None, None, TSQ)],
        [random_velement(r, 2)],
        [random_velement(r, 1), random_velement(r, 2)],
    ]
    for gens in cases:
        if all(g.is_zero for g in gens):
            continue
        assert j_from_generators(gens) == _brute_force_j(gens)


def test_classify_records():
    records = classify_ideals(ONE)
    assert len(records) == 17
    closed = [r for r in records if r.closed]
    assert len(closed) == 9
    eta_records = [r for r in records if r.kind == "eta"]
    assert len(eta_records) == 1 and not eta_records[0].closed
    assert "w_2*t" in eta_records[0].z_delta
    for rec in records:
        if rec.closed:
            assert rec.z_delta == ()


monic_polys = st.lists(st.integers(-5, 5), max_size=6).map(
    lambda low: LaurentPoly({**dict(enumerate(low)), len(low): 1})
)


@settings(max_examples=20, deadline=None)
@given(monic_polys, monic_polys)
def test_classify_rows_do_not_depend_on_q(q1, q2):
    rec1, rec2 = classify_ideals(q1), classify_ideals(q2)
    assert [(r.kind, r.descriptor, r.closed, r.z_delta) for r in rec1] == [
        (r.kind, r.descriptor, r.closed, r.z_delta) for r in rec2
    ]
    assert all(r.q == q1 for r in rec1) and all(r.q == q2 for r in rec2)


def test_classify_matches_specs_for_nontrivial_q():
    specs, _ = enumerate_ideals(TSQ)
    records = classify_ideals(TSQ)
    assert [r.descriptor for r in records[:16]] == [s.describe() for s in specs]
    assert [r.closed for r in records[:16]] == [s.is_closed() for s in specs]
