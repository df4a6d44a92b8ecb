from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onsager.polynomials import (
    LaurentPoly,
    ONE_MINUS_T,
    ThreePointFraction,
    antisym_part,
    crt_solve,
    format_laurent,
    laurent_divisible,
    monic,
    multiplicity_at,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    poly_mod,
    reciprocal_sign,
)

from helpers import random_laurent, rng

T = LaurentPoly({1: 1})


def P(**terms):
    """Shorthand: P(t2=1, t0=-1) is t^2 - 1."""
    return LaurentPoly({int(k[1:].replace("m", "-")): v for k, v in terms.items()})


laurents = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(-6, 6),
        st.fractions(min_value=-100, max_value=100, max_denominator=20),
        max_size=6,
    ),
)


# --- substitution ---


def test_substitute_inverse_examples():
    assert P(t1=1, tm1=-1).subs_inverse() == P(tm1=1, t1=-1)
    assert LaurentPoly.zero().subs_inverse() == LaurentPoly.zero()
    assert P(t3=2, t0=5).subs_inverse() == P(tm3=2, t0=5)


@given(laurents)
def test_substitute_inverse_involution(p):
    assert p.subs_inverse().subs_inverse() == p


# --- antisymmetric decomposition ---


def test_antisym_examples():
    assert antisym_part(P(t1=1, tm1=-1)) == T
    assert antisym_part(LaurentPoly.zero()) == LaurentPoly.zero()
    r = P(t3=2, t1=-1, tm1=1, tm3=-2)
    plus = antisym_part(r)
    assert plus == P(t3=2, t1=-1)
    # round-trip oracle: r_+(t) - r_+(1/t) reproduces the input
    assert plus - plus.subs_inverse() == r


def test_antisym_rejects_symmetric_part():
    with pytest.raises(ValueError, match="exponents 2 and -2"):
        antisym_part(P(t2=1, tm2=1))


@given(laurents)
def test_antisym_round_trip(p):
    plus = LaurentPoly({e: c for e, c in p.items() if e > 0})
    r = plus - plus.subs_inverse()
    assert antisym_part(r) == plus


# --- reciprocal polynomials ---


def test_reciprocal_examples():
    assert reciprocal_sign(P(t1=1, t0=1)) == 1
    assert reciprocal_sign(P(t1=1, t0=-1)) == -1
    assert reciprocal_sign(P(t2=1, t1=3, t0=1)) == 1
    assert reciprocal_sign(P(t2=1, t1=1)) is None
    assert reciprocal_sign(LaurentPoly.one()) == 1
    assert reciprocal_sign(P(t2=1, t0=-1)) == -1


def test_reciprocal_rejects_bad_input():
    with pytest.raises(ValueError):
        reciprocal_sign(LaurentPoly.zero())
    with pytest.raises(ValueError):
        reciprocal_sign(P(t1=2, t0=2))


def test_reciprocal_palindrome_cross_check():
    r = rng(20)
    for _ in range(40):
        p = random_laurent(r, 0, 5) + LaurentPoly.term(1, 6)
        sign = reciprocal_sign(p)
        d = p.degree
        palindrome_plus = all(p.coeff(i) == p.coeff(d - i) for i in range(d + 1))
        palindrome_minus = all(p.coeff(i) == -p.coeff(d - i) for i in range(d + 1))
        assert (sign == 1) == palindrome_plus
        assert (sign == -1) == palindrome_minus


# --- multiplicities ---


def test_multiplicity_examples():
    tm1 = P(t1=1, t0=-1)
    tp1 = P(t1=1, t0=1)
    assert multiplicity_at(tm1 * tm1 * tp1, 1) == 2
    assert multiplicity_at(P(t2=1, t1=3, t0=1), 1) == 0
    assert multiplicity_at(tm1 ** 3 * tp1 ** 2, -1) == 2
    with pytest.raises(ValueError):
        multiplicity_at(LaurentPoly.zero(), 1)


# --- gcd / lcm ---


def test_gcd_lcm_examples():
    tm1 = P(t1=1, t0=-1)
    tp1 = P(t1=1, t0=1)
    assert poly_gcd(tm1, tp1) == LaurentPoly.one()
    assert poly_lcm(tm1, tp1) == P(t2=1, t0=-1)
    assert poly_gcd(tm1 * tm1, tm1 * tp1) == tm1
    assert poly_lcm(tm1 * tm1, tm1 * tp1) == tm1 * tm1 * tp1
    p = P(t2=3, t1=3, t0=3)
    assert poly_gcd(p, p) == monic(p)
    with pytest.raises(ValueError):
        poly_gcd(LaurentPoly.zero(), LaurentPoly.zero())


def test_gcd_lcm_product_law():
    r = rng(21)
    for _ in range(30):
        a = random_laurent(r, 0, 4)
        b = random_laurent(r, 0, 4)
        if a.is_zero or b.is_zero:
            continue
        g = poly_gcd(a, b)
        l = poly_lcm(a, b)
        assert g * l == monic(a * b)
        assert poly_mod(l, a).is_zero and poly_mod(l, b).is_zero


# --- CRT ---


def test_crt_example_pair():
    tm1 = P(t1=1, t0=-1)
    tp1 = P(t1=1, t0=1)
    x = crt_solve([LaurentPoly.one(), LaurentPoly.zero()], [tm1, tp1])
    # frozen from the 2x2 linear system a + b = 1, -a + b = 0
    assert x == LaurentPoly({1: Fraction(1, 2), 0: Fraction(1, 2)})
    # remainder oracle
    assert poly_mod(x - LaurentPoly.one(), tm1).is_zero
    assert poly_mod(x, tp1).is_zero


def test_crt_single_and_zero():
    m = P(t2=1, t1=3, t0=1)
    r = P(t4=1, t0=2)
    assert crt_solve([r], [m]) == poly_mod(r, m)
    assert crt_solve([LaurentPoly.zero(), LaurentPoly.zero()],
                     [P(t1=1, t0=-1), P(t1=1, t0=1)]) == LaurentPoly.zero()


def test_crt_noncoprime_reports_factor():
    tm1 = P(t1=1, t0=-1)
    with pytest.raises(ValueError, match="t - 1"):
        crt_solve([LaurentPoly.one(), LaurentPoly.zero()], [tm1, tm1 * P(t1=1, t0=1)])


def test_crt_noncoprime_third_modulus_reports_factor():
    # The first two moduli are coprime; only the third shares t - 1 with the first.
    tm1 = P(t1=1, t0=-1)
    moduli = [tm1, P(t1=1, t0=1), tm1 * P(t1=1, t0=2)]
    with pytest.raises(ValueError, match="common factor t - 1"):
        crt_solve([LaurentPoly.one()] * 3, moduli)


def test_crt_randomized_congruences():
    r = rng(22)
    moduli = [P(t1=1, t0=-1), P(t1=1, t0=1), P(t2=1, t1=3, t0=1)]
    total_degree = sum(m.degree for m in moduli)
    for _ in range(25):
        residues = [random_laurent(r, 0, 3) for _ in moduli]
        x = crt_solve(residues, moduli)
        for res, m in zip(residues, moduli):
            assert poly_mod(x - res, m).is_zero
        assert x.is_zero or x.degree < total_degree


# --- Laurent divisibility ---


def test_laurent_divisible_examples():
    tm1 = P(t1=1, t0=-1)
    x = P(t1=1, t0=-2, tm1=1)
    # oracle: t^-1 (t-1)^2 reproduces x
    assert LaurentPoly.term(1, -1) * tm1 * tm1 == x
    assert laurent_divisible(x, tm1)
    assert not laurent_divisible(T, tm1)
    assert laurent_divisible(LaurentPoly.zero(), tm1)
    with pytest.raises(ValueError):
        laurent_divisible(x, LaurentPoly.zero())


def test_laurent_divisible_strips_unit_t_powers():
    # t^k is a unit, so P = t^2(t-1) divides exactly what t-1 divides
    p = P(t3=1, t2=-1)
    assert laurent_divisible(P(t1=1, t0=-2, tm1=1), p)
    assert laurent_divisible(P(t0=5, tm1=-5), p)
    assert not laurent_divisible(LaurentPoly.one(), p)


@given(laurents, laurents)
def test_laurent_divisible_matches_products(x, p):
    if p.is_zero or not p.is_polynomial:
        return
    assert laurent_divisible(x * p, p)


# --- three-point ring ---


def test_three_point_examples():
    one = ThreePointFraction(LaurentPoly.one())
    t_dprime = ThreePointFraction(LaurentPoly.one(), 0, 1)
    assert t_dprime * ThreePointFraction(ONE_MINUS_T) == one
    t_prime = ThreePointFraction(P(t1=1, t0=-1), 1, 0)
    # oracle: t * t' = t - 1
    assert ThreePointFraction(T) * t_prime == ThreePointFraction(P(t1=1, t0=-1))
    x = ThreePointFraction(P(t2=1, t0=4), 1, 2)
    assert ThreePointFraction(LaurentPoly.zero()) + x == x


def test_three_point_from_laurent_and_back():
    frac = ThreePointFraction(P(t1=1, tm2=3))
    assert frac.a == 2 and frac.b == 0
    assert frac.to_laurent() == P(t1=1, tm2=3)
    with_denominator = ThreePointFraction(LaurentPoly.one(), 0, 1)
    with pytest.raises(ValueError):
        with_denominator.to_laurent()


def test_three_point_canonical_invariants():
    r = rng(23)
    for _ in range(40):
        f = ThreePointFraction(random_laurent(r, 0, 4), r.randint(0, 3), r.randint(0, 3))
        if f.is_zero:
            assert f.a == 0 and f.b == 0
            continue
        if f.a > 0:
            assert f.num.valuation == 0
        if f.b > 0:
            assert f.num.evaluate(1) != 0


def test_three_point_embedding_consistency():
    r = rng(24)
    for _ in range(30):
        p = random_laurent(r)
        q = random_laurent(r)
        fp, fq = ThreePointFraction(p), ThreePointFraction(q)
        assert (fp + fq).to_laurent() == p + q
        assert (fp * fq).to_laurent() == p * q


def test_laurent_format_round_trip_via_str():
    r = rng(25)
    from onsager.expressions import parse_value

    for _ in range(40):
        p = random_laurent(r)
        assert parse_value(format_laurent(p)) == p


def test_divmod_property():
    r = rng(26)
    for _ in range(30):
        a = random_laurent(r, 0, 6)
        b = random_laurent(r, 0, 3)
        if b.is_zero:
            continue
        q, rem = poly_divmod(a, b)
        assert q * b + rem == a
        assert rem.is_zero or rem.degree < b.degree
