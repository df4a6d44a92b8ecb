from fractions import Fraction

import pytest

from onsager.core import A, G, OnsagerElement, bracket, check_dolan_grady, reconstruct_basis
from onsager.polynomials import (
    LaurentPoly,
    TP_T_DPRIME,
    TP_T_PRIME,
    ThreePointFraction,
)
from onsager.tetra import (
    T,
    T_MINUS_ONE,
    ThreePointElement,
    TP_ZERO,
    VElement,
    V_ZERO,
    X_ATOM,
    Y_ATOM,
    Z_ATOM,
    from_v,
    independence_witness,
    phi,
    phi_inverse,
    phi_v,
    psi_generator,
    to_v,
    tp_bracket,
    u_elements,
    v_bracket,
    v_elements,
    verify_tetra_relations,
)

from helpers import random_onsager, random_velement, rng


def test_equitable_relations():
    assert tp_bracket(X_ATOM, Y_ATOM) == 2 * (X_ATOM + Y_ATOM)
    assert tp_bracket(Y_ATOM, Z_ATOM) == 2 * (Y_ATOM + Z_ATOM)
    assert tp_bracket(Z_ATOM, X_ATOM) == 2 * (Z_ATOM + X_ATOM)


def test_tp_bracket_alternating():
    r = rng(61)
    for _ in range(15):
        e = from_v(random_velement(r))
        assert tp_bracket(e, e) == TP_ZERO


def test_psi_generator_table():
    assert psi_generator(1, 2) == X_ATOM
    assert psi_generator(2, 3) == Y_ATOM
    assert psi_generator(3, 1) == Z_ATOM
    assert psi_generator(0, 3) == ThreePointElement(None, LaurentPoly({1: 1}), T_MINUS_ONE)
    assert psi_generator(2, 1) == -X_ATOM
    with pytest.raises(ValueError):
        psi_generator(1, 1)
    with pytest.raises(ValueError):
        psi_generator(0, 4)


def test_all_tetra_relations_pass():
    report = verify_tetra_relations()
    assert report.all_pass
    names = [r.name for r in report.records]
    assert names.count("antisymmetry") == 6
    assert names.count("adjacent-edges") == 24
    assert names.count("opposite-edges") == 24
    assert names.count("face-equitable") == 4


def test_u_element_formulas():
    u0, u1, u2 = u_elements()
    quarter = Fraction(1, 4)
    assert u1 == quarter * ThreePointElement(LaurentPoly.one(), T, T_MINUS_ONE)
    assert u0 == quarter * ThreePointElement(
        TP_T_DPRIME, ThreePointFraction(T, 0, 1), LaurentPoly.one()
    )
    assert u2 == quarter * ThreePointElement(
        ThreePointFraction(LaurentPoly.term(-1), 1, 0), LaurentPoly.one(), TP_T_PRIME
    )


def test_u_relations():
    u0, u1, u2 = u_elements()
    assert tp_bracket(u0, u1) == -(T * u2)
    assert tp_bracket(u1, u2) == -(TP_T_PRIME * u0)
    assert tp_bracket(u2, u0) == -(TP_T_DPRIME * u1)


def test_v_relations():
    v0, v1, v2 = v_elements()
    u0, u1, u2 = u_elements()
    assert v0 == T_MINUS_ONE * u0
    assert v1 == u1
    assert v2 == T * u2
    assert tp_bracket(v0, v1) == -(T_MINUS_ONE * v2)
    assert tp_bracket(v1, v2) == -v0
    assert tp_bracket(v2, v0) == T * v1


def test_v_bracket_examples():
    one = LaurentPoly.one()
    assert v_bracket(VElement(one, None, None), VElement(None, one, None)) == VElement(
        None, None, -T_MINUS_ONE
    )
    assert v_bracket(VElement(None, one, None), VElement(None, None, one)) == VElement(
        LaurentPoly.term(-1), None, None
    )
    assert v_bracket(VElement(None, None, one), VElement(one, None, None)) == VElement(
        None, T, None
    )
    r = rng(62)
    for _ in range(15):
        a = random_velement(r)
        assert v_bracket(a, a) == V_ZERO


def test_v_bracket_jacobi():
    r = rng(63)
    for _ in range(10):
        a, b, c = (random_velement(r, 2) for _ in range(3))
        defect = (
            v_bracket(a, v_bracket(b, c))
            + v_bracket(b, v_bracket(c, a))
            + v_bracket(c, v_bracket(a, b))
        )
        assert defect == V_ZERO


def test_commuting_square_v_vs_three_point():
    r = rng(64)
    for _ in range(12):
        a, b = random_velement(r, 2), random_velement(r, 2)
        assert from_v(v_bracket(a, b)) == tp_bracket(from_v(a), from_v(b))


def test_to_v_examples():
    v0, v1, v2 = v_elements()
    assert to_v(4 * v0) == VElement(LaurentPoly.term(4), None, None)
    assert to_v(phi(A(0))) == VElement(None, LaurentPoly.term(2), LaurentPoly.term(-2))
    u0, u1, u2 = u_elements()
    with pytest.raises(ValueError, match="v_2"):
        to_v(u2)


def test_to_v_from_v_round_trips():
    r = rng(65)
    for _ in range(20):
        v = random_velement(r)
        assert to_v(from_v(v)) == v


def test_phi_reference_values():
    v0, v1, v2 = v_elements()
    u0, u1, u2 = u_elements()
    assert phi(G(1)) == 4 * v0
    assert phi(A(0) + A(1)) == 4 * u1
    assert phi(A(0) - A(1)) == -4 * (T * u2)
    assert phi_v(A(0)) == VElement(None, LaurentPoly.term(2), LaurentPoly.term(-2))
    assert phi_v(A(1)) == VElement(None, LaurentPoly.term(2), LaurentPoly.term(2))


def test_phi_homomorphism_window():
    basis = [A(m) for m in range(-6, 7)] + [G(l) for l in range(1, 7)]
    images = {id(x): phi(x) for x in basis}
    for x in basis:
        for y in basis:
            assert phi(bracket(x, y)) == tp_bracket(images[id(x)], images[id(y)])


def test_phi_image_always_in_module():
    r = rng(66)
    for _ in range(15):
        x = random_onsager(r)
        v = to_v(phi(x))
        assert v == phi_v(x)


def test_phi_injective_on_window():
    r = rng(67)
    for _ in range(15):
        x = random_onsager(r)
        assert phi_inverse(phi_v(x)) == x


def test_closed_forms_match_bracket_recurrence():
    # Rebuild every image from phi_v(A_0), phi_v(A_1) with v_bracket alone
    # (A_m = A_{m-2} + [G_1, A_{m-1}], ...) and compare with the closed forms.
    rebuilt = reconstruct_basis(40, seeds=(phi_v(A(0)), phi_v(A(1))))
    assert len(rebuilt) == 3 * 40 + 1  # A_0 and G_n, A_n, A_-n for 1 <= n <= 40
    for name, image in rebuilt.items():
        letter, index = name.split("_")
        assert image == phi_v(A(int(index)) if letter == "A" else G(int(index))), name


def test_phi_inverse_high_degree():
    d = 120
    x = OnsagerElement({d + 1: 3, -d: Fraction(-1, 2), 17: 5, -40: 1}, {d + 1: Fraction(2, 3), 60: -7})
    assert phi_inverse(phi_v(x)) == x


def test_phi_inverse_rejects_non_image():
    # v_0 * 1 is phi(G_1)/4, fine; but a v-element outside the image of the
    # A/G span does not exist: the embedding is onto the module, so any
    # polynomial triple inverts.
    r = rng(68)
    v = random_velement(r)
    assert phi_v(phi_inverse(v)) == v


def test_dolan_grady_in_v_module():
    assert check_dolan_grady(phi_v(A(0)), phi_v(A(1))).both_hold


def test_regeneration_from_v_basis():
    # v_0 t^(n+1) arises from v_0 t^n through two brackets with v_2,
    # v_1 t^(n+1) through one, and v_2 t^n (t-1) via v_1.
    one = LaurentPoly.one()
    v2 = VElement(None, None, one)
    v1 = VElement(None, one, None)
    for n in range(0, 7):
        v0tn = VElement(LaurentPoly.term(1, n), None, None)
        step = v_bracket(v2, v0tn)
        assert step == VElement(None, LaurentPoly.term(1, n + 1), None)
        assert v_bracket(v2, step) == VElement(LaurentPoly.term(1, n + 1), None, None)
        assert v_bracket(v1, v0tn) == VElement(
            None, None, LaurentPoly.term(1, n) * T_MINUS_ONE
        )


def test_independence_witness_small_values():
    report = independence_witness(1)
    by_key = {(e.start, e.power): e for e in report.entries}
    v0, v1, v2 = v_elements()
    # m = 0: the starting elements themselves
    assert from_v(by_key[("u_1", 0)].element) == v1
    assert from_v(by_key[("u_2*t", 0)].element) == v2
    # m = 1: [v_0, v_1] = -v_2(t-1) = -u_2 t (t-1) and [v_0, v_2] = -v_1 t
    assert from_v(by_key[("u_1", 1)].element) == -(T_MINUS_ONE * v2)
    assert from_v(by_key[("u_2*t", 1)].element) == -(T * v1)


def test_independence_witness_closed_forms():
    report = independence_witness(8)
    assert report.leading_monomials_distinct
    tt1 = LaurentPoly({1: 1}) * T_MINUS_ONE  # t(t-1)
    for entry in report.entries:
        m, lane = entry.power, entry.lane
        half = m // 2
        if entry.start == "u_1":
            if m % 2 == 0:
                assert lane == "v_1" and entry.element.q1 == tt1 ** half
            else:
                assert lane == "v_2" and entry.element.q2 == -(T_MINUS_ONE * tt1 ** half)
        else:
            if m % 2 == 0:
                assert lane == "v_2" and entry.element.q2 == tt1 ** half
            else:
                assert lane == "v_1" and entry.element.q1 == -(LaurentPoly({1: 1}) * tt1 ** half)


def test_independence_witness_leading_pattern():
    # Leading monomials in the u-coordinates follow the alternating pattern
    # u_1 t^(2m), u_2 t^(2m+2), u_2 t^(2m+1), u_1 t^(2m+1): all distinct.
    report = independence_witness(8)
    seen = set()
    for entry in report.entries:
        # translate to u-coordinates: u_1-lane keeps the degree, the
        # u_2-lane is v_2 = u_2 t so the u-degree is one higher
        if entry.lane == "v_1":
            key = ("u_1", entry.degree)
        else:
            key = ("u_2", entry.degree + 1)
        assert key not in seen
        seen.add(key)
        if entry.power % 2 == 0:
            # even powers stay in the starting lane: u_1 t^m resp. u_2 t^(m+1)
            expected = ("u_1", entry.power) if entry.start == "u_1" else ("u_2", entry.power + 1)
        else:
            # odd powers swap lanes: u_2 t^(m+1) resp. u_1 t^m
            expected = ("u_2", entry.power + 1) if entry.start == "u_1" else ("u_1", entry.power)
        assert key == expected
        assert abs(entry.leading) == 1
