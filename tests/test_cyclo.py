from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from erskit.cyclo import Cyc, ONE, ZERO, SQRT2, SQRT_M1, ZETA24, exp_pi_i_over

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)
elements = st.builds(Cyc, st.lists(rationals, min_size=8, max_size=8))


def test_constants():
    assert SQRT2 * SQRT2 == Cyc.from_rational(2)
    assert SQRT_M1 * SQRT_M1 == Cyc.from_rational(-1)
    assert ZETA24 ** 24 == ONE
    assert ZETA24 ** 12 == -ONE
    # primitive: no smaller power hits 1
    assert all(ZETA24 ** n != ONE for n in range(1, 24))


def test_exp_pi_i_over():
    assert exp_pi_i_over(1) == -ONE
    assert exp_pi_i_over(2) == SQRT_M1
    assert exp_pi_i_over(3) ** 3 == -ONE
    assert exp_pi_i_over(4) ** 2 == SQRT_M1
    assert exp_pi_i_over(4) == (ONE + SQRT_M1) / SQRT2


def test_rational_detection():
    assert (SQRT2 ** 2).is_rational()
    assert (SQRT2 ** 2).rational_value() == 2
    assert not SQRT2.is_rational()
    assert Cyc.from_rational(Fraction(3, 7)).rational_value() == Fraction(3, 7)


def test_mixed_arithmetic_with_fractions():
    assert Fraction(1, 2) + SQRT2 - SQRT2 == Cyc.from_rational(Fraction(1, 2))
    assert 3 * SQRT_M1 == SQRT_M1 + SQRT_M1 + SQRT_M1
    assert (2 * ONE) / 2 == ONE


def test_negative_powers():
    z = ZETA24
    assert z ** -1 == z ** 23
    assert (SQRT2 ** -2) == Cyc.from_rational(Fraction(1, 2))


@settings(max_examples=40)
@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@settings(max_examples=40)
@given(elements)
def test_field_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == ONE


@given(elements)
def test_serialize_roundtrip(a):
    assert Cyc(Fraction(s) for s in a.serialize()) == a


@given(elements, elements)
def test_hash_consistency(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_rational_hash_matches_the_scalar_it_equals():
    for q in (0, 1, -5, Fraction(1, 2), Fraction(-3, 7)):
        c = Cyc.from_rational(q)
        assert c == q and hash(c) == hash(q)
    assert len({Cyc.from_rational(1), 1}) == 1
    assert len({ONE, Fraction(1), 1}) == 1


# -- an independent oracle: sympy's Q[x] modulo the 24th cyclotomic polynomial

@pytest.fixture(scope="module")
def qx():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(24, x), x, domain=sympy.QQ)

    def poly(coords):
        return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                         for c in coords])), x, domain=sympy.QQ)

    def coords(p):
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.rem(phi).all_coeffs())]
        return cs + [Fraction(0)] * (8 - len(cs))

    return phi, poly, coords


coordinates = st.lists(rationals, min_size=8, max_size=8)


@settings(max_examples=40, deadline=None)
@given(coordinates, coordinates)
def test_ring_ops_match_sympy(qx, ca, cb):
    _, poly, coords = qx
    a, b = Cyc(ca), Cyc(cb)
    pa, pb = poly(ca), poly(cb)
    # a rational factor on either side takes the scaling path of __mul__
    q, pq = Cyc.from_rational(ca[0]), poly(ca[:1])
    for got, want in ((a * b, pa * pb), (a + b, pa + pb), (a - b, pa - pb),
                      (q * b, pq * pb), (b * q, pb * pq)):
        assert got.serialize() == [str(c) for c in coords(want)]


@settings(max_examples=40, deadline=None)
@given(coordinates)
def test_inverse_matches_sympy(qx, ca):
    phi, poly, coords = qx
    a = Cyc(ca)
    if a.is_zero():
        return
    assert a.inverse() == Cyc(coords(poly(ca).invert(phi)))


def test_canonical_form_compares_and_hashes_equal():
    half_z = Cyc([0, Fraction(1, 2)] + [0] * 6)
    same = [
        ZETA24 / 2,
        ZETA24 * Fraction(1, 4) + ZETA24 * Fraction(1, 4),  # 2/4
        Cyc([0, Fraction(3, 6)] + [0] * 6),
        ZETA24 * Fraction(2, 3) * Fraction(3, 4),  # 6/12
        (ZETA24 + SQRT2) / 6 - SQRT2 / 6 + ZETA24 / 3,  # over 6, then 3
    ]
    for x in same:
        assert x == half_z and hash(x) == hash(half_z)
    zero = SQRT2 / 6 - SQRT2 * Fraction(2, 12)
    assert zero == ZERO and hash(zero) == hash(ZERO) and not zero


def test_serialize_strings():
    assert Cyc.from_rational(Fraction(-3, 6)).serialize() == ["-1/2"] + ["0"] * 7
    assert SQRT2.serialize() == ["0", "1", "0", "1", "0", "-1", "0", "0"]
    mixed = Cyc([Fraction(1, 2), Fraction(-2, 6), 0, 0, 0, 0, 0, 3])
    assert mixed.serialize() == ["1/2", "-1/3", "0", "0", "0", "0", "0", "3"]
    assert repr(SQRT2 / 3) == "Cyc(1/3*z^1 + 1/3*z^3 + -1/3*z^5)"
    assert repr(Cyc.from_rational(Fraction(5, 10))) == "Cyc(1/2)"


@settings(max_examples=40)
@given(elements, rationals, st.integers(-5, 5))
def test_rational_operands_on_both_sides(a, q, n):
    for r in (q, n):
        lifted = Cyc.from_rational(r)
        assert a + r == a + lifted == r + a
        assert a - r == a - lifted and r - a == lifted - a
        assert a * r == a * lifted == r * a
        if r:
            assert a / r == a / lifted
        if a:
            assert r / a == lifted / a
        assert lifted == r and r == lifted
        assert (a == r) == (a == lifted) == (r == a)
        assert all(isinstance(x, Cyc) for x in (a + r, r - a, r * a))


def test_rational_equality_needs_zero_irrational_part():
    assert ZETA24 != 0 and SQRT2 + 1 != 1
    assert Cyc.from_rational(Fraction(1, 2)) == Fraction(1, 2) != 1
    with pytest.raises(ZeroDivisionError):
        ONE / 0
