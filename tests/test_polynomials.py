from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, strategies as st

from umbralcalc.polynomials import (
    Polynomial,
    X,
    _common_denominator,
    _lowest,
    _ratio_text,
    falling_factorial,
    parse_rational,
    rising_factorial,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(rationals, max_size=6).map(Polynomial)


def derivative_at(p, a):
    """Independent oracle for p'(a): synthetic division of p(x) - p(a) by
    (x - a) gives a quotient q with q(a) = p'(a)."""
    a = Fraction(a)
    if p.degree < 1:
        return Fraction(0)
    descending = list(reversed(p.coefficients))
    quotient = [descending[0]]
    for c in descending[1:-1]:
        quotient.append(quotient[-1] * a + c)
    value = Fraction(0)
    for c in quotient:
        value = value * a + c
    return value


def fraction_render(p):
    """Reference text of p, written the way `str` wrote it when every
    coefficient was rendered as a `Fraction`: nonzero terms in descending
    powers, a unit coefficient left out before x or x^k."""
    text = ""
    for k in range(p.degree, -1, -1):
        c = p.coefficients[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "x" if k == 1 else f"x^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = "-" + body if c < 0 else body
    return text or "0"


def test_eval_examples():
    assert Polynomial([-1, 0, 1])(1) == 0
    assert Polynomial.monomial(3)(Fraction(2, 3)) == Fraction(8, 27)
    # E_1(x) = x - 1/2 vanishes at 1/2
    assert Polynomial([Fraction(-1, 2), 1])(Fraction(1, 2)) == 0


def test_shift_examples():
    assert (X**2).shift(-1) == Polynomial([1, -2, 1])
    assert X.shift(0) == X
    assert falling_factorial(3).shift(1) == Polynomial([0, -1, 0, 1])  # x^3 - x


def test_derivative_examples():
    assert Polynomial.monomial(3).derivative() == 3 * X**2
    assert Polynomial([5]).derivative() == Polynomial()
    b2 = Polynomial([Fraction(1, 6), -1, 1])
    assert b2.derivative() == Polynomial([-1, 2])


def test_factorial_polynomials():
    assert falling_factorial(0) == Polynomial([1])
    assert falling_factorial(3) == Polynomial([0, 2, -3, 1])
    assert falling_factorial(4) == Polynomial([0, -6, 11, -6, 1])
    assert rising_factorial(0) == Polynomial([1])
    assert rising_factorial(2) == Polynomial([0, 1, 1])
    assert rising_factorial(3) == Polynomial([0, 2, 3, 1])
    with pytest.raises(ValueError):
        falling_factorial(-1)


def test_falling_is_shifted_rising():
    for n in range(1, 9):
        assert falling_factorial(n) == rising_factorial(n).shift(-(n - 1))


def test_derivative_of_falling_factorials_matches_quotient_oracle():
    for n in range(1, 9):
        p = falling_factorial(n)
        dp = p.derivative()
        for a in range(-3, 4):
            assert dp(a) == derivative_at(p, a)


def test_zero_polynomial_canonical():
    z = Polynomial([0, 0, 0])
    assert z.degree == -1
    assert z.coefficients == ()
    assert not z
    assert z == 0


def test_scalar_interop():
    p = X + 1
    assert 2 * p == p * 2 == Polynomial([2, 2])
    assert p - 1 == X
    assert 1 - X == Polynomial([1, -1])
    assert (2 * p) / 2 == p


def test_constant_equality_and_hash():
    assert Polynomial([Fraction(3, 2)]) == Fraction(3, 2)
    assert hash(Polynomial([Fraction(3, 2)])) == hash(Fraction(3, 2))
    assert Polynomial() == 0


def test_rendering_and_serialization():
    p = Polynomial([Fraction(1, 6), -1, 1])
    assert str(p) == "x^2 - x + 1/6"
    assert str(Polynomial()) == "0"
    assert parse_rational("-3/5") == Fraction(-3, 5)
    with pytest.raises(ValueError):
        parse_rational("not-a-number")


@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 6)
@example(-7, 1)
@example(-4, 6)
def test_ratio_text_is_the_text_of_the_fraction(c, d):
    q = Fraction(c, d)
    assert _lowest(c, d) == (q.numerator, q.denominator)
    assert _ratio_text(*_lowest(c, d)) == str(q)


@given(polys)
def test_str_matches_the_fraction_renderer(p):
    assert str(p) == fraction_render(p)


@given(polys, polys, rationals)
def test_eval_is_ring_homomorphism(p, q, a):
    assert (p * q)(a) == p(a) * q(a)
    assert (p + q)(a) == p(a) + q(a)


@given(polys, rationals)
def test_shift_round_trip(p, c):
    assert p.shift(c).shift(-c) == p


@given(polys, rationals, rationals)
def test_shift_is_evaluation_shift(p, c, a):
    assert p.shift(c)(a) == p(a + c)


@given(polys, polys)
def test_product_degree(p, q):
    if p and q:
        assert (p * q).degree == p.degree + q.degree
        assert (p * q).coefficients[-1] == p.coefficients[-1] * q.coefficients[-1]


@given(polys)
def test_derivative_at_random_points_matches_oracle(p):
    dp = p.derivative()
    for a in (0, 1, Fraction(-2, 3)):
        assert dp(a) == derivative_at(p, a)


@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=40)), max_size=8))
def test_common_denominator_keeps_values_over_the_lcm(values):
    nums, den = _common_denominator(values)
    assert den == lcm(*[Fraction(v).denominator for v in values])
    assert len(nums) == len(values)
    for num, value in zip(nums, values):
        assert type(num) is int and Fraction(num, den) == value
