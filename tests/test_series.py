from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from umbralcalc.families import (
    exp_minus_one,
    frobenius_euler_kernel,
    mixed_kernel,
    one_minus_exp_neg,
    stirling2,
)
from umbralcalc.polynomials import Polynomial, X
from umbralcalc.series import TruncatedSeries, exp_series

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
series = st.lists(rationals, min_size=1, max_size=8).map(TruncatedSeries)
invertible_series = st.tuples(
    st.fractions(min_value=1, max_value=3, max_denominator=4),
    st.lists(rationals, max_size=7),
).map(lambda t: TruncatedSeries([t[0], *t[1]]))
# any nonzero constant term: negative, non-unit and non-integer ones included
any_invertible_coeffs = st.tuples(
    st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=720), max_size=16),
).map(lambda t: [t[0], *t[1]])
delta_series = st.tuples(
    st.fractions(min_value=1, max_value=3, max_denominator=4),
    st.lists(rationals, min_size=0, max_size=6),
).map(lambda t: TruncatedSeries([0, t[0], *t[1]]))


# --- independent oracles ----------------------------------------------------

def conv(a, b, order):
    return [
        sum(a[j] * b[i - j] for j in range(i + 1) if j < len(a) and i - j < len(b))
        for i in range(order + 1)
    ]


def geometric_inverse_oracle(order):
    """(-1)/(e^t - 2) = 1/(1 - (e^t - 1)) as a plain geometric sum of
    powers of e^t - 1; independent of the series engine."""
    em1 = [Fraction(0)] + [Fraction(1, factorial(j)) for j in range(1, order + 1)]
    total = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(order + 1):
        total = [x + y for x, y in zip(total, power)]
        power = conv(power, em1, order)
    return total


def fraction_loop_inverse(coeffs):
    """The reciprocal by the plain Fraction recurrence
    b_0 = 1/a_0, b_k = -(1/a_0) sum_{j=1..k} a_j b_{k-j}."""
    a = [Fraction(c) for c in coeffs]
    b0 = 1 / a[0]
    out = [b0]
    for k in range(1, len(a)):
        acc = 0
        for j in range(1, k + 1):
            acc = acc + a[j] * out[k - j]
        out.append(-(b0 * acc))
    return out


def polylog_double_sum_oracle(index, order):
    """Term-by-term expansion of sum_j (1 - e^{-t})^j / j^index using
    plain list convolution."""
    y = [Fraction(0)] + [
        Fraction(-((-1) ** j), factorial(j)) for j in range(1, order + 1)
    ]
    total = [Fraction(0)] * (order + 1)
    power = y[:]
    for j in range(1, order + 1):
        weight = Fraction(j) ** (-index)
        total = [x + weight * y_ for x, y_ in zip(total, power)]
        power = conv(power, y, order)
    return total


# --- construction and invariants --------------------------------------------

def test_construction_pads_and_truncates():
    s = TruncatedSeries([1, 2], 4)
    assert s.coefficients == (1, 2, 0, 0, 0)
    assert TruncatedSeries([1, 2, 3], 1).coefficients == (1, 2)
    with pytest.raises(ValueError):
        TruncatedSeries([], None)
    with pytest.raises(ValueError):
        TruncatedSeries([1], -1)


def test_valuation_and_kind():
    assert TruncatedSeries([0, 0, 5], 4).valuation() == 2
    assert TruncatedSeries([0], 3).valuation() is None
    assert TruncatedSeries([0, 1], 3).is_delta
    assert TruncatedSeries([2, 1], 3).is_invertible


def test_add_examples():
    one_plus = TruncatedSeries([1, 1], 5)
    one_minus = TruncatedSeries([1, -1], 5)
    assert (one_plus + one_minus).coefficients == (2, 0, 0, 0, 0, 0)
    f = TruncatedSeries([3, 1, 4], 4)
    assert f + TruncatedSeries.constant(0, 4) == f
    double_exp = exp_series(1, 6) + exp_series(1, 6)
    assert all(double_exp.coefficient(k) == Fraction(2, factorial(k)) for k in range(7))


def test_mul_examples():
    one_plus = TruncatedSeries([1, 1], 5)
    one_minus = TruncatedSeries([1, -1], 5)
    assert (one_plus * one_minus).coefficients == (1, 0, -1, 0, 0, 0)
    t = TruncatedSeries.identity(5)
    assert (t * t**2).coefficients == (0, 0, 0, 1, 0, 0)


def test_mul_truncates_to_min_order():
    a = TruncatedSeries([1, 1], 8)
    b = TruncatedSeries([1, 1], 3)
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_stirling_generating_powers():
    # (e^t - 1)^m carries m! S2(l, m) / l! at t^l; the Stirling recurrence
    # is the independent second route
    order = 14
    base = exp_minus_one(order)
    power = TruncatedSeries.constant(1, order)
    for m in range(7):
        for l in range(order + 1):
            expected = Fraction(factorial(m) * stirling2(l, m), factorial(l))
            assert power.coefficient(l) == expected
        power = power * base


def test_invert_geometric():
    inv = TruncatedSeries([1, -1], 6).invert()
    assert inv.coefficients == (1, 1, 1, 1, 1, 1, 1)
    assert TruncatedSeries([2], 3).invert().coefficients == (Fraction(1, 2), 0, 0, 0)


def test_invert_frobenius_euler_base_against_geometric_oracle():
    # (e^t - lambda)/(1 - lambda) inverted at lambda = 2, i.e. (-1)/(e^t - 2)
    base = (exp_series(1, 8) - 2) * Fraction(-1)
    assert tuple(base.invert().coefficients) == tuple(geometric_inverse_oracle(8))
    kernel = frobenius_euler_kernel(1, 2, 4)
    assert kernel.coefficients[:3] == (1, 1, Fraction(3, 2))


@given(any_invertible_coeffs)
def test_integer_invert_matches_fraction_loop(coeffs):
    inverse = TruncatedSeries(coeffs).invert()
    assert list(inverse.coefficients) == fraction_loop_inverse(coeffs)
    assert all(type(c) is Fraction for c in inverse.coefficients)


@pytest.mark.parametrize("c0", [1, -1, 2, -3, Fraction(-3, 4), Fraction(5, 7)])
@pytest.mark.parametrize("order", [0, 1, 13])
def test_integer_invert_non_unit_constant_terms(c0, order):
    coeffs = [c0] + [Fraction((-1) ** j * (j + 2), j + 1) for j in range(1, order + 1)]
    inverse = TruncatedSeries(coeffs).invert()
    assert inverse.order == order
    assert list(inverse.coefficients) == fraction_loop_inverse(coeffs)


def test_integer_invert_of_a_high_order_kernel():
    # numerators over a large common denominator, where the reduced running
    # denominator matters; the scaled kernel has a non-unit constant term
    kernel = mixed_kernel(3, -3, Fraction(-3, 5), 40)
    for series in (kernel, kernel * Fraction(-7, 3)):
        assert list(series.invert().coefficients) == fraction_loop_inverse(series.coefficients)


def test_invert_requires_invertible_constant():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries([0, 1], 3).invert()


def test_compose_examples():
    log1p = TruncatedSeries(
        [Fraction((-1) ** (k - 1), k) if k else Fraction(0) for k in range(9)], 8
    )
    composed = exp_series(1, 8).compose(log1p)
    assert composed.coefficients == (1, 1, 0, 0, 0, 0, 0, 0, 0)
    outer = TruncatedSeries([0, 0, 1], 4)
    inner = TruncatedSeries([0, 1, 1], 4)
    assert outer.compose(inner).coefficients == (0, 0, 1, 2, 1)


def test_compose_rejects_invertible_inner():
    with pytest.raises(ValueError):
        exp_series(1, 4).compose(TruncatedSeries([1, 1], 4))


def test_polylog_composition_against_double_sum_oracle():
    # Li_2 as a series in y, composed with y = 1 - e^{-t}
    li2 = TruncatedSeries(
        [Fraction(0)] + [Fraction(1, j * j) for j in range(1, 9)], 8
    )
    composed = li2.compose(one_minus_exp_neg(8))
    assert list(composed.coefficients) == polylog_double_sum_oracle(2, 8)
    assert composed.coefficients[:4] == (0, 1, Fraction(-1, 4), Fraction(1, 36))


def test_comp_inverse_examples():
    t = TruncatedSeries.identity(6)
    assert t.comp_inverse() is t
    log_coeffs = exp_minus_one(10).comp_inverse()
    for k in range(1, 11):
        assert log_coeffs.coefficient(k) == Fraction((-1) ** (k - 1), k)
    neglog = one_minus_exp_neg(10).comp_inverse()
    for k in range(1, 11):
        assert neglog.coefficient(k) == Fraction(1, k)
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1], 4).comp_inverse()


def test_derivative_and_divide_by_t():
    assert TruncatedSeries([0, 0, 1], 4).derivative().coefficients == (0, 2, 0, 0)
    e = exp_series(1, 6)
    assert e.derivative() == e.truncate(5)
    fe = frobenius_euler_kernel(1, 2, 5)
    assert fe.derivative().coefficient(0) == 1  # first Frobenius-Euler number at lambda = 2
    assert TruncatedSeries.identity(4).divide_by_t().coefficients == (1, 0, 0, 0)
    assert TruncatedSeries([0, 0, 1, 1], 3).divide_by_t().coefficients == (0, 1, 1)
    ratio = one_minus_exp_neg(6).divide_by_t()
    assert ratio.coefficients[:3] == (1, Fraction(-1, 2), Fraction(1, 6))
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1], 3).divide_by_t()


def test_exp_series_cases():
    assert exp_series(0, 4).coefficients == (1, 0, 0, 0, 0)
    assert exp_series(1, 4).coefficient(3) == Fraction(1, 6)
    with pytest.raises(TypeError):
        exp_series(X, 4)


def test_polynomial_coefficients_do_not_mix_with_rational_series():
    # series are over the rationals only: e^{xt} is not a series here
    with pytest.raises(TypeError):
        exp_series(X, 5) * exp_minus_one(5)


@pytest.mark.parametrize("inexact", [0.1, 1.0, complex(1, 1), Decimal("0.5"), X])
def test_inexact_numbers_are_rejected(inexact):
    # a float coefficient or scalar used to pass through, so that
    # (0.1 + t)^2 read 0.010000000000000002 and inverses held floats; a
    # polynomial is no coefficient or scalar either
    rational = TruncatedSeries([Fraction(1, 10), 1], 3)
    with pytest.raises(TypeError, match="must be exact"):
        TruncatedSeries([inexact, 1], 3)
    for operation in (
        lambda: rational + inexact,
        lambda: inexact + rational,
        lambda: rational - inexact,
        lambda: inexact - rational,
        lambda: rational * inexact,
        lambda: inexact * rational,
        lambda: exp_series(inexact, 3),
        lambda: Polynomial([inexact, 1]),
        lambda: X(inexact),
        lambda: X.shift(inexact),
    ):
        with pytest.raises(TypeError):
            operation()


def test_exact_scalars_and_coefficients_still_mix():
    rational = TruncatedSeries([Fraction(1, 10), 1], 3)
    assert (rational**2).coefficients == (Fraction(1, 100), Fraction(1, 5), 1, 0)
    assert rational.invert().coefficients == (10, -100, 1000, -10000)
    assert (2 * rational + 1 - Fraction(1, 2)).coefficients == (Fraction(7, 10), 2, 0, 0)
    assert exp_series(Fraction(1, 2), 3).coefficients == (
        1, Fraction(1, 2), Fraction(1, 8), Fraction(1, 48)
    )
    assert all(type(c) is Fraction for c in exp_series(Fraction(1, 2), 3).coefficients)
    with pytest.raises(TypeError):
        exp_series(X, 4)
    with pytest.raises(TypeError):
        rational * X


# --- algebraic properties ---------------------------------------------------

@given(series, series)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(series, series, series)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(series, series, series)
def test_mul_distributes(a, b, c):
    n = min(a.order, b.order, c.order)
    lhs = (a * (b + c)).truncate(n)
    rhs = (a * b + a * c).truncate(n)
    assert lhs == rhs


@given(invertible_series)
def test_invert_round_trip(a):
    inv = a.invert()
    assert (a * inv).coefficients == tuple([1] + [0] * a.order)
    assert inv.invert() == a


@given(series, series)
def test_leibniz_rule(a, b):
    if min(a.order, b.order) < 1:
        return
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    n = min(lhs.order, rhs.order)
    assert lhs.truncate(n) == rhs.truncate(n)


@given(delta_series)
def test_comp_inverse_round_trip(f):
    fbar = f.comp_inverse()
    t = TruncatedSeries.identity(f.order) if f.order >= 1 else None
    if f.order >= 1:
        assert f.compose(fbar) == t
        assert fbar.compose(f) == t
