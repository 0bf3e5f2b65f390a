"""Independent oracles for the exact core.

The library's polynomials and rational series are stored fraction-free
(integer numerators over one common denominator).  These tests check them
from outside that layout: against sympy's classical polynomials and
Stirling numbers, against Kaneko's duality and closed form for
poly-Bernoulli numbers of negative index, and against a plain
`Fraction`-tuple reference implementation that lives only in this file.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from umbralcalc.families import family_numbers, family_polys, stirling2_triangle
from umbralcalc.polynomials import Polynomial
from umbralcalc.series import TruncatedSeries

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)
coeff_lists = st.lists(rationals, max_size=7)
invertible_lists = st.tuples(
    rationals.filter(bool), st.lists(rationals, max_size=7)
).map(lambda t: [t[0], *t[1]])


# --- Fraction-tuple reference ------------------------------------------------

def ref_trim(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def ref_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return ref_trim(x + y for x, y in zip(a, b))


def ref_neg(a):
    return tuple(-x for x in a)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_eval(a, point):
    return sum((c * Fraction(point) ** i for i, c in enumerate(a)), Fraction(0))


def ref_shift(a, offset):
    out = [Fraction(0)] * len(a)
    for i, c in enumerate(a):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * Fraction(offset) ** (i - j)
    return ref_trim(out)


def ref_series_mul(a, b, order):
    return tuple(
        sum((a[j] * b[i - j] for j in range(i + 1)), Fraction(0)) for i in range(order + 1)
    )


def ref_series_invert(a):
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        out.append(-sum((a[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)) / a[0])
    return tuple(out)


def padded(coeffs, order):
    return [Fraction(c) for c in coeffs] + [Fraction(0)] * (order + 1 - len(coeffs))


# --- sympy --------------------------------------------------------------------

def _sympy_coefficients(expr, x):
    import sympy

    poly = sympy.Poly(expr, x)
    return ref_trim(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def test_bernoulli_and_euler_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    bern, eul = family_polys("bernoulli", 10, 1), family_polys("euler", 10, 1)
    for n in range(11):
        assert bern[n].coefficients == _sympy_coefficients(sympy.bernoulli(n, x), x)
        assert eul[n].coefficients == _sympy_coefficients(sympy.euler(n, x), x)


def test_stirling_triangle_matches_sympy():
    pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import stirling

    triangle = stirling2_triangle(12)
    for n in range(13):
        for m in range(n + 1):
            assert triangle[n][m] == int(stirling(n, m))


# --- the mixed family in sympy's ring QQ[u, r, x][z_1, ...] -----------------

ORACLE_N = 8


def _mixed_family_oracle(n_max):
    """n! [t^n] of the Frobenius-Euler kernel times e^{xt} (H_n^{(r)}(x|lambda))
    and of the mixed kernel times e^{xt} (T_n^{(r,k)}(x|lambda)), for
    n <= n_max: H_n in sympy's sparse ring QQ[u, r, x] with
    u = 1/(1 - lambda), and T_n in the ring of z_1..z_{n_max+1} over it,
    with z_j standing for j^{-k}, so one T serves every k; t-series are
    lists truncated by hand.

    With e^t - lambda = (1 - lambda)(1 + u(e^t - 1)),

        ((1 - lambda)/(e^t - lambda))^r = (1 + u(e^t - 1))^{-r}
                                        = sum_j binom(-r, j) u^j (e^t - 1)^j,

    and Li_k(y)/y = sum_{j>=1} j^{-k} y^{j-1} = sum_{j>=1} z_j y^{j-1} with
    y = 1 - e^{-t}.

    Degrees in u and r: (e^t - 1)^j = O(t^j), so the t^m coefficient of
    the first factor has degree <= m in u and <= m in r (binom(-r, j) has
    degree j in r), and the other factors hold neither u nor r.  Since
    T_n = sum_l binom(n, l) H_{n-l} PB_l(x), H_n and T_n have degree <= n
    in u and in r.  So a residual of an identity in T_n vanishes for every
    lambda != 1 and every integer r once it vanishes on n + 1 distinct
    lambda times n + 1 integer r (tensor-grid polynomial identity
    testing).

    The k axis: y = O(t), so T_n is linear in z_1..z_{n+1} and holds no
    other z, T_n = sum_{j<=n+1} z_j c_{n,j} with each c_{n,j} free of k.
    At n + 1 consecutive integers k = k_0..k_0 + n the matrix [j^{-k}]
    (rows k, columns j) is diag(j^{-k_0}) times a Vandermonde matrix in the
    distinct nodes 1/j, so it is nonsingular: a residual linear in
    z_1..z_{n+1} that vanishes at n + 1 consecutive k vanishes for every
    integer k."""
    from sympy import QQ
    from sympy.polys.rings import ring

    size = n_max + 1
    R, u, r, x = ring("u,r,x", QQ)
    # the z_j over QQ[u, r, x]: a coefficient in the z's is a polynomial
    # in u, r and x
    _, *z = ring([f"z{j}" for j in range(1, size + 1)], R)

    def mul(a, b):
        return [sum((a[i] * b[m - i] for i in range(1, m + 1)), a[0] * b[m]) for m in range(size)]

    exp_minus_one = [R.zero] + [R(QQ(1, factorial(m))) for m in range(1, size)]
    y = [R.zero] + [R(QQ((-1) ** (m + 1), factorial(m))) for m in range(1, size)]
    exp_xt = [x**m * QQ(1, factorial(m)) for m in range(size)]

    frobenius = [R.one] + [R.zero] * n_max
    power, binomial = list(frobenius), R.one
    for j in range(1, size):
        power = mul(power, exp_minus_one)
        binomial = binomial * (-r - (j - 1)) * QQ(1, j)
        frobenius = [f + binomial * u**j * p for f, p in zip(frobenius, power)]
    h_series = mul(frobenius, exp_xt)

    polylog_quotient, power = [0] * size, [R.one] + [R.zero] * n_max
    for z_j in z:
        polylog_quotient = [c + z_j * p for c, p in zip(polylog_quotient, power)]
        power = mul(power, y)

    def polys(t_series):
        return [t_series[n] * factorial(n) for n in range(size)]

    return (u, r), polys(h_series), polys(mul(polylog_quotient, h_series))


def _at(poly, u, r, lam, r_value):
    """The coefficients in x of ``poly`` at u = 1/(1 - lam) and r = r_value."""
    from sympy import QQ

    u_value = 1 / (1 - lam)
    value = poly.subs([(u, QQ(u_value.numerator, u_value.denominator)), (r, r_value)])
    coefficients = {monom[2]: Fraction(int(c.numerator), int(c.denominator))
                    for monom, c in value.items()}
    return ref_trim(coefficients.get(i, 0) for i in range(max(coefficients, default=-1) + 1))


def test_mixed_and_frobenius_euler_families_match_a_sympy_ring_oracle():
    pytest.importorskip("sympy")
    from sympy import QQ

    k_values = (-3, -2, 1, 2, 3)
    (u, r), frobenius, mixed = _mixed_family_oracle(ORACLE_N)
    for n, poly in enumerate(frobenius):
        assert poly.degree(u) <= n and poly.degree(r) <= n
    for n, poly in enumerate(mixed):
        for z_degrees, coefficient in poly.items():
            assert sum(z_degrees) <= 1 and not any(z_degrees[n + 1:])
            assert coefficient.degree(u) <= n and coefficient.degree(r) <= n
    # z_j = j^{-k}, one term per z_j since T_n is linear in the z's
    mixed_at = {
        k: [sum(c * QQ(monom.index(1) + 1) ** -k for monom, c in poly.items()) for poly in mixed]
        for k in k_values
    }
    for lam in (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 5)):
        for r_value in (-2, 0, 3):
            library = family_polys("frobenius-euler", ORACLE_N, r_value, lam)
            for n in range(ORACLE_N + 1):
                assert library[n].coefficients == _at(frobenius[n], u, r, lam, r_value)
            for k in k_values:
                library = family_polys("mixed-T", ORACLE_N, r_value, k, lam)
                for n in range(ORACLE_N + 1):
                    assert library[n].coefficients == _at(mixed_at[k][n], u, r, lam, r_value)


# --- Kaneko's identities for poly-Bernoulli numbers of negative index --------

def explicit_stirling2(n, m):
    """S2(n, m) from the inclusion-exclusion sum, not the recurrence."""
    total = sum((-1) ** i * comb(m, i) * (m - i) ** n for i in range(m + 1))
    return total // factorial(m)


def test_poly_bernoulli_duality():
    # B_n^(-k) = B_k^(-n)
    table = {k: family_numbers("poly-bernoulli", 8, -k) for k in range(9)}
    for n in range(9):
        for k in range(9):
            assert table[k][n] == table[n][k]


def test_poly_bernoulli_closed_form():
    # B_n^(-k) = sum_j (j!)^2 S2(n+1, j+1) S2(k+1, j+1)
    for k in range(9):
        numbers = family_numbers("poly-bernoulli", 8, -k)
        for n in range(9):
            expected = sum(
                factorial(j) ** 2 * explicit_stirling2(n + 1, j + 1) * explicit_stirling2(k + 1, j + 1)
                for j in range(min(n, k) + 1)
            )
            assert numbers[n] == expected


# --- Polynomial against the reference ----------------------------------------

def assert_fraction_coefficients(p, expected):
    assert p.coefficients == expected
    assert all(type(c) is Fraction for c in p.coefficients)


@given(coeff_lists, coeff_lists, rationals)
def test_polynomial_ring_ops_match_reference(a, b, c):
    p, q = Polynomial(a), Polynomial(b)
    ra, rb = ref_trim(a), ref_trim(b)
    assert_fraction_coefficients(p + q, ref_add(ra, rb))
    assert_fraction_coefficients(p - q, ref_add(ra, ref_neg(rb)))
    assert_fraction_coefficients(-p, ref_neg(ra))
    assert_fraction_coefficients(p * q, ref_mul(ra, rb))
    assert_fraction_coefficients(p + c, ref_add(ra, (c,)))
    assert_fraction_coefficients(c - p, ref_add((c,), ref_neg(ra)))
    assert_fraction_coefficients(c * p, ref_mul(ra, ref_trim([c])))
    if c:
        assert_fraction_coefficients(p / c, ref_mul(ra, (1 / c,)))


@given(coeff_lists, rationals)
def test_polynomial_eval_and_shift_match_reference(a, c):
    p, ra = Polynomial(a), ref_trim(a)
    value = p(c)
    assert type(value) is Fraction and value == ref_eval(ra, c)
    assert_fraction_coefficients(p.shift(c), ref_shift(ra, c))
    for k in range(len(ra) + 2):
        expected = ra[k] if k < len(ra) else Fraction(0)
        assert type(p.coefficient(k)) is Fraction and p.coefficient(k) == expected


@given(coeff_lists, coeff_lists)
def test_equal_values_have_equal_repr_and_hash(a, b):
    p, q = Polynomial(a), Polynomial(b)
    for left, right in (((p * q), (q * p)), ((p + q) - q, p), (p * 6 / 6, p)):
        assert left == right
        assert hash(left) == hash(right)
        assert repr(left) == repr(right)
        assert str(left) == str(right)


@given(rationals, coeff_lists)
def test_constant_polynomial_hashes_like_its_scalar(c, a):
    p = Polynomial(a)
    for constant in (Polynomial([c]), p - p + c, Polynomial([c, 0, 0])):
        assert constant == c
        assert hash(constant) == hash(c)
    assert hash(Polynomial()) == hash(0) == hash(Fraction(0))


# --- rational TruncatedSeries against the reference --------------------------

@given(st.lists(rationals, min_size=1, max_size=9), st.lists(rationals, min_size=1, max_size=9))
def test_series_ring_ops_match_reference(a, b):
    f, g = TruncatedSeries(a), TruncatedSeries(b)
    n = min(f.order, g.order)
    fa, gb = padded(a, f.order), padded(b, g.order)
    assert (f * g).coefficients == ref_series_mul(fa, gb, n)
    assert (f + g).coefficients == tuple(x + y for x, y in zip(fa[: n + 1], gb[: n + 1]))
    assert (f - g).coefficients == tuple(x - y for x, y in zip(fa[: n + 1], gb[: n + 1]))
    assert all(type(c) is Fraction for c in (f * g).coefficients)


@given(
    st.lists(rationals, min_size=1, max_size=9),
    st.lists(rationals, min_size=1, max_size=9),
    st.integers(min_value=0, max_value=8),
)
def test_equal_series_have_equal_repr_and_hash(a, b, k):
    f, g = TruncatedSeries(a), TruncatedSeries(b)
    n = min(f.order, g.order)
    k = min(k, f.order)
    for left, right in (
        (f * g, g * f),
        ((f + g) - g, f.truncate(n)),
        (f * 6 * Fraction(1, 6), f),
        (f.truncate(k), TruncatedSeries(a[: k + 1], k)),
        (TruncatedSeries([0, *a]).divide_by_t(), f),
    ):
        assert left == right
        assert hash(left) == hash(right)
        assert repr(left) == repr(right)


@given(invertible_lists)
def test_series_invert_matches_reference(a):
    inverse = TruncatedSeries(a).invert()
    assert inverse.coefficients == ref_series_invert([Fraction(c) for c in a])
    assert all(type(c) is Fraction for c in inverse.coefficients)


def test_series_with_integer_and_rational_coefficients():
    # an integer series times a Fraction one: every coefficient reads back
    # as a Fraction
    half_t2 = TruncatedSeries([1, 1, 1], 2) * TruncatedSeries([0, 0, Fraction(1, 2)], 2)
    assert [type(c) for c in half_t2.coefficients] == [Fraction, Fraction, Fraction]
    mixed = half_t2 + 1
    assert (mixed * mixed).coefficients == (1, 0, 1)
    assert mixed.invert().coefficients == (1, 0, Fraction(-1, 2))
