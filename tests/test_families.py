from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc import families
from umbralcalc.families import (
    bernoulli_kernel,
    euler_kernel,
    exp_minus_one,
    family_numbers,
    family_polys,
    frobenius_euler_kernel,
    mixed_kernel,
    one_minus_exp_neg,
    poly_bernoulli_kernel,
    polylog_series,
    polys_from_kernel,
    stirling2,
    stirling2_triangle,
)
from umbralcalc.polynomials import Polynomial, X
from umbralcalc.series import TruncatedSeries


# --- set-partition enumeration oracle ---------------------------------------

def partitions_by_block_count(n):
    """Count set partitions of {0..n-1} by number of blocks, by explicit
    enumeration: each element goes into one of the existing blocks or
    opens a new one, so every leaf of the recursion is a distinct
    partition."""
    counts = {}

    def place(element, blocks):
        if element == n:
            counts[len(blocks)] = counts.get(len(blocks), 0) + 1
            return
        for i in range(len(blocks)):
            blocks[i].append(element)
            place(element + 1, blocks)
            blocks[i].pop()
        blocks.append([element])
        place(element + 1, blocks)
        blocks.pop()

    place(0, [])
    return counts


def test_stirling_matches_partition_enumeration():
    for n in range(0, 9):
        counts = partitions_by_block_count(n)
        for m in range(n + 1):
            expected = counts.get(m, 0) if n else int(m == 0)
            assert stirling2(n, m) == expected


def test_stirling_examples():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(2, 5) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_bernoulli_polynomials():
    assert family_polys("bernoulli", 0, 3)[0] == 1
    assert family_polys("bernoulli", 1, 1)[1] == Polynomial([Fraction(-1, 2), 1])
    assert family_polys("bernoulli", 2, 1)[2] == Polynomial([Fraction(1, 6), -1, 1])


def test_bernoulli_numbers_satisfy_classical_recurrence():
    # sum_{j<n} C(n, j) B_j = 0 for n >= 2
    numbers = family_numbers("bernoulli", 12, 1)
    assert numbers[0] == 1 and numbers[1] == Fraction(-1, 2)
    for n in range(2, 13):
        assert sum(comb(n, j) * numbers[j] for j in range(n)) == 0


def test_euler_polynomials():
    assert family_polys("euler", 0, 2)[0] == 1
    assert family_polys("euler", 1, 1)[1] == Polynomial([Fraction(-1, 2), 1])
    assert family_polys("euler", 2, 1)[2] == Polynomial([0, -1, 1])


def test_euler_equals_frobenius_euler_at_minus_one():
    for s in range(0, 9):
        eulers = family_polys("euler", 8, s)
        frobenius = family_polys("frobenius-euler", 8, s, Fraction(-1))
        assert eulers == frobenius


def test_frobenius_euler_examples():
    assert family_polys("frobenius-euler", 0, 1, 2)[0] == 1
    assert family_polys("frobenius-euler", 1, 1, 2)[1] == X + 1
    with pytest.raises(ValueError):
        family_polys("frobenius-euler", 1, 1, 1)


def test_frobenius_euler_binomial_expansion():
    r, lam = 2, Fraction(-3, 5)
    numbers = family_numbers("frobenius-euler", 10, r, lam)
    for n, poly in enumerate(family_polys("frobenius-euler", 10, r, lam)):
        assert poly == Polynomial([comb(n, l) * numbers[n - l] for l in range(n + 1)])


def test_negative_order_is_reciprocal():
    lam = Fraction(2)
    order = 8
    forward = frobenius_euler_kernel(3, lam, order)
    backward = frobenius_euler_kernel(-3, lam, order)
    product = forward * backward
    assert product.coefficients == tuple([1] + [0] * order)


def test_polylog_special_cases():
    assert polylog_series(1, 8).coefficients == tuple([0, 1] + [0] * 7)
    assert polylog_series(0, 6) == exp_minus_one(6)
    for k in (-3, -1, 0, 2, 5):
        assert polylog_series(k, 4).coefficient(1) == 1


def test_poly_bernoulli_reduces_to_shifted_bernoulli():
    classical = family_polys("bernoulli", 10, 1)
    for n, poly in enumerate(family_polys("poly-bernoulli", 10, 1)):
        assert poly == classical[n].shift(1)


def test_poly_bernoulli_closed_form():
    # partition closed form, checked for positive and negative indices
    triangle = stirling2_triangle(10)
    for k in range(-2, 4):
        family = family_polys("poly-bernoulli", 10, k)
        for n in range(11):
            coeffs = []
            for j in range(n + 1):
                total = Fraction(0)
                for m in range(n - j + 1):
                    sign = -1 if (n - m - j) % 2 else 1
                    total += (
                        sign
                        * Fraction(m + 1) ** (-k)
                        * comb(n, j)
                        * factorial(m)
                        * triangle[n - j][m]
                    )
                coeffs.append(total)
            assert family[n] == Polynomial(coeffs)


def test_mixed_family_basics():
    assert family_polys("mixed-T", 0, 3, -2, Fraction(7))[0] == 1
    for r, k, lam in [(1, 2, Fraction(2)), (-2, -1, Fraction(1, 2)), (3, 0, Fraction(-1))]:
        t1 = family_polys("mixed-T", 1, r, k, lam)[1]
        assert t1 == X + (-Fraction(r) / (1 - lam) + Fraction(2) ** (-k))
    with pytest.raises(ValueError):
        family_polys("mixed-T", 1, 1, 1, 1)


def test_mixed_family_is_monic():
    for r, k, lam in [(2, 2, Fraction(1, 2)), (-1, -3, Fraction(7))]:
        for n, poly in enumerate(family_polys("mixed-T", 8, r, k, lam)):
            assert poly.degree == n
            assert poly.coefficients[-1] == 1


def test_mixed_reduces_to_poly_bernoulli_at_order_zero():
    for k in (-2, 1, 3):
        family = family_polys("poly-bernoulli", 10, k)
        assert family_polys("mixed-T", 10, 0, k, Fraction(2)) == family
        assert family_polys("mixed-T", 10, 0, k, Fraction(-3, 5)) == family


def test_mixed_family_equals_operator_action_on_monomials():
    from umbralcalc.families import mixed_kernel
    from umbralcalc.umbral import apply_operator

    r, k, lam = 2, -1, Fraction(1, 2)
    operator = mixed_kernel(r, k, lam, 9)
    family = family_polys("mixed-T", 7, r, k, lam)
    for n in range(8):
        assert apply_operator(operator, Polynomial.monomial(n)) == family[n]


def test_mixed_numbers_are_evaluations_at_zero():
    r, k, lam = 2, -2, Fraction(-3, 5)
    numbers = family_numbers("mixed-T", 8, r, k, lam)
    for n, poly in enumerate(family_polys("mixed-T", 8, r, k, lam)):
        assert poly(0) == numbers[n]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 5)]),
)
def test_mixed_family_derivative_rule(r, k, lam):
    family = family_polys("mixed-T", 6, r, k, lam)
    for n in range(1, 7):
        assert family[n].derivative() == n * family[n - 1]


def _uncached(build, *args):
    """``build(*args)`` with every kernel memo emptied first, so that no
    factor is served as the truncation of an earlier, longer build."""
    for builder, _ in CACHED_CALLS:
        builder.cache_clear()
    return build(*args)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_families_truncate_exactly_at_the_degree(n):
    # expanding the kernel five orders further changes no coefficient
    # through t^n, so the library's order-n expansion is exact; each side
    # is built on emptied kernel memos, so the order-n side is not served
    # as a truncation of the longer build
    lam = Fraction(-3, 5)
    cases = [
        (bernoulli_kernel, (2,), "bernoulli"),
        (euler_kernel, (3,), "euler"),
        (frobenius_euler_kernel, (-2, lam), "frobenius-euler"),
        (poly_bernoulli_kernel, (-2,), "poly-bernoulli"),
        (poly_bernoulli_kernel, (0,), "poly-bernoulli"),
        (mixed_kernel, (-1, -2, lam), "mixed-T"),
        (mixed_kernel, (2, 3, Fraction(2)), "mixed-T"),
    ]
    for kernel, params, family in cases:
        longer = _uncached(kernel, *params, n + 5)
        assert polys_from_kernel(longer, n) == _uncached(family_polys, family, n, *params)


# --- integer expansion and polylogarithm against the series routes ----------

def series_product_polys(kernel, n_max):
    """p_n = n! [t^n] e^{xt} * kernel by series products, with
    e^{xt} = sum_i x^i t^i/i!: the x^i coefficient of p_n is n! [t^n] of
    the rational series kernel * t^i/i!."""
    order = kernel.order
    products = [
        kernel * TruncatedSeries([0] * i + [Fraction(1, factorial(i))], order)
        for i in range(n_max + 1)
    ]
    return [
        Polynomial([factorial(n) * products[i].coefficient(n) for i in range(n + 1)])
        for n in range(n_max + 1)
    ]


def fraction_loop_polylog(index, order):
    """sum_{j<=order} j^(-index) (1 - e^{-t})^j by series + and scalar *."""
    acc = TruncatedSeries.constant(0, order)
    power = None
    y = one_minus_exp_neg(order)
    for j in range(1, order + 1):
        power = y if power is None else power * y
        acc = acc + power * Fraction(j) ** (-index)
    return acc


def assert_canonical(poly):
    num, den = poly._num, poly._den
    assert all(type(c) is int for c in num) and type(den) is int and den > 0
    assert not num or num[-1] != 0
    assert gcd(den, *num) == 1
    rebuilt = Polynomial(poly.coefficients)
    assert (num, den) == (rebuilt._num, rebuilt._den)


@st.composite
def kernels_and_degrees(draw):
    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=60)
    coeffs = draw(st.lists(rationals, min_size=1, max_size=12))
    kernel = TruncatedSeries(coeffs)
    return kernel, draw(st.integers(0, kernel.order))


@given(kernels_and_degrees())
def test_polys_from_kernel_matches_series_product(case):
    kernel, n_max = case
    polys = polys_from_kernel(kernel, n_max)
    assert polys == series_product_polys(kernel, n_max)
    for poly in polys:
        assert_canonical(poly)


def test_polys_from_kernel_matches_series_product_on_library_kernels():
    lam = Fraction(-3, 5)
    for kernel in (mixed_kernel(3, -3, lam, 24), mixed_kernel(-2, 2, Fraction(7), 13)):
        for n_max in (0, 1, kernel.order):
            assert polys_from_kernel(kernel, n_max) == series_product_polys(kernel, n_max)


def test_polys_from_kernel_rejects_too_high_degree():
    with pytest.raises(ValueError):
        polys_from_kernel(TruncatedSeries([1, 2], 1), 2)


@pytest.mark.parametrize("k", range(-4, 5))
def test_polylog_series_matches_fraction_loop(k):
    for order in range(26):
        series = polylog_series.__wrapped__(k, order)
        assert series.order == order
        assert series.coefficients == fraction_loop_polylog(k, order).coefficients
        assert all(type(c) is Fraction for c in series.coefficients)


# --- memoised kernel builders ------------------------------------------------

CACHED_CALLS = [
    (polylog_series, (-2, 5)),
    (frobenius_euler_kernel, (-2, Fraction(-3, 5), 5)),
    (bernoulli_kernel, (2, 5)),
    (euler_kernel, (3, 5)),
    (poly_bernoulli_kernel, (-1, 5)),
]


@pytest.mark.parametrize(
    "builder, args", CACHED_CALLS, ids=[builder.__name__ for builder, _ in CACHED_CALLS]
)
def test_repeat_builder_call_returns_the_cached_series(builder, args):
    first = builder(*args)
    assert builder(*args) is first
    assert builder.cache_info().hits >= 1


def test_mixed_kernel_is_rebuilt_from_its_cached_factors():
    # only the factors are memoised: a repeat call multiplies them again
    assert not hasattr(mixed_kernel, "cache_info")
    args = (3, 2, Fraction(7), 5)
    first = mixed_kernel(*args)
    hits = frobenius_euler_kernel.cache_info().hits, poly_bernoulli_kernel.cache_info().hits
    second = mixed_kernel(*args)
    assert second == first and second is not first
    assert frobenius_euler_kernel.cache_info().hits == hits[0] + 1
    assert poly_bernoulli_kernel.cache_info().hits == hits[1] + 1


def _fresh(builder, args):
    if builder is mixed_kernel:
        r, k, lam, order = args
        return frobenius_euler_kernel.__wrapped__(
            r, lam, order
        ) * poly_bernoulli_kernel.__wrapped__(k, order)
    return builder.__wrapped__(*args)


def _small_kernel_grid():
    orders = (0, 1, 4)
    lams = (Fraction(-3, 5), Fraction(2))
    for order in orders:
        for k in (-2, 0, 1, 3):
            yield polylog_series, (k, order)
            yield poly_bernoulli_kernel, (k, order)
        for s in (0, 1, 3):
            yield bernoulli_kernel, (s, order)
            yield euler_kernel, (s, order)
        for r in (-2, 0, 3):
            for lam in lams:
                yield frobenius_euler_kernel, (r, lam, order)
                for k in (-1, 0, 2):
                    yield mixed_kernel, (r, k, lam, order)


def test_cached_builders_equal_fresh_builds():
    for builder, args in _small_kernel_grid():
        cached = builder(*args)
        assert _fresh(builder, args) == cached, (builder.__name__, args)


def test_cache_keys_are_typed():
    lam = Fraction(-3, 5)
    frobenius_euler_kernel(2, lam, 4)
    with pytest.raises(TypeError):
        frobenius_euler_kernel(2.0, lam, 4)
    with pytest.raises(TypeError):
        mixed_kernel(2.0, 1, lam, 4)


def test_lambda_one_raises_on_every_call():
    for _ in range(2):
        for lam in (1, Fraction(1)):
            with pytest.raises(ValueError):
                frobenius_euler_kernel(2, lam, 4)
            with pytest.raises(ValueError):
                mixed_kernel(2, 1, lam, 4)


def test_inexact_lambda_is_rejected():
    # a float lambda used to be taken as its binary approximant, so that
    # T_1 read x - 36028797018963968/32425917317067571
    with pytest.raises(TypeError, match="must be exact"):
        family_polys("frobenius-euler", 1, 1, 0.1)
    with pytest.raises(TypeError, match="must be exact"):
        family_polys("mixed-T", 1, 1, 1, 0.5)


def test_order_zero_mixed_kernel_is_a_separate_entry():
    # foundations' order-zero degeneration compares these two kernels'
    # families, so they must stay two computations, not one cache entry
    for k in (-2, 0, 3):
        mixed = mixed_kernel(0, k, Fraction(2), 6)
        plain = poly_bernoulli_kernel(k, 6)
        assert mixed == plain
        assert mixed is not plain


def test_family_lists_are_fresh_objects():
    first = family_polys("mixed-T", 4, 2, 1, Fraction(2))
    second = family_polys("mixed-T", 4, 2, 1, Fraction(2))
    assert first == second and first is not second


def test_full_verification_script_reports_every_cache(verification_script):
    script = verification_script
    bernoulli_kernel(1, 3)
    bernoulli_kernel(1, 3)
    lines = {line.split()[0]: line for line in script.cache_lines()}
    assert set(lines) == {builder.__name__ for builder, _ in CACHED_CALLS}
    info = bernoulli_kernel.cache_info()
    assert f"hits={info.hits:6d} misses={info.misses:6d}" in lines["bernoulli_kernel"]


# --- prefix rule: a lower order is a truncation of the longest series built --

PREFIX_GRID = [
    *[(polylog_series, (k,)) for k in (-2, 0, 1, 3)],
    *[(poly_bernoulli_kernel, (k,)) for k in (-2, 0, 1, 3)],
    *[(bernoulli_kernel, (s,)) for s in (0, 1, 2, 3)],
    *[(euler_kernel, (s,)) for s in (0, 1, 3)],
    *[
        (frobenius_euler_kernel, (r, lam))
        for r in (-2, 0, 2, 3)
        for lam in (Fraction(-3, 5), Fraction(2))
    ],
]


@pytest.mark.parametrize(
    "builder, params", PREFIX_GRID, ids=[f"{b.__name__}{p}" for b, p in PREFIX_GRID]
)
def test_raw_builds_truncate_exactly(builder, params):
    # the memo serves order n from a longer build, so each raw builder's
    # order-m series must truncate to its own order-n series
    builds = [builder.__wrapped__(*params, order) for order in range(13)]
    for m, longer in enumerate(builds):
        for n in range(m):
            assert longer.truncate(n) == builds[n], (m, n)


@pytest.fixture
def builds(monkeypatch):
    """A counter of kernel builds: every builder reaches `exp_series`, and
    a series served from the memo does not."""
    counter = {"calls": 0}
    exp_series = families.exp_series

    def counting(*args):
        counter["calls"] += 1
        return exp_series(*args)

    monkeypatch.setattr(families, "exp_series", counting)
    return counter


memo_cases = pytest.mark.parametrize(
    "builder, args", CACHED_CALLS, ids=[builder.__name__ for builder, _ in CACHED_CALLS]
)


@memo_cases
def test_lower_orders_are_served_from_the_longest_build(builder, args, builds):
    *params, m = args
    fresh = [builder.__wrapped__(*params, n) for n in range(m + 3)]
    builder.cache_clear()
    builder(*params, m)
    builds["calls"] = 0
    assert [builder(*params, n) for n in range(m + 1)] == fresh[: m + 1]
    assert builds["calls"] == 0
    # a higher order is a miss that builds, and then serves the orders below
    misses = builder.cache_info().misses
    assert builder(*params, m + 2) == fresh[m + 2]
    assert builds["calls"] > 0 and builder.cache_info().misses == misses + 1
    builds["calls"] = 0
    assert builder(*params, m + 1) == fresh[m + 1]
    assert builds["calls"] == 0


@memo_cases
def test_invalid_orders_reach_the_builder_on_a_warm_cache(builder, args):
    *params, m = args
    builder(*params, m)
    for _ in range(2):
        with pytest.raises(ValueError):
            builder(*params, -1)
        with pytest.raises(TypeError):
            builder(*params, 4.0)


@memo_cases
def test_cache_clear_empties_both_tables(builder, args, builds):
    *params, m = args
    builder(*params, m)
    builder.cache_clear()
    assert builder.cache_info().currsize == 0
    builds["calls"] = 0
    rebuilt = builder(*params, m - 1)
    assert builds["calls"] > 0
    assert rebuilt == builder.__wrapped__(*params, m - 1)
