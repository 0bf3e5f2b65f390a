"""Generators for the classical polynomial and number families.

Every family is produced from its exponential generating function through
the series engine: expand the kernel to order n, the largest degree asked
for, and read off p_n(x) = n! [t^n] kernel * e^{x t}.  Truncation at order
n is exact: the t^n coefficient of a product, inverse, power or
composition depends only on the factors through t^n.  Closed-form
summation formulas for the same families live only in the identity suite,
as an independent second computation path.

The two steps that turn a kernel into a family run on integers.
`polys_from_kernel` reads the kernel's stored integer numerators and
denominator and writes the t^n coefficient of the product with e^{x t}
directly, p_n(x) = sum_i n!/i! a_{n-i} x^i, one polynomial per degree.
`polylog_series` keeps the powers of 1 - e^{-t} and the partial sum of
the power series as integer numerators over one denominator each, and
stores the sum as the returned series with no `Fraction` made; it stays
a power sum, so the Stirling closed forms of the identity suite remain a
second path.
Because the expansion is exactly the binomial (Appell) formula,
foundations' "binomial expansion" check reads its other side from Roman's
coefficient formula, the pairing columns of the Appell pair
(`umbral.sheffer_polynomials`), not from this module.

Kernels (all with constant term 1, so every family is monic):

* Frobenius-Euler, order r:      ((1 - lambda)/(e^t - lambda))^r
* higher-order Bernoulli:        (t/(e^t - 1))^s
* higher-order Euler:            (2/(e^t + 1))^s
* poly-Bernoulli, index k:       Li_k(1 - e^{-t})/(1 - e^{-t})
* mixed type (r, k):             the product of the first and the last

`KERNELS` maps each family's name to its kernel builder, and the two
functions that read it, `family_polys` and `family_numbers`, expand any
family: ``family_polys("mixed-T", n, r, k, lam)`` is T_0..T_n, and
``family_numbers("bernoulli", n, 1)`` the Bernoulli numbers B_0..B_n.

Negative orders r and indices k <= 0 are fully supported: negative powers
go through the reciprocal series (invertible, constant term 1), and the
polylogarithm is the finite truncated sum, a formal series for any
integer index.

The five factor builders (`polylog_series`, `frobenius_euler_kernel`,
`bernoulli_kernel`, `euler_kernel` and `poly_bernoulli_kernel`) are
memoised for the life of the process: they are pure and return immutable
series, so a sweep builds each kernel once.  The memo has two tables, both
with typed keys, so a call such as ``frobenius_euler_kernel(2.0, lam, n)``
still raises TypeError rather than reading the entry of the integer order.
The first is a `functools.lru_cache` on the whole argument tuple, so a
repeat call returns the same object; its ``cache_info()`` counts hits and
misses, and ``__wrapped__`` is the raw builder.  The second keeps, per
parameter tuple, the longest series built so far.  A miss at an int order
0 <= n below that length is served as ``longest.truncate(n)``, without
calling the builder; any other miss builds, and a longer series becomes
the longest.  So requests at degrees 36, 12 and 30 build once, and the
verifiers, which read one parameter tuple at neighbouring orders (thm3
expands T^(r, k) to degree n_top + 1 and T^(r + 1, k), with the same
poly-Bernoulli factor, to n_top; `poly_bernoulli_kernel` asks for its
polylog one order up), build fewer kernels.  Each order served by
truncation is an lru entry of its own, so the series kept per parameter
tuple grow with the square of the longest order asked for.  A call
that fails uncached (a negative or non-int order, lambda = 1, a float r)
still reaches the builder and raises, and failed calls are never cached.
``cache_clear()`` empties both tables.

The prefix rule trusts truncation exactness (first paragraph).  A builder
whose order-n series is not the truncation of its order-m series has the
silent-precision defect that the `series` docstring calls the dominant
bug class, and the memo hides it from every call served by truncation.  A
polylog mutant that drops the j = order term is wrong only at t^order;
uncached, five verifiers catch it, but with the memo `verify thm3` and
`verify thm4` run alone pass it, since they read truncations of longer
builds (`verify all` still fails).  Which checks read a direct build
depends on what the process asked for before, so under such a defect the
counterexamples reported can depend on the order of the calls and, with
``--jobs`` > 1, on which worker ran which chunk.  So
`tests/test_families.py` compares each raw builder's truncations with its
own lower-order builds.

Deliberately not cached: `mixed_kernel`, whose two factors are, so a
repeat call costs one series product and keeps no third series per key;
and everything that takes a series or returns a list.  `polys_from_kernel`
and `numbers_from_kernel` would be keyed on series values, so equal
kernels built by different routes (``mixed_kernel(0, k, lam, n)`` and
``poly_bernoulli_kernel(k, n)``) would share one entry and the checks
comparing them would read it twice; and `family_polys` and
`family_numbers` return mutable lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, update_wrapper
from math import factorial, gcd
from operator import mul

from .polynomials import _canonical_row, _exact, _make
from .series import TruncatedSeries, exp_series

__all__ = [
    "require_not_one",
    "stirling2",
    "stirling2_triangle",
    "exp_minus_one",
    "one_minus_exp_neg",
    "polylog_series",
    "frobenius_euler_kernel",
    "bernoulli_kernel",
    "euler_kernel",
    "poly_bernoulli_kernel",
    "mixed_kernel",
    "polys_from_kernel",
    "numbers_from_kernel",
    "KERNELS",
    "family_polys",
    "family_numbers",
]


def require_not_one(value, name: str) -> Fraction:
    """``value`` as a `Fraction`, for an exact rational or a string such
    as "-2/3"; an inexact number raises TypeError (`polynomials._exact`)
    and the value 1 ValueError."""
    value = Fraction(value if isinstance(value, str) else _exact(value))
    if value == 1:
        raise ValueError(f"{name} must differ from 1")
    return value


def _require_degree(n: int) -> None:
    if n < 0:
        raise ValueError("degree must be nonnegative")


def _require_order_param(s: int) -> None:
    if s < 0:
        raise ValueError("order parameter must be nonnegative")


# ---------------------------------------------------------------------------
# Stirling numbers of the second kind

def stirling2_triangle(n_max: int) -> list:
    """Rows 0..n_max of the second-kind Stirling triangle, computed from
    the recurrence S2(n, m) = m*S2(n-1, m) + S2(n-1, m-1)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for m in range(1, n + 1):
            row[m] = (m * prev[m] if m < n else 0) + prev[m - 1]
        rows.append(row)
    return rows


def stirling2(n: int, m: int) -> int:
    """S2(n, m): partitions of an n-set into m nonempty blocks."""
    if n < 0 or m < 0:
        raise ValueError("Stirling numbers need nonnegative arguments")
    if m > n:
        return 0
    return stirling2_triangle(n)[n][m]


# ---------------------------------------------------------------------------
# Kernel series

def _memoised(builder):
    """The process-wide memo of a kernel builder whose last argument is the
    truncation order (see the module docstring)."""
    longest = {}

    def memo(*args, **kwargs):
        if kwargs or not args:  # no positional order to serve from a prefix
            return builder(*args, **kwargs)
        *params, order = args
        key = (*params, *map(type, params))
        prefix = longest.get(key)
        if type(order) is int and prefix is not None and 0 <= order < prefix.order:
            return prefix.truncate(order)
        series = builder(*args)
        if type(order) is int and (prefix is None or order > prefix.order):
            longest[key] = series
        return series

    cached = update_wrapper(lru_cache(maxsize=None, typed=True)(memo), builder)
    clear_entries = cached.cache_clear

    def cache_clear():
        clear_entries()
        longest.clear()

    cached.cache_clear = cache_clear
    return cached


def exp_minus_one(order: int) -> TruncatedSeries:
    """e^t - 1."""
    return exp_series(1, order) - 1


def one_minus_exp_neg(order: int) -> TruncatedSeries:
    """1 - e^{-t}."""
    return 1 - exp_series(-1, order)


@_memoised
def polylog_series(index: int, order: int) -> TruncatedSeries:
    """Li_index(1 - e^{-t}) truncated at the given order.

    Since 1 - e^{-t} has valuation 1, partial sums beyond j = order
    contribute nothing below t^{order+1}, so the sum is finite.  The power
    sum runs on integers: y = 1 - e^{-t}, each power y^j and the partial
    sum of j^(-index) y^j are kept as integer numerators over one
    denominator each, reduced once per step.
    """
    # y^j has valuation j, so power[i] is the numerator of its t^(j + i)
    # coefficient; y itself is the first power
    base = one_minus_exp_neg(order)
    y, d = base._num[1:], base._den
    power, power_den = y, d
    acc, acc_den = [0] * (order + 1), 1
    for j in range(1, order + 1):
        # acc/acc_den + w/w_den * power/power_den, w/w_den = j^(-index)
        w, w_den = (1, j**index) if index >= 0 else (j**-index, 1)
        term_den = power_den * w_den
        g = gcd(acc_den, term_den)
        acc_scale = term_den // g
        w *= acc_den // g
        acc = [c * acc_scale for c in acc]
        for i, c in enumerate(power):
            acc[j + i] += w * c
        acc, acc_den = _canonical_row(acc, acc_den * acc_scale)
        if j < order:
            power, power_den = _canonical_row(
                [sum(map(mul, power[: i + 1], y[i::-1])) for i in range(order - j)],
                power_den * d,
            )
    return TruncatedSeries._make(acc, acc_den, order)


@_memoised
def frobenius_euler_kernel(r: int, lam, order: int) -> TruncatedSeries:
    """((1 - lambda)/(e^t - lambda))^r for any integer r."""
    lam = require_not_one(lam, "lambda")
    base = (exp_series(1, order) - lam) * (Fraction(1) / (1 - lam))
    return base ** (-r)


@_memoised
def bernoulli_kernel(s: int, order: int) -> TruncatedSeries:
    """(t/(e^t - 1))^s."""
    _require_order_param(s)
    return exp_minus_one(order + 1).divide_by_t() ** (-s)


@_memoised
def euler_kernel(s: int, order: int) -> TruncatedSeries:
    """(2/(e^t + 1))^s."""
    _require_order_param(s)
    base = (exp_series(1, order) + 1) * Fraction(1, 2)
    return base ** (-s)


@_memoised
def poly_bernoulli_kernel(index: int, order: int) -> TruncatedSeries:
    """Li_index(1 - e^{-t})/(1 - e^{-t})."""
    numerator = polylog_series(index, order + 1).divide_by_t()
    denominator = one_minus_exp_neg(order + 1).divide_by_t()
    return numerator * denominator.invert()


def mixed_kernel(r: int, index: int, lam, order: int) -> TruncatedSeries:
    """Product kernel of the mixed-type family."""
    return frobenius_euler_kernel(r, lam, order) * poly_bernoulli_kernel(index, order)


# ---------------------------------------------------------------------------
# Families from kernels

def polys_from_kernel(kernel: TruncatedSeries, n_max: int) -> list:
    """Polynomials p_n(x) = n! [t^n] kernel * e^{x t} for n = 0..n_max.

    With the rational kernel stored as integer numerators A_j over one
    denominator D, the t^n coefficient of the product gives
    p_n(x) = (1/D) sum_i n!/i! A_{n-i} x^i, built as one polynomial."""
    if n_max > kernel.order:
        raise ValueError("kernel truncation order is too small")
    nums, den = kernel._num, kernel._den
    polys = []
    for n in range(n_max + 1):
        coeffs = [0] * (n + 1)
        falling = 1  # n!/i!
        for i in range(n, -1, -1):
            coeffs[i] = falling * nums[n - i]
            falling *= i
        polys.append(_make(coeffs, den))
    return polys


def numbers_from_kernel(kernel: TruncatedSeries, n_max: int) -> list:
    """Numbers n! [t^n] kernel for n = 0..n_max."""
    if n_max > kernel.order:
        raise ValueError("kernel truncation order is too small")
    return [factorial(n) * kernel.coefficient(n) for n in range(n_max + 1)]


#: The kernel builder of each polynomial family, by the family's name.  A
#: builder takes the family's parameters and then the truncation order.
KERNELS = {
    "bernoulli": bernoulli_kernel,
    "euler": euler_kernel,
    "frobenius-euler": frobenius_euler_kernel,
    "poly-bernoulli": poly_bernoulli_kernel,
    "mixed-T": mixed_kernel,
}


def family_polys(family: str, n_max: int, *params) -> list:
    """Members of degrees 0..n_max of the named family at the given
    parameters, e.g. ``family_polys("mixed-T", n, r, k, lam)``."""
    _require_degree(n_max)
    return polys_from_kernel(KERNELS[family](*params, n_max), n_max)


def family_numbers(family: str, n_max: int, *params) -> list:
    """The family's numbers p_0(0)..p_{n_max}(0), e.g. the ordinary
    Bernoulli numbers as ``family_numbers("bernoulli", n, 1)``
    (B_1 = -1/2)."""
    _require_degree(n_max)
    return numbers_from_kernel(KERNELS[family](*params, n_max), n_max)
