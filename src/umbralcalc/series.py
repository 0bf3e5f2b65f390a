"""Truncated formal power series in t over an exact commutative ring.

Every series carries an explicit truncation order N and stores exactly the
coefficients of t^0 .. t^N.  Binary operations truncate the result to the
smaller of the two orders; nothing is ever extrapolated or extended
silently, because silent precision loss is the dominant bug class in
series code.

Coefficients are usually `Fraction`, but any exact ring type implementing
the arithmetic operators works; polynomial coefficients are the second
supported instantiation (used for series of the shape f(t) * e^{x t}).
Rational coefficients embed into the polynomial ring through the operator
protocol, so series over the two rings mix freely; combining genuinely
incompatible coefficient types raises TypeError from the coefficient
arithmetic itself.  An inexact number (a float, complex or Decimal) is no
exact ring element: given as a coefficient or a scalar operand it raises
TypeError.

Coefficients are stored as given, but the two quadratic loops,
multiplication and inversion, run fraction-free when every coefficient is
rational: they bring the coefficients to integer numerators over one
common denominator, work on integers, and take one gcd per output
coefficient.  Inversion keeps its partial results over one running
denominator and cancels, at every step, the factor the new term shares
with the constant term, instead of carrying the k-th power of the
constant term's numerator as the denominator of the t^k term.  Any
other coefficient type goes through the generic ring loop, so the loop is
chosen by the coefficient type alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from numbers import Number, Rational
from operator import mul
from typing import Iterable

from .polynomials import _RATIONAL, _common_denominator, _power

__all__ = ["TruncatedSeries", "exp_series"]


def _coerce(value):
    """An int as a `Fraction`; any other coefficient or scalar as given,
    except an inexact number (a float, complex or Decimal), which raises
    TypeError."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Number) and not isinstance(value, Rational):
        raise TypeError(f"series coefficients must be exact, not {value!r}")
    return value


def _over_common_denominator(coeffs) -> tuple | None:
    """(integer numerators, positive common denominator) of rational
    coefficients; None when some coefficient is not a rational."""
    for c in coeffs:
        if not isinstance(c, _RATIONAL):
            return None
    return _common_denominator(coeffs)


class TruncatedSeries:
    """A formal power series known through order N.

    ``coeffs`` is zero-padded or cut so that exactly N + 1 coefficients are
    stored.  Instances are immutable; all operations are pure.
    """

    __slots__ = ("_coeffs", "_order")

    def __init__(self, coeffs: Iterable = (), order: int | None = None):
        items = [_coerce(c) for c in coeffs]
        if order is None:
            if not items:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(items) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        del items[order + 1:]
        zero = Fraction(0)
        while len(items) < order + 1:
            items.append(zero)
        self._coeffs = tuple(items)
        self._order = order

    @classmethod
    def _make(cls, items: list, order: int) -> "TruncatedSeries":
        # internal fast path: items already have length order + 1
        series = cls.__new__(cls)
        series._coeffs = tuple(items)
        series._order = order
        return series

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls([value], order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series t."""
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls([0, 1], order)

    @property
    def order(self) -> int:
        """Truncation order N."""
        return self._order

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, k: int):
        if not 0 <= k <= self._order:
            raise ValueError(f"coefficient {k} is beyond truncation order {self._order}")
        return self._coeffs[k]

    def valuation(self) -> int | None:
        """Order o(f): smallest k with nonzero coefficient; None if all
        stored coefficients vanish."""
        for k, c in enumerate(self._coeffs):
            if c:
                return k
        return None

    @property
    def is_delta(self) -> bool:
        return self.valuation() == 1

    @property
    def is_invertible(self) -> bool:
        return self.valuation() == 0

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self._order:
            raise ValueError("cannot extend a series beyond its truncation order")
        if order == self._order:
            return self
        return TruncatedSeries._make(list(self._coeffs[: order + 1]), order)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self._order, other._order)
            a, b = self._coeffs, other._coeffs
            return TruncatedSeries._make([a[i] + b[i] for i in range(n + 1)], n)
        out = list(self._coeffs)
        out[0] = out[0] + _coerce(other)
        return TruncatedSeries._make(out, self._order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._make([-c for c in self._coeffs], self._order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -_coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            w = _coerce(other)
            return TruncatedSeries._make([c * w for c in self._coeffs], self._order)
        n = min(self._order, other._order)
        a, b = self._coeffs[: n + 1], other._coeffs[: n + 1]
        ints_a = _over_common_denominator(a)
        ints_b = ints_a and _over_common_denominator(b)
        if ints_b:
            (a, da), (b, db) = ints_a, ints_b
            den = da * db
            return TruncatedSeries._make(
                [Fraction(sum(map(mul, a[: i + 1], b[i::-1])), den) for i in range(n + 1)],
                n,
            )
        out = []
        for i in range(n + 1):
            acc = 0
            for j in range(i + 1):
                aj = a[j]
                if aj:
                    bij = b[i - j]
                    if bij:
                        acc = acc + aj * bij
            out.append(acc)
        return TruncatedSeries._make(out, n)

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self._coeffs[0]
        if not c0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        ints = _over_common_denominator(self._coeffs)
        if ints:
            # a = A/d with integer A: 1/a = (d/A_0) u, where u = 1/(A/A_0)
            # has u_0 = 1 and u_k = -sum_{j=1..k} A_j u_{k-j} / A_0.  The u_k
            # are kept as numerators U_k over one running denominator E; a
            # new u_k = s/(A_0 E) is reduced by g = gcd(s, A_0), so E gains
            # the factor A_0/g per step, not A_0
            a, d = ints
            a0 = a[0]
            nums = [1]
            den = 1
            for k in range(1, self._order + 1):
                s = -sum(map(mul, a[1: k + 1], reversed(nums)))
                g = gcd(s, a0)
                m = a0 // g
                if m < 0:
                    m, s = -m, -s
                if m != 1:
                    nums = [c * m for c in nums]
                    den *= m
                nums.append(s // g)
            scale = den * a0
            return TruncatedSeries._make([Fraction(d * c, scale) for c in nums], self._order)
        b0 = 1 / c0
        out = [b0]
        a = self._coeffs
        for k in range(1, self._order + 1):
            acc = 0
            for j in range(1, k + 1):
                aj = a[j]
                if aj:
                    acc = acc + aj * out[k - j]
            out.append(-(b0 * acc))
        return TruncatedSeries._make(out, self._order)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int):
            raise TypeError("series exponent must be an integer")
        base = self if exponent >= 0 else self.invert()
        return _power(base, abs(exponent), TruncatedSeries.constant(Fraction(1), self._order))

    def _is_identity(self) -> bool:
        return (
            self._order >= 1
            and self._coeffs[1] == 1
            and all(not c for i, c in enumerate(self._coeffs) if i != 1)
        )

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)); the inner series must have zero constant term."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("composition requires another series")
        if inner._coeffs[0]:
            raise ValueError("composition requires the inner series to have zero constant term")
        n = min(self._order, inner._order)
        if inner._is_identity():
            return self.truncate(n)
        inner_n = inner.truncate(n)
        acc = TruncatedSeries.constant(self._coeffs[n], n)
        for k in range(n - 1, -1, -1):
            acc = acc * inner_n
            ck = self._coeffs[k]
            if ck:
                acc = acc + ck
        return acc

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g(t)) = t up to order N.

        Requires a delta series with invertible linear coefficient; solved
        order by order.  The series t is its own inverse.
        """
        if self.valuation() != 1:
            raise ValueError("compositional inverse requires a delta series")
        if self._is_identity():
            return self
        b1 = 1 / self._coeffs[1]
        n = self._order
        out = [Fraction(0), b1] + [Fraction(0)] * (n - 1)
        for k in range(2, n + 1):
            partial = TruncatedSeries(out[: k + 1], k)
            residual = self.truncate(k).compose(partial).coefficient(k)
            out[k] = -(b1 * residual)
        return TruncatedSeries(out, n)

    def derivative(self) -> "TruncatedSeries":
        """Term-wise d/dt; the truncation order drops by one."""
        if self._order < 1:
            raise ValueError("cannot differentiate a series of order 0")
        return TruncatedSeries._make(
            [k * self._coeffs[k] for k in range(1, self._order + 1)], self._order - 1
        )

    def divide_by_t(self) -> "TruncatedSeries":
        """Shift coefficients down one power of t; requires zero constant
        term; the truncation order drops by one."""
        if self._coeffs[0]:
            raise ValueError("cannot divide by t: nonzero constant term")
        if self._order < 1:
            raise ValueError("cannot divide a series of order 0 by t")
        return TruncatedSeries._make(list(self._coeffs[1:]), self._order - 1)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self._order == other._order and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self._order, self._coeffs))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self._coeffs[:6])
        if self._order >= 6:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], order={self._order})"


def exp_series(scale, order: int) -> TruncatedSeries:
    """The exponential sum_{k<=N} scale^k t^k / k!.

    ``scale`` may be rational or a polynomial (giving the two-variable
    series e^{x t} when scale is the polynomial x).
    """
    coeffs = []
    acc = Fraction(1)
    for k in range(order + 1):
        coeffs.append(acc / factorial(k))
        if k < order:
            acc = acc * scale
    return TruncatedSeries(coeffs, order)
