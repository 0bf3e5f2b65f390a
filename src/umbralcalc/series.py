"""Truncated formal power series in t over the rationals.

Every series carries an explicit truncation order N and stores exactly the
coefficients of t^0 .. t^N.  Binary operations truncate the result to the
smaller of the two orders; nothing is ever extrapolated or extended
silently, because silent precision loss is the dominant bug class in
series code.

A series is stored like a `Polynomial`: a tuple of integer numerators over
one positive denominator, in canonical form (``gcd(den, *num) == 1``,
`polynomials._canonical_row`), so equality is structural comparison and a
`Fraction` is made only where a coefficient leaves the class
(`coefficient`, `coefficients`, ``repr``).  Each operation has one loop on
the stored numerators but `comp_inverse`, whose `Fraction` solve no verifier
or command runs: their sources are Appell.  An int or a `Fraction` is a
coefficient or a scalar operand; anything else, an inexact number (a float,
complex or Decimal) or a polynomial included, raises TypeError.

Inversion keeps its partial results over one running denominator and
cancels, at every step, the factor the new term shares with the constant
term, instead of carrying the k-th power of the constant term's numerator
as the denominator of the t^k term.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable

from .polynomials import _canonical_row, _exact, _power

__all__ = ["TruncatedSeries", "exp_series"]


def _split(value) -> tuple:
    """(numerator, denominator) of an exact rational coefficient or
    scalar; anything else raises TypeError (`polynomials._exact`)."""
    value = _exact(value)
    return value.numerator, value.denominator


class TruncatedSeries:
    """A formal power series known through order N.

    ``coeffs`` is zero-padded or cut so that exactly N + 1 coefficients are
    stored.  Instances are immutable; all operations are pure.
    """

    __slots__ = ("_num", "_den", "_order")

    def __init__(self, coeffs: Iterable = (), order: int | None = None):
        items = [_split(c) for c in coeffs]
        if order is None:
            if not items:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(items) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        del items[order + 1:]
        items += [(0, 1)] * (order + 1 - len(items))
        den = lcm(*[d for _, d in items])
        num, self._den = _canonical_row([c if d == den else c * (den // d) for c, d in items], den)
        self._num = tuple(num)
        self._order = order

    @classmethod
    def _make(cls, num: list, den: int, order: int) -> "TruncatedSeries":
        # internal fast path: num already has length order + 1
        series = cls.__new__(cls)
        num, series._den = _canonical_row(num, den)
        series._num = tuple(num)
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
        den = self._den
        return tuple([Fraction(c, den) for c in self._num])

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self._order:
            raise ValueError(f"coefficient {k} is beyond truncation order {self._order}")
        return Fraction(self._num[k], self._den)

    def valuation(self) -> int | None:
        """Order o(f): smallest k with nonzero coefficient; None if all
        stored coefficients vanish."""
        for k, c in enumerate(self._num):
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
        return TruncatedSeries._make(list(self._num[: order + 1]), self._den, order)

    def __add__(self, other):
        # a/da + b/db over lcm(da, db), for a series or a constant b
        if isinstance(other, TruncatedSeries):
            n = min(self._order, other._order)
            b, db = other._num[: n + 1], other._den
        else:
            n = self._order
            w, db = _split(other)
            b = (w,)
        a, da = self._num[: n + 1], self._den
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            da *= sa
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TruncatedSeries._make(out, da, n)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._make([-c for c in self._num], self._den, self._order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self._num
        if not isinstance(other, TruncatedSeries):
            w, d = _split(other)
            return TruncatedSeries._make([c * w for c in a], self._den * d, self._order)
        n = min(self._order, other._order)
        b = other._num
        return TruncatedSeries._make(
            [sum(map(mul, a[: i + 1], b[i::-1])) for i in range(n + 1)],
            self._den * other._den,
            n,
        )

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        # a = A/d with integer A: 1/a = (d/A_0) u, where u = 1/(A/A_0) has
        # u_0 = 1 and u_k = -sum_{j=1..k} A_j u_{k-j} / A_0.  The u_k are
        # kept as numerators U_k over one running denominator E; a new
        # u_k = s/(A_0 E) is reduced by g = gcd(s, A_0), so E gains the
        # factor A_0/g per step, not A_0
        a = self._num
        a0 = a[0]
        if not a0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
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
        d = self._den
        return TruncatedSeries._make([d * c for c in nums], den * a0, self._order)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int):
            raise TypeError("series exponent must be an integer")
        base = self if exponent >= 0 else self.invert()
        return _power(base, abs(exponent), TruncatedSeries.constant(Fraction(1), self._order))

    def _is_identity(self) -> bool:
        num = self._num
        return (
            self._order >= 1
            and self._den == 1
            and num[1] == 1
            and all(not c for i, c in enumerate(num) if i != 1)
        )

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)); the inner series must have zero constant term."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("composition requires another series")
        if inner._num[0]:
            raise ValueError("composition requires the inner series to have zero constant term")
        n = min(self._order, inner._order)
        if inner._is_identity():
            return self.truncate(n)
        inner_n = inner.truncate(n)
        # Horner on the numerators A_k of self = A/d, with 1/d applied once
        num = self._num
        acc = TruncatedSeries.constant(num[n], n)
        for k in range(n - 1, -1, -1):
            acc = acc * inner_n
            if num[k]:
                acc = acc + num[k]
        return TruncatedSeries._make(list(acc._num), acc._den * self._den, n)

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g(t)) = t up to order N.

        Requires a delta series with invertible linear coefficient; solved
        order by order.  The series t is its own inverse.
        """
        if self.valuation() != 1:
            raise ValueError("compositional inverse requires a delta series")
        if self._is_identity():
            return self
        b1 = 1 / self.coefficient(1)
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
            [k * c for k, c in enumerate(self._num) if k], self._den, self._order - 1
        )

    def divide_by_t(self) -> "TruncatedSeries":
        """Shift coefficients down one power of t; requires zero constant
        term; the truncation order drops by one."""
        if self._num[0]:
            raise ValueError("cannot divide by t: nonzero constant term")
        if self._order < 1:
            raise ValueError("cannot divide a series of order 0 by t")
        return TruncatedSeries._make(list(self._num[1:]), self._den, self._order - 1)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (self._order, self._den, self._num) == (other._order, other._den, other._num)
        return NotImplemented

    def __hash__(self):
        return hash((self._order, self._num, self._den))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coefficients[:6])
        if self._order >= 6:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], order={self._order})"


def exp_series(scale, order: int) -> TruncatedSeries:
    """The exponential sum_{k<=N} scale^k t^k / k! of a rational scale.

    For scale = w/d the t^k coefficient is w^k d^(N-k) (N!/k!) over the
    one denominator d^N N!.
    """
    w, d = _split(scale)
    num, power, ratio = [], 1, factorial(order)
    for k in range(order + 1):
        num.append(power * (ratio * d ** (order - k)))
        if k < order:
            power, ratio = power * w, ratio // (k + 1)
    return TruncatedSeries._make(num, d**order * factorial(order), order)
