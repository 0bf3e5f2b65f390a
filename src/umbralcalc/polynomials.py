"""Exact rational scalars and dense univariate polynomials in x.

Scalars are `fractions.Fraction` throughout the public interface, which
already maintains the canonical form this library relies on (positive
denominator, reduced to lowest terms, zero as 0/1).  A coefficient, an
evaluation point or a shift must be an exact rational: an inexact number
(a float, complex or Decimal) raises TypeError, here and in `series`.

A polynomial is stored fraction-free, in the layout of FLINT's
``fmpq_poly``: a tuple of integer numerators, lowest power first, over one
positive common denominator.  The form is canonical -- trailing zero
numerators trimmed, ``gcd(den, *num) == 1``, the zero polynomial stored as
``((), 1)`` with degree -1 -- so equality is plain structural comparison,
and every operation normalises its result with a single gcd instead of one
per coefficient.  `Fraction` values are made only where coefficients leave
the class as numbers (`coefficients`, `coefficient`, evaluation).  Text is
written straight from the integers: `_lowest` reduces one entry with one
gcd, and `_ratio_text` writes it as "p" or "p/q", the text of its
`Fraction`.  Values are immutable: every operation returns a new
polynomial, so instances can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from numbers import Rational
from operator import mul
from typing import Iterable, Union

Scalar = Union[int, Fraction]

_RATIONAL = (int, Fraction)

__all__ = [
    "Polynomial",
    "X",
    "falling_factorial",
    "rising_factorial",
    "parse_rational",
]


def parse_rational(text: str) -> Fraction:
    """Parse a rational written as "p/q" (or just "p")."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _exact(value) -> Scalar:
    """``value`` itself when it is an int or a `Fraction`, another exact
    rational as a `Fraction`; anything else, an inexact number (a float,
    complex or Decimal) included, raises TypeError.  This is the one
    exactness check of polynomials, series and the lambda and mu
    parameters (`families.require_not_one`)."""
    if isinstance(value, _RATIONAL):
        return value
    if isinstance(value, Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    raise TypeError(f"coefficients and scalars must be exact rationals, not {value!r}")


def _common_denominator(values) -> tuple:
    """(integer numerators, positive common denominator) of ints and
    Fractions."""
    ratios = [c.as_integer_ratio() for c in values]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _canonical_row(num: list, den: int) -> tuple:
    """The row of rationals num[i]/den as ``(numerators, denominator)``
    with a positive denominator and ``gcd(den, *numerators) == 1``; the
    numerators stay a list of the same length, a zero row is all zeros
    over 1.  The form is unique, so two rows are equal exactly when their
    canonical pairs are, and the denominator is the lcm of the entries'
    reduced denominators, as `_common_denominator` gives it.  The result
    may share ``num``."""
    if den < 0:
        num, den = [-c for c in num], -den
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return num, den


def _normalised(num: list, den: int) -> tuple:
    """(numerators, denominator) in canonical form, for numerators ``num``
    (consumed) over the positive denominator ``den``."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    # the reduction of `_canonical_row` for a positive den, inlined: this
    # runs on every polynomial operation
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return tuple(num), den


def _make(num: list, den: int) -> "Polynomial":
    """The canonical polynomial num/den; ``num`` is consumed."""
    poly = object.__new__(Polynomial)
    poly._num, poly._den = _normalised(num, den)
    return poly


def _sum(a, da: int, b, db: int) -> "Polynomial":
    """a/da + b/db for numerator sequences a, b."""
    if da != db:
        g = gcd(da, db)
        sa, sb = db // g, da // g
        a = [c * sa for c in a]
        b = [c * sb for c in b]
        da *= sa
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return _make(out, da)


def _convolve(a, b) -> list:
    """Coefficients of the product of two nonempty integer polynomials."""
    if len(a) < len(b):
        a, b = b, a
    lb = len(b)
    rb = b[::-1]
    # out[k] = sum_i a[i] b[k - i], with b reversed so both slices run forward
    out = [sum(map(mul, a[: k + 1], rb[lb - 1 - k:])) for k in range(lb - 1)]
    for k in range(lb - 1, len(a) + lb - 1):
        out.append(sum(map(mul, a[k - lb + 1: k + 1], rb)))
    return out


def _power(base, exponent: int, one):
    """base ** exponent for a nonnegative integer exponent, by repeated
    squaring from the unit ``one``."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def _lowest(c: int, den: int) -> tuple:
    """c/den in lowest terms as (numerator, denominator), for a positive
    ``den``; zero is (0, 1)."""
    if den == 1:
        return c, 1
    g = gcd(c, den)
    return c // g, den // g


def _ratio_text(p: int, q: int) -> str:
    """The rational p/q, in lowest terms with q positive (as `_lowest`
    gives it), written as `str` writes its `Fraction`: "p", or "p/q"."""
    return str(p) if q == 1 else f"{p}/{q}"


def _render(p: "Polynomial", number, power, joiner: str) -> str:
    """The nonzero terms of p in descending powers, "-" or "+" between
    them: a coefficient's magnitude, in lowest terms as `_lowest` gives
    it, written by ``number(numerator, denominator)``, x^k for k >= 2 by
    ``power(k)``, and ``joiner`` between a coefficient other than 1 and
    its power of x."""
    den = p._den
    text = ""
    for k in range(len(p._num) - 1, -1, -1):
        c = p._num[k]
        if not c:
            continue
        mag = _lowest(abs(c), den)
        if k == 0:
            body = number(*mag)
        else:
            var = "x" if k == 1 else power(k)
            body = var if mag == (1, 1) else f"{number(*mag)}{joiner}{var}"
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = "-" + body if c < 0 else body
    return text or "0"


class Polynomial:
    """Dense univariate polynomial over the rationals.

    Supports the full ring interface (+, -, *, **), exact scalar division,
    evaluation via call syntax, `shift` (composition with x + c), and the
    formal `derivative`.  Scalars (int, Fraction) mix freely on either side
    of the arithmetic operators; a constant polynomial compares equal to
    the scalar it represents.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self._num, self._den = _normalised(
            *_common_denominator([c if isinstance(c, _RATIONAL) else _exact(c) for c in coeffs])
        )

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        """Return coeff * x**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls([0] * power + [coeff])

    @property
    def coefficients(self) -> tuple:
        """Coefficients lowest power first, trailing zeros trimmed."""
        den = self._den
        return tuple([Fraction(c, den) for c in self._num])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x**power (zero beyond the degree)."""
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    def __call__(self, point: Scalar) -> Fraction:
        """Evaluate at an exact rational point (Horner over the integers:
        p(u/v) = (sum_i num_i u^i v^(deg-i)) / (v^deg den))."""
        point = _exact(point)
        num = self._num
        if not num:
            return Fraction(0)
        u, v = point.numerator, point.denominator
        acc = num[-1]
        scale = 1
        for c in num[-2::-1]:
            scale *= v
            acc = acc * u + c * scale
        return Fraction(acc, scale * self._den)

    def shift(self, offset: Scalar) -> "Polynomial":
        """Return p(x + offset), computed by binomial expansion scaled by
        v^deg for offset = u/v."""
        c = _exact(offset)
        num = self._num
        if not c or not num:
            return self
        u, v = c.numerator, c.denominator
        deg = len(num) - 1
        u_pow, v_pow = [1], [1]
        for _ in range(deg):
            u_pow.append(u_pow[-1] * u)
            v_pow.append(v_pow[-1] * v)
        out = [0] * (deg + 1)
        for i, a in enumerate(num):
            if not a:
                continue
            for j in range(i + 1):
                out[j] += a * comb(i, j) * u_pow[i - j] * v_pow[deg - i + j]
        return _make(out, self._den * v_pow[deg])

    def derivative(self) -> "Polynomial":
        """Formal derivative."""
        return _make([k * c for k, c in enumerate(self._num) if k], self._den)

    def __add__(self, other):
        if isinstance(other, Polynomial):
            return _sum(self._num, self._den, other._num, other._den)
        if isinstance(other, _RATIONAL):
            return _sum(self._num, self._den, (other.numerator,), other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        poly = object.__new__(Polynomial)
        poly._num = tuple([-c for c in self._num])
        poly._den = self._den
        return poly

    def __sub__(self, other):
        if isinstance(other, (Polynomial, int, Fraction)):
            return self + (-other if isinstance(other, Polynomial) else -Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self._num or not other._num:
                return Polynomial()
            return _make(_convolve(self._num, other._num), self._den * other._den)
        if isinstance(other, _RATIONAL):
            if not other:
                return Polynomial()
            p = other.numerator
            return _make([c * p for c in self._num], self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return _power(self, exponent, Polynomial([1]))

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._num == other._num and self._den == other._den
        if isinstance(other, _RATIONAL):
            num = self._num
            if not num:
                return other == 0
            return (
                len(num) == 1
                and num[0] == other.numerator
                and self._den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # constant polynomials hash like the scalar they equal
        if len(self._num) <= 1:
            return hash(Fraction(self._num[0], self._den) if self._num else 0)
        return hash((self._num, self._den))

    def __repr__(self):
        return f"Polynomial([{', '.join(str(c) for c in self.coefficients)}])"

    def __str__(self):
        return _render(self, _ratio_text, lambda k: f"x^{k}", "*")


#: The polynomial x.
X = Polynomial((0, 1))


def falling_factorial(n: int) -> Polynomial:
    """x(x-1)...(x-n+1); the constant 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = Polynomial([1])
    for i in range(n):
        result = result * Polynomial([-i, 1])
    return result


def rising_factorial(n: int) -> Polynomial:
    """x(x+1)...(x+n-1); the constant 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = Polynomial([1])
    for i in range(n):
        result = result * Polynomial([i, 1])
    return result
