"""The umbral pairing, operator action, Sheffer sequences, and connection
constants.

A truncated series f(t) = sum a_k t^k doubles as a linear functional on
polynomials through <t^k | x^n> = n! delta_{n,k}; there is no separate
functional object, so the pairing is plain coefficient contraction.
Acting with f(t) as an operator sends p(x) to sum a_k p^(k)(x).

The two routes to connection constants run on integer numerators over
one common denominator.  The pairing route, `connection_rows` (one
source, many targets), reads the stored integer numerators of the
prefactor and l(fbar) and builds each power by integer convolution, or
by a plain shift when l(fbar) is the series t (Appell targets).  The
solve route inverts a triangular basis once, `monomial_expansion`, so
that expressing any polynomial in it is one integer row-times-matrix
product, `solve_rows`.  Both give each row as a canonical
``(numerators, denominator)`` pair: the ``bases`` verifier compares rows
as pairs, and the command line writes each constant of the pairing
route's rows as text straight from its integers.  `sheffer_polynomials`
reads the pairing route too: by Roman's coefficient formula, the rows
into the monomial pair (1, t) are the coefficients of the Sheffer
polynomials.
Only the row representation is shared: the pairing route reads only
the two Sheffer pairs and the solve route only the integer numerators of
the polynomials and the basis.  Neither calls the other or any
closed-form summation, so each stays an independent check of the others
in the ``bases`` verifier.

A sweep's outcome is a `VerificationReport`: the identity, its grid, the
number of comparisons and the counterexamples found, and nothing else;
its status is read from the counterexamples, and callers that want
timings take them with their own clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, perm
from operator import mul

from .polynomials import Polynomial, _canonical_row, _make
from .series import TruncatedSeries

__all__ = [
    "VerificationReport",
    "ShefferPair",
    "pairing",
    "apply_operator",
    "sheffer_polynomials",
    "connection_rows",
    "monomial_expansion",
    "solve_rows",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an exact identity sweep: what was checked and what failed.

    ``counterexamples`` holds the recorded failures, each a parameter
    tuple together with both computed sides: at most one in fail-fast
    mode, every failure in collect-all mode.  ``passed``, ``status`` and
    ``counterexample`` (the first failure) are read from it.  A report
    holds no timing, so equal sweeps give equal reports and `to_jsonable`
    is byte-deterministic.
    """

    identity: str
    grid: dict
    checked: int = 0
    counterexamples: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def counterexample(self) -> dict | None:
        return self.counterexamples[0] if self.counterexamples else None

    def to_jsonable(self) -> dict:
        out = {
            "id": self.identity,
            "grid": self.grid,
            "status": self.status,
        }
        if self.counterexamples:
            out["counterexample"] = self.counterexample
        if len(self.counterexamples) > 1:
            out["counterexamples"] = list(self.counterexamples)
        out["checked"] = self.checked
        return out


def pairing(functional: TruncatedSeries, p: Polynomial) -> Fraction:
    """<f(t) | p(x)> = sum_k a_k k! [x^k] p."""
    if functional.order < p.degree:
        raise ValueError(
            f"functional truncated at order {functional.order} cannot pair "
            f"with a degree-{p.degree} polynomial"
        )
    acc = Fraction(0)
    for k, c in enumerate(p.coefficients):
        if c:
            a = functional.coefficient(k)
            if a:
                acc += a * factorial(k) * c
    return acc


def apply_operator(op: TruncatedSeries, p: Polynomial) -> Polynomial:
    """f(t) acting on p(x): sum_k a_k p^(k)(x)."""
    if op.order < p.degree:
        raise ValueError(
            f"operator truncated at order {op.order} cannot act on a "
            f"degree-{p.degree} polynomial"
        )
    acc = Polynomial()
    d = p
    for k in range(p.degree + 1):
        a = op.coefficient(k)
        if a:
            acc = acc + a * d
        d = d.derivative()
    return acc


@dataclass(frozen=True)
class ShefferPair:
    """The pair (g, f) with o(g) = 0 and o(f) = 1 defining a Sheffer
    sequence."""

    g: TruncatedSeries
    f: TruncatedSeries

    def __post_init__(self):
        if not self.g.is_invertible:
            raise ValueError("g must be an invertible series (nonzero constant term)")
        if not self.f.is_delta:
            raise ValueError("f must be a delta series (valuation exactly 1)")

    @property
    def order(self) -> int:
        return min(self.g.order, self.f.order)


def sheffer_polynomials(pair: ShefferPair, n_max: int) -> list:
    """S_0..S_{n_max} for the pair (g, f), by Roman's coefficient formula
    S_n(x) = sum_m (n!/m!) [t^n] g(fbar)^{-1} fbar^m x^m: the canonical
    rows of `connection_rows` from (g, f) into the monomial pair (1, t),
    each read as the coefficients of one polynomial."""
    if pair.order < n_max + 1:
        raise ValueError("pair truncation order must be at least n_max + 1")
    monomials = ShefferPair(
        TruncatedSeries.constant(1, n_max + 1), TruncatedSeries.identity(n_max + 1)
    )
    (rows,) = connection_rows(pair, [monomials], n_max)
    return [_make(num, den) for num, den in rows]


def connection_rows(source: ShefferPair, targets, n_max: int) -> list:
    """Lower-triangular constants C[n][m] expressing the source Sheffer
    sequence in each of ``targets``, S_n(x) = sum_m C[n][m] r_m(x): per
    target, the rows C[0..n_max] as canonical ``(numerators,
    denominator)`` pairs (`polynomials._canonical_row`).

    Computed from C_{n,m} = (n!/m!) [t^n] (h(fbar)/g(fbar)) l(fbar)^m,
    where (g, f) is the source pair, (h, l) a target, and fbar the
    compositional inverse of f; fbar and 1/g(fbar) are computed once for
    all targets.  Column m, the power (h(fbar)/g(fbar)) l(fbar)^m, is
    integer numerators over one denominator: the previous column shifted
    when l(fbar) is the series t (Appell targets), else convolved with
    l(fbar)'s numerators and reduced.  Row n is built over the lcm of the
    denominators of columns 0..n.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if source.order < n_max or any(target.order < n_max for target in targets):
        raise ValueError("pair truncation orders must be at least n_max")
    fbar = source.f.comp_inverse()
    inverse = source.g.compose(fbar).invert()
    size = n_max + 1
    out = []
    for target in targets:
        prefactor = target.g.compose(fbar) * inverse
        ell = target.f.compose(fbar)
        power, den = list(prefactor._num[:size]), prefactor._den
        is_shift = ell._is_identity()
        ell_num, ell_den = ell._num, ell._den
        columns = [(power, den)]
        for m in range(n_max):
            if is_shift:
                power = [0] + power[:-1]
            else:
                # power has valuation >= m and ell valuation 1, so the product's
                # t^i coefficient for m < i is sum_{m <= j < i} power_j ell_{i-j}
                power, den = _canonical_row([0] * (m + 1) + [
                    sum(map(mul, power[m:i], ell_num[i - m:0:-1]))
                    for i in range(m + 1, size)
                ], den * ell_den)
            columns.append((power, den))
        rows = []
        top = 1
        for n in range(size):
            top = lcm(top, columns[n][1])
            rows.append(_canonical_row(
                [perm(n, n - m) * power[n] * (top // den)
                 for m, (power, den) in enumerate(columns[: n + 1])],
                top,
            ))
        out.append(rows)
    return out


def monomial_expansion(basis) -> tuple:
    """The monomials in a triangular basis, as ``(columns, den)``: integer
    columns over one positive denominator with
    x^i = sum_{m <= i} (columns[m][i - m] / den) basis[m].

    Requires deg basis[m] = m.  Solved by forward substitution on the
    basis' integer numerators: with basis[i] = sum_j (b_j / d) x^j,
    x^i = (d basis[i] - sum_{j < i} b_j x^j) / b_i.
    """
    for m, b in enumerate(basis):
        if b.degree != m:
            raise ValueError(f"basis element {m} must have degree {m}")
    rows = []  # x^i as (integer numerators over basis[0..i], denominator)
    for i, b in enumerate(basis):
        nums, d = b._num, b._den
        den = lcm(*[rows[j][1] for j in range(i) if nums[j]])
        acc = [0] * i + [d * den]
        for j in range(i):
            if nums[j]:
                q, e = rows[j]
                scale = nums[j] * (den // e)
                for m, v in enumerate(q):
                    acc[m] -= scale * v
        rows.append(_canonical_row(acc, den * nums[i]))
    den = lcm(*[e for _, e in rows])
    columns = [
        [q[m] * (den // e) for q, e in rows[m:]] for m in range(len(rows))
    ]
    return columns, den


def solve_rows(polys, expansion) -> list:
    """Coefficients C[n][m] with polys[n] = sum_m C[n][m] basis[m], for
    ``expansion`` = `monomial_expansion(basis)`: one integer
    row-times-matrix product per polynomial, each row a canonical
    ``(numerators, denominator)`` pair (`polynomials._canonical_row`).  A
    polynomial of degree d gets d + 1 constants (the zero polynomial
    one)."""
    columns, den = expansion
    rows = []
    for p in polys:
        nums = p._num
        if len(nums) > len(columns):
            raise ValueError(
                f"a degree-{p.degree} polynomial is not expressible in a basis "
                f"of degrees < {len(columns)}"
            )
        row = [sum(map(mul, nums[m:], col)) for m, col in enumerate(columns[: len(nums)])]
        rows.append(_canonical_row(row or [0], p._den * den))
    return rows
