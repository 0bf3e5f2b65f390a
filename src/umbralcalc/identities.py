"""Exact verifiers for the mixed-family identities.

Each verifier sweeps a parameter grid and compares two (or three) values
of an identity that are computed through disjoint code paths: the
generating-function expansion on one side and closed-form summation,
umbral pairing, or an exact triangular linear solve on the other.  All
comparisons are exact rational equality; there is no tolerance anywhere.

The closed-form summation sides run fraction-free: the connection
constants and the basis reconstruction of ``bases``, thm1-2's triple-sum
and coefficient forms, the Bernoulli-weighted sums of thm3 and thm4,
thm5's Stirling-weighted sum, foundations' two convolutions and its
binomial expansion, and thm6's alternating sums.  Their rational inputs
are brought once per task to integer numerators over one common
denominator (a list of polynomials to integer coefficient rows,
``_polynomial_rows``), each output value is an integer sum divided once,
and a polynomial sum is one integer combination of rows (``_combine``)
made into a polynomial once (``_make``).  Sums that depend on no degree
run once per task (thm1-2's Stirling weights, thm5's weights), and a
degree pays only for the terms that read it.  ``bases`` has one routine
per closed form of the paper: Bernoulli, Frobenius-Euler (Euler is its
mu = -1) and the signed Stirling sum of falling and rising; a target
instance's weights are built with the instance, and a task sums each
instance once for all its degrees.  The remaining terms of the
recurrences, such as (x - r) T_n, stay `Polynomial` operations.

A row of connection constants never becomes `Fraction` values: all three
sides of ``bases`` give it as a canonical ``(numerators, denominator)``
pair (`polynomials._canonical_row`), so rows compare as pairs, and a
counterexample's text writes each entry from its integers
(`polynomials._ratio_text`).  Only the scalar and row
representations are shared with the `Polynomial` core; each side keeps
its own formula and never calls the kernel expansion, pairing or
triangular solve of the side it is compared with, so a comparison still
checks two computations.  Foundations' alternating-shift and partition-sum
actions on x^n are thm1-2's two forms at order r = 0, whose Frobenius-Euler
numbers are 1, 0, 0, ...: one generator, ``_closed_forms``, yields both
for either sequence of numbers, and reads no generating function.

A verifier's task is a generator run once per (r, k, lambda) grid point.
It computes both sides of each comparison with its own code and yields
them, one comparison at a time, as ``(n, check, lhs, rhs, extra)``:
the degree, the name of the check, the two sides (polynomials, numbers or
rows of connection constants) and a dict of further parameters to report,
such as the target basis.  The task neither compares nor counts.  One
runner, ``_run_checks``, counts every comparison, tests ``lhs != rhs``,
records the counterexamples and stops pulling from the task at the first
failure unless collect-all mode is set, so a fail-fast sweep computes no
side after its first counterexample.

Grids are traversed in a fixed documented order (r, then k, then lambda,
then the extra axes, then the degree n), so the first counterexample of a
failing sweep is deterministic.  Grid points are independent pure
computations, so a run is one stream of tasks: `verify_all` plans every
verifier up front, and a verifier called on its own is a run of one plan.
With ``jobs > 1`` the run opens one pool of ``min(jobs, usable CPUs, grid
points)`` workers and submits every verifier's tasks at once, in registry
order and in chunks of consecutive tasks, about four per worker and
verifier, so later verifiers keep the workers busy while an earlier one
finishes.  `verify_all` still gets each report by calling the verifier's
`VERIFIERS` function, which joins its chunks in traversal order, so
reports equal the serial run's, and a wrapped or replaced entry is what
the run calls.  The workers keep their kernel caches for the whole run.
Data that every point of a sweep reads (the target instances of ``bases``)
is memoised per process: each process builds it once from the grid, which
is all a task carries.  A fail-fast verifier cancels its own chunks not yet
started once a counterexample arrives and leaves the others running.

Each sweep gives one `VerificationReport` built from the runner's counts
and counterexamples alone.  No sweep reads a clock, so serial and
parallel runs give equal reports; a caller that wants timings measures
them around the call, as ``scripts/run_full_verification.py`` does
between the reports that `verify_all` yields.
"""

from __future__ import annotations

import os
import threading
from collections import namedtuple
from collections.abc import Callable
from contextlib import closing
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, lcm
from operator import mul

from .families import (
    bernoulli_kernel,
    euler_kernel,
    exp_minus_one,
    family_numbers,
    family_polys,
    frobenius_euler_kernel,
    mixed_kernel,
    numbers_from_kernel,
    one_minus_exp_neg,
    poly_bernoulli_kernel,
    polylog_series,
    polys_from_kernel,
    require_not_one,
    stirling2_triangle,
)
from .polynomials import (
    Polynomial,
    X,
    _canonical_row,
    _common_denominator,
    _lowest,
    _make,
    _ratio_text,
    falling_factorial,
    rising_factorial,
)
from .series import TruncatedSeries
from .umbral import (
    ShefferPair,
    VerificationReport,
    apply_operator,
    connection_rows,
    monomial_expansion,
    pairing,
    sheffer_polynomials,
    solve_rows,
)

__all__ = [
    "SweepGrid",
    "DEFAULT_GRID",
    "VERIFIERS",
    "SPECS",
    "TARGETS",
    "appell_pair",
    "verify_all",
    "usable_cpus",
]


@dataclass(frozen=True)
class SweepGrid:
    """Parameter grid for identity sweeps.

    A sweep checks a finite sample of parameter points, so a passing
    report is evidence, not a certificate.  Agreement at deg + 1 distinct
    points would certify an identity that is polynomial of known degree in
    a parameter, but the default grid does not reach that bound: with
    u = 1/(1 - lambda), T_12 at (r = 3, k = -3) has u-degree 12, and five
    lambda points certify only u-degree <= 4.
    """

    n_min: int = 0
    n_max: int = 12
    r_values: tuple = (-2, -1, 0, 1, 2, 3)
    k_values: tuple = (-3, -2, -1, 0, 1, 2, 3)
    s_values: tuple = (0, 1, 2, 3, 4)
    lambda_values: tuple = (
        Fraction(-1),
        Fraction(2),
        Fraction(1, 2),
        Fraction(-3, 5),
        Fraction(7),
    )
    mu_values: tuple = (Fraction(-1), Fraction(3), Fraction(2, 3))

    def __post_init__(self):
        if self.n_min < 0:
            raise ValueError("n_min must be nonnegative")
        if self.n_max < self.n_min:
            raise ValueError("n_max must be at least n_min")
        for name in ("r_values", "k_values", "s_values"):
            for v in getattr(self, name):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"{name} must hold integers, not {v!r}")
        if any(s < 0 for s in self.s_values):
            raise ValueError("s values must be nonnegative")
        # tuples, so that a grid built from lists hashes like one from tuples
        for name in ("r_values", "k_values", "s_values"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(
            self,
            "lambda_values",
            tuple(require_not_one(v, "lambda") for v in self.lambda_values),
        )
        object.__setattr__(
            self, "mu_values", tuple(require_not_one(v, "mu") for v in self.mu_values)
        )
        for name in ("r_values", "k_values", "s_values", "lambda_values", "mu_values"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            # a repeated value would check each of its points twice
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} must hold distinct values; {repeated[0]} repeats")

    def degrees(self) -> tuple:
        return tuple(range(self.n_min, self.n_max + 1))


DEFAULT_GRID = SweepGrid()


def _axes(grid: SweepGrid, with_s_mu=False) -> dict:
    out = {
        "n_min": grid.n_min,
        "n_max": grid.n_max,
        "r": list(grid.r_values),
        "k": list(grid.k_values),
        "lambda": [str(v) for v in grid.lambda_values],
    }
    if with_s_mu:
        out["s"] = list(grid.s_values)
        out["mu"] = [str(v) for v in grid.mu_values]
    return out


def _side_text(side) -> str:
    if isinstance(side, tuple):
        # a row of connection constants as (numerators, denominator)
        nums, den = side
        return "[" + ", ".join(_ratio_text(*_lowest(c, den)) for c in nums) + "]"
    return str(side)


def _run_checks(checks, collect_all, tasks):
    """Worker of one chunk: run the grid points of ``tasks`` in order,
    pull the comparisons of each ``checks(*task)`` one at a time and
    return ``(checked, failures)``; unless ``collect_all``, stop at the
    first failure.  A failure lists r, k, lambda, n, the extra parameters,
    the check and both sides."""
    checked = 0
    failures = []
    for task in tasks:
        r, k, lam = task[:3]
        for n, check, lhs, rhs, extra in checks(*task):
            checked += 1
            if lhs != rhs:
                failures.append(
                    {"r": r, "k": k, "lambda": str(lam), "n": n, **extra,
                     "check": check, "lhs": _side_text(lhs), "rhs": _side_text(rhs)}
                )
                if not collect_all:
                    return checked, failures
    return checked, failures


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Stream:
    """One run's tasks, as plans ``(identity, grid description, tasks,
    checks)``.  With one worker, ``report(identity)`` runs that plan's
    tasks here, lazily, as one chunk.  Otherwise a pool of ``min(jobs,
    usable CPUs, points)`` workers takes every plan at once, in chunks of
    ceil(points / (4 * workers)) consecutive tasks; a report joins its
    chunks in order and cancels those not started, which only a fail-fast
    failure leaves.  `close` shuts the pool, cancelling what has not
    started."""

    def __init__(self, plans, collect_all, jobs):
        self.plans = {plan[0]: plan for plan in plans}
        self.collect_all, self.pool, self.chunks = collect_all, None, {}
        workers = min(jobs, usable_cpus(), max((len(plan[2]) for plan in plans), default=0))
        if workers <= 1:
            return
        from concurrent.futures import ProcessPoolExecutor

        self.pool = ProcessPoolExecutor(max_workers=workers)
        try:
            for identity, _, tasks, checks in plans:
                size = -(-len(tasks) // (4 * workers))
                worker = partial(_run_checks, checks, collect_all)
                self.chunks[identity] = [
                    self.pool.submit(worker, tasks[i:i + size])
                    for i in range(0, len(tasks), size)
                ]
        except BaseException:
            self.close()
            raise

    def report(self, identity) -> VerificationReport:
        _, grid_desc, tasks, checks = self.plans[identity]
        if self.pool is None:
            checked, failures = _run_checks(checks, self.collect_all, tasks)
        else:
            checked, failures = 0, []
            for chunk in self.chunks[identity]:
                chunk_checked, chunk_failures = chunk.result()
                checked += chunk_checked
                failures.extend(chunk_failures)
                if failures and not self.collect_all:
                    break
            for chunk in self.chunks[identity]:
                chunk.cancel()
        return VerificationReport(identity, grid_desc, checked, tuple(failures))

    def close(self):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)


#: ``due``: while `verify_all` calls a verifier, its stream and the
#: identity, grid and mode it planned the verifier with; a verifier called
#: with other arguments runs a stream of its own.
_RUN = threading.local()


def _shifted_power_table(n_top: int) -> list:
    """table[j][l] = the integer coefficients of (x - j)^l, lowest power
    first, for 0 <= j, l <= n_top."""
    return [
        [[comb(l, i) * (-j) ** (l - i) for i in range(l + 1)] for l in range(n_top + 1)]
        for j in range(n_top + 1)
    ]


def _combine(weights, rows, length: int) -> list:
    """sum_i weights[i] * rows[i] for integer weights and integer
    coefficient rows of at most ``length`` entries."""
    out = [0] * length
    for w, row in zip(weights, rows):
        if w:
            for i, c in enumerate(row):
                out[i] += w * c
    return out


def _closed_forms(h, k, ns, checks):
    """Yield, per degree n of ``ns``, ``(n, checks[0], triple_sum)`` and
    then ``(n, checks[1], coefficient_form)``: the two closed forms of
    sum_l C(n, l) h_{n-l} B_l^(k)(x) (Theorems 1 and 2), for the numbers h
    given as ``(integer numerators, den)`` through max(ns).  With h the
    Frobenius-Euler numbers of order r this is T_n^(r,k); with
    h = (1, 0, ..., 0), those of order 0, it is B_n^(k), and the two forms
    are the alternating-shift and partition-sum actions on x^n.

    Both forms sum on integers, and each degree's form is made as one
    polynomial from its integer coefficients.  The triple-sum form weights
    the shifted row sum_l C(n, l) h_{n-l} (x - j)^l by (-1)^j
    sum_{m=j..n} (m + 1)^(-k) C(m, j), the m and j sums swapped; it reads
    the shifted powers and no Stirling number.  The coefficient form reads
    the weights W_d = sum_m (-1)^(d-m) m! (m + 1)^(-k) S2(d, m) and the
    products C(j, l) h_{j-l}, which depend on no degree and are computed
    once per call, and no shifted power."""
    h_ints, h_den = h
    n_top = max(ns)
    s2 = stirling2_triangle(n_top)
    inv_weights = [Fraction(m + 1) ** (-k) for m in range(n_top + 1)]
    inv_ints, inv_den = _common_denominator(inv_weights)
    fact_ints, fact_den = _common_denominator(
        [factorial(m) * w for m, w in enumerate(inv_weights)]
    )
    partition_weights = [
        sum((-1) ** (d - m) * fact_ints[m] * s2[d][m] for m in range(d + 1))
        for d in range(n_top + 1)
    ]
    # binomial_h[l][j - l] = C(j, l) h_{j-l}
    binomial_h = [
        [comb(j, l) * h_ints[j - l] for j in range(l, n_top + 1)] for l in range(n_top + 1)
    ]
    powers = _shifted_power_table(n_top)
    for n in ns:
        h_weights = [comb(n, l) * h_ints[n - l] for l in range(n + 1)]
        shifted = [_combine(h_weights, powers[j], n + 1) for j in range(n + 1)]
        shift_weights = [
            (-1) ** j * sum(inv_ints[m] * comb(m, j) for m in range(j, n + 1))
            for j in range(n + 1)
        ]
        yield n, checks[0], _make(_combine(shift_weights, shifted, n + 1), h_den * inv_den)
        # coefficient l: sum_{j>=l} C(j, l) h_{j-l} C(n, j) W_{n-j}
        outer = [comb(n, j) * partition_weights[n - j] for j in range(n + 1)]
        coeffs = [sum(map(mul, binomial_h[l], outer[l:])) for l in range(n + 1)]
        yield n, checks[1], _make(coeffs, h_den * fact_den)


# ---------------------------------------------------------------------------
# closed forms (id "thm1-2")

def _closed_forms_task(r, k, lam, ns):
    t_polys = family_polys("mixed-T", max(ns), r, k, lam)
    h = _common_denominator(family_numbers("frobenius-euler", max(ns), r, lam))
    for n, check, form in _closed_forms(h, k, ns, ("triple-sum form", "coefficient form")):
        yield n, check, form, t_polys[n], {}


# ---------------------------------------------------------------------------
# step recurrence (id "thm3")

def _step_recurrence_task(r, k, lam, ns):
    n_top = max(ns)
    t_rk = family_polys("mixed-T", n_top + 1, r, k, lam)
    t_up = family_polys("mixed-T", n_top, r + 1, k, lam)
    t_dn = family_polys("mixed-T", n_top + 1, r, k - 1, lam)
    bern_ints, bern_den = _common_denominator(family_numbers("bernoulli", n_top + 1, 1))
    diff_rows, diff_den = _polynomial_rows([a - b for a, b in zip(t_rk, t_dn)])
    coef = Fraction(r) * lam / (1 - lam)
    for n in ns:
        rhs = (X - r) * t_rk[n] - coef * t_up[n]
        # sum_l C(n + 1, l) B_l (T_{n+1-l} - T^(r,k-1)_{n+1-l}) / (n + 1)
        weights = [comb(n + 1, l) * bern_ints[l] for l in range(n + 2)]
        correction = _combine(weights, diff_rows[n + 1::-1], n + 2)
        rhs = rhs - _make(correction, (n + 1) * bern_den * diff_den)
        yield n, "step recurrence", rhs, t_rk[n + 1], {}


# ---------------------------------------------------------------------------
# derived recurrence (id "thm4", degrees n >= 2)

def _derived_recurrence_task(r, k, lam, ns):
    n_top = max(ns)
    t_rk = family_polys("mixed-T", n_top, r, k, lam)
    t_up = family_polys("mixed-T", n_top - 1, r + 1, k, lam)
    t_dn = family_polys("mixed-T", n_top, r, k - 1, lam)
    bern_ints, bern_den = _common_denominator(family_numbers("bernoulli", n_top, 1))
    rk_rows, rk_den = _polynomial_rows(t_rk)
    dn_rows, dn_den = _polynomial_rows(t_dn)
    for n in ns:
        # sum_l C(n, l) B_{n-l} T_l, for l <= n - 2 on the left, l <= n on the right
        weights = [comb(n, l) * bern_ints[n - l] for l in range(n + 1)]
        lhs = (n + 1) * t_rk[n] + n * ((Fraction(r) - Fraction(1, 2)) - X) * t_rk[n - 1]
        lhs = lhs + _make(_combine(weights[:n - 1], rk_rows, n - 1), bern_den * rk_den)
        rhs = -(Fraction(r) * lam * n / (1 - lam)) * t_up[n - 1]
        rhs = rhs + _make(_combine(weights, dn_rows, n + 1), bern_den * dn_den)
        yield n, "derived recurrence", lhs, rhs, {}


# ---------------------------------------------------------------------------
# derivative expansion (id "thm5", degrees n >= 1)

def _derivative_expansion_task(r, k, lam, ns):
    n_top = max(ns)
    t_rk = family_polys("mixed-T", n_top, r, k, lam)
    t_up = family_polys("mixed-T", n_top - 1, r + 1, k, lam)
    h_rows, h_den = _polynomial_rows(
        [h.shift(-1) for h in family_polys("frobenius-euler", n_top - 1, r, lam)]
    )
    s2 = stirling2_triangle(n_top - 1)
    fact_ints, fact_den = _common_denominator(
        [factorial(m + 1) * Fraction(m + 2) ** (-k) for m in range(n_top)]
    )
    # (-1)^d sum_m (-1)^m (m + 1)! (m + 2)^(-k) S2(d, m), over fact_den
    weights = [
        (-1) ** d * sum((-1) ** m * fact_ints[m] * s2[d][m] for m in range(d + 1))
        for d in range(n_top)
    ]
    coef = Fraction(r) * lam / (1 - lam)
    for n in ns:
        rhs = (X - r) * t_rk[n - 1] - coef * t_up[n - 1]
        # sum_l C(n - 1, l) weights[n - 1 - l] H_l(x - 1)
        terms = [comb(n - 1, l) * w for l, w in enumerate(weights[n - 1::-1])]
        rhs = rhs + _make(_combine(terms, h_rows, n), fact_den * h_den)
        yield n, "derivative expansion", rhs, t_rk[n], {}


# ---------------------------------------------------------------------------
# alternating binomial sum (id "thm6")

def _alternating_sum_task(r, k, lam, ns):
    n_top = max(ns)
    t_nums = family_numbers("mixed-T", n_top, r, k, lam)
    pb_nums = family_numbers("poly-bernoulli", n_top, k - 1)
    h_nums = family_numbers("frobenius-euler", n_top, r, lam)
    order = n_top + 1
    functional = frobenius_euler_kernel(r, lam, order) * polylog_series(k, order)
    t_ints, t_den = _common_denominator(t_nums)
    pb_ints, pb_den = _common_denominator(pb_nums)
    h_ints, h_den = _common_denominator(h_nums)
    for n in ns:
        lhs = 0
        for m in range(n + 1):
            term = comb(n + 1, m) * t_ints[m]
            lhs += term if (n - m) % 2 == 0 else -term
        lhs = Fraction(lhs, t_den)
        rhs = 0
        for l in range(n + 1):
            h = h_ints[n - l]
            if not h:
                continue
            outer = comb(n + 1, l + 1) * h
            for m in range(l + 1):
                term = outer * comb(l, m) * pb_ints[m]
                rhs += term if (l - m) % 2 == 0 else -term
        rhs = Fraction(rhs, h_den * pb_den)
        yield n, "number identity", lhs, rhs, {}
        direct = pairing(functional, Polynomial.monomial(n + 1))
        yield n, "pairing cross-check", lhs, direct, {}


# ---------------------------------------------------------------------------
# basis expansions (id "bases")

def appell_pair(kernel: TruncatedSeries) -> ShefferPair:
    """The pair (1/kernel, t): its Sheffer sequence has the exponential
    generating function kernel * e^{x t}."""
    return ShefferPair(kernel.invert(), TruncatedSeries.identity(kernel.order))


def _appell_rows(sums, den) -> list:
    """The rows C_{n,m} = C(n, m) S_{n-m} of an Appell target, for
    S_j = sums[j] / den."""
    return [
        _canonical_row([comb(n, m) * sums[n - m] for m in range(n + 1)], den)
        for n in range(len(sums))
    ]


def _bernoulli_rows(triangle, scale, t_nums, values) -> list:
    nums, den = t_nums
    sums = [sum(map(mul, weights, nums[j::-1])) for j, weights in enumerate(triangle)]
    return _appell_rows(sums, scale * den)


def _bernoulli_form(s, n_top) -> partial:
    """S_j = sum_l C(j, l) S2(l + s, s) / C(s + l, l) T_{j-l}, over the lcm
    L of the binomials, which makes every L / C(s + l, l) an integer."""
    binoms = [comb(s + l, l) for l in range(n_top + 1)]
    scale = lcm(*binoms)
    s2 = stirling2_triangle(n_top + s)
    weights = [scale // b * s2[l + s][s] for l, b in enumerate(binoms)]
    triangle = [[comb(j, l) * weights[l] for l in range(j + 1)] for j in range(n_top + 1)]
    return partial(_bernoulli_rows, triangle, scale)


def _frobenius_euler_rows(weights, scale, t_nums, values) -> list:
    table, den = values
    return _appell_rows([sum(map(mul, weights, row)) for row in table], scale * den)


def _frobenius_euler_form(s, mu) -> partial:
    """S_j = (1 - mu)^(-s) sum_i C(s, i) (-mu)^(s-i) T_j(i), multiplied by
    q^s for mu = p/q: integer weights over the scale (q - p)^s, negative for
    mu > 1 and odd s.  Euler is mu = -1: 2^(-s) sum_i C(s, i) T_j(i)."""
    p, q = mu.numerator, mu.denominator
    weights = [comb(s, i) * (-p) ** (s - i) * q**i for i in range(s + 1)]
    return partial(_frobenius_euler_rows, weights, (q - p) ** s)


def _stirling_rows(triangle, t_nums, values) -> list:
    nums, den = t_nums
    rows = []
    for n in range(len(nums)):
        weights = [comb(n, j) * nums[n - j] for j in range(n + 1)]
        rows.append(_canonical_row(_combine(weights, triangle, n + 1), den))
    return rows


def _stirling_form(sign, n_top) -> partial:
    """C_{n,m} = sum_j C(n, j) T_{n-j} sign^(j-m) S2(j, m): the falling
    factorials at sign 1, the rising ones at sign -1."""
    triangle = [
        [sign ** (j - m) * c for m, c in enumerate(row)]
        for j, row in enumerate(stirling2_triangle(n_top))
    ]
    return partial(_stirling_rows, triangle)


@dataclass(frozen=True)
class Target:
    """A target basis of the connection constants: the parameters it is
    indexed by (a subset of s and mu), its Sheffer pair as
    ``pair(s, mu, order)`` (order >= 1, to hold a delta series), its
    members of degrees 0..n as ``basis(s, mu, n)`` and its closed form
    as ``closed_form(s, mu, n)``: the paper's formula for its constants,
    with the weights that read neither T nor a degree built, called as
    ``(t_nums, values)`` on the mixed numbers T_0..T_n and the table
    T_i(j), j = 0..max s, over common denominators, to give the rows
    C_0..C_n as canonical (numerators, denominator) pairs."""

    needs: tuple
    pair: Callable
    basis: Callable
    closed_form: Callable


#: The Sheffer bases the mixed family is expanded in, in sweep order.
TARGETS = {
    "bernoulli": Target(
        ("s",),
        lambda s, mu, order: appell_pair(bernoulli_kernel(s, order)),
        lambda s, mu, n: family_polys("bernoulli", n, s),
        lambda s, mu, n: _bernoulli_form(s, n),
    ),
    "euler": Target(
        ("s",),
        lambda s, mu, order: appell_pair(euler_kernel(s, order)),
        lambda s, mu, n: family_polys("euler", n, s),
        lambda s, mu, n: _frobenius_euler_form(s, Fraction(-1)),
    ),
    "frobenius-euler": Target(
        ("s", "mu"),
        lambda s, mu, order: appell_pair(frobenius_euler_kernel(s, mu, order)),
        lambda s, mu, n: family_polys("frobenius-euler", n, s, mu),
        lambda s, mu, n: _frobenius_euler_form(s, mu),
    ),
    "falling": Target(
        (),
        lambda s, mu, order: ShefferPair(
            TruncatedSeries.constant(1, order), exp_minus_one(order)
        ),
        lambda s, mu, n: [falling_factorial(m) for m in range(n + 1)],
        lambda s, mu, n: _stirling_form(1, n),
    ),
    "rising": Target(
        (),
        lambda s, mu, order: ShefferPair(
            TruncatedSeries.constant(1, order), one_minus_exp_neg(order)
        ),
        lambda s, mu, n: [rising_factorial(m) for m in range(n + 1)],
        lambda s, mu, n: _stirling_form(-1, n),
    ),
}


def _integer_rows(pairs) -> tuple:
    """(integer numerator rows, positive common denominator) of rows given
    as (integer numerators, positive denominator) pairs."""
    den = lcm(*[d for _, d in pairs])
    return [[c * (den // d) for c in num] for num, d in pairs], den


def _polynomial_rows(polys) -> tuple:
    """The coefficients of ``polys`` as `_integer_rows`: integer rows,
    lowest power first, over one positive denominator."""
    return _integer_rows([(p._num, p._den) for p in polys])


#: A target basis at one s and mu: the parameters its reports show, its
#: Sheffer pair, its members as `_polynomial_rows`, the monomials expanded
#: in it (`monomial_expansion`) and its `Target.closed_form`.
_BasisInstance = namedtuple("_BasisInstance", "extra pair rows expansion closed_form")


@lru_cache(maxsize=1)
def _basis_instances(grid: SweepGrid, n_top: int) -> tuple:
    """The `_BasisInstance` records through degree ``n_top`` that every
    (r, k, lambda) task of a sweep reads, in sweep order: targets in table
    order, each over s and then mu where it is indexed by them.  Memoised,
    so each process builds them once per sweep."""
    instances = []
    for name, target in TARGETS.items():
        for s in grid.s_values if "s" in target.needs else (None,):
            for mu in grid.mu_values if "mu" in target.needs else (None,):
                extra = {"basis": name, "s": s, "mu": str(mu)}
                basis = target.basis(s, mu, n_top)
                instances.append(_BasisInstance(
                    {key: extra[key] for key in ("basis", *target.needs)},
                    target.pair(s, mu, max(n_top, 1)), _polynomial_rows(basis),
                    monomial_expansion(basis), target.closed_form(s, mu, n_top),
                ))
    return tuple(instances)


def _reconstruct(row, basis_rows, basis_den) -> Polynomial:
    """sum_m row[m] * basis[m], for the row of constants as
    ``(numerators, denominator)`` and the basis as integer coefficient
    rows over ``basis_den``: one integer combination, one polynomial."""
    coeffs, den = row
    return _make(_combine(coeffs, basis_rows, len(coeffs)), den * basis_den)


def _basis_task(r, k, lam, ns, grid):
    n_top = max(ns)
    instances = _basis_instances(grid, n_top)
    kernel = mixed_kernel(r, k, lam, max(n_top, 1))
    t_polys = polys_from_kernel(kernel, n_top)
    t_nums = _common_denominator(numbers_from_kernel(kernel, n_top))
    values = _integer_rows([
        _common_denominator([t(j) for j in range(max(grid.s_values) + 1)]) for t in t_polys
    ])
    # one source for every target, so fbar and 1/g(fbar) are built once
    by_target = connection_rows(appell_pair(kernel), [i.pair for i in instances], n_top)
    for instance, pairing_rows in zip(instances, by_target):
        rows = instance.closed_form(t_nums, values)
        solved_rows = solve_rows(t_polys, instance.expansion)
        for n in ns:
            yield n, "summation vs pairing constants", rows[n], pairing_rows[n], instance.extra
            yield n, "summation vs solved constants", rows[n], solved_rows[n], instance.extra
            rebuilt = _reconstruct(rows[n], *instance.rows)
            yield n, "basis reconstruction", rebuilt, t_polys[n], instance.extra


# ---------------------------------------------------------------------------
# foundations (id "foundations")

def _foundations_task(r, k, lam, ns):
    n_top = max(ns)
    t_polys = family_polys("mixed-T", n_top, r, k, lam)
    t_zero = family_polys("mixed-T", n_top, 0, k, lam)
    pb_polys = family_polys("poly-bernoulli", n_top, k)
    pb_rows, pb_rows_den = _polynomial_rows(pb_polys)
    pb_ints, pb_den = _common_denominator(family_numbers("poly-bernoulli", n_top, k))
    h_rows, h_rows_den = _polynomial_rows(family_polys("frobenius-euler", n_top, r, lam))
    h_ints, h_den = _common_denominator(family_numbers("frobenius-euler", n_top, r, lam))
    # polys_from_kernel builds H_n by the binomial formula itself, so the
    # binomial expansion is checked against Roman's coefficient formula:
    # the pairing columns of the Appell pair (1/kernel, t), which invert
    # the kernel twice
    h_series = sheffer_polynomials(
        appell_pair(frobenius_euler_kernel(r, lam, n_top + 1)), n_top
    )
    operator = poly_bernoulli_kernel(k, n_top)
    # the closed forms of thm1-2 at order zero, whose numbers are 1, 0, 0, ...
    actions = _closed_forms(
        ([1] + [0] * n_top, 1), k, ns, ("alternating-shift action", "partition-sum action")
    )
    for n in ns:
        if n >= 1:
            yield n, "derivative rule", t_polys[n].derivative(), n * t_polys[n - 1], {}
        binoms = [comb(n, l) for l in range(n + 1)]
        # C(n, l) H_{n-l}: the convolution sum_l C(n, l) H_{n-l} PB_l(x)
        # weights the poly-Bernoulli rows, and the binomial expansion is the
        # polynomial with these coefficients
        h_weights = [b * h for b, h in zip(binoms, h_ints[n::-1])]
        conv_a = _make(_combine(h_weights, pb_rows, n + 1), h_den * pb_rows_den)
        yield n, "number/polynomial convolution", conv_a, t_polys[n], {}
        # sum_l C(n, l) PB_l H_{n-l}(x)
        pb_weights = [b * p for b, p in zip(binoms, pb_ints)]
        conv_b = _make(_combine(pb_weights, h_rows[n::-1], n + 1), pb_den * h_rows_den)
        yield n, "polynomial/number convolution", conv_b, t_polys[n], {}
        yield n, "binomial expansion", _make(h_weights, h_den), h_series[n], {}
        for _ in range(2):
            _, check, form = next(actions)
            yield n, check, form, pb_polys[n], {}
        action = apply_operator(operator, Polynomial.monomial(n))
        yield n, "operator action", action, pb_polys[n], {}
        yield n, "order-zero degeneration", t_zero[n], pb_polys[n], {}


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class VerifierSpec:
    """One row of the verifier table: the task run per (r, k, lambda)
    point, the smallest degree the identity is stated for, and whether the
    task also sweeps the s and mu axes, which the report's grid then lists.

    The task is a generator called as ``task(r, k, lam, ns)``, or as
    ``task(r, k, lam, ns, grid=grid)`` when it sweeps the s and mu axes.
    It computes both sides of every comparison itself and yields each as
    ``(n, check, lhs, rhs, extra)``; ``_run_checks`` alone counts, compares
    and stops."""

    task: Callable
    floor: int = 0
    with_s_mu: bool = False

    def require_degrees(self, grid: SweepGrid) -> None:
        """Reject a grid reaching below the identity's stated degrees."""
        if grid.n_min < self.floor:
            raise ValueError(f"this identity requires degrees n >= {self.floor}; raise n_min")


#: The verifier table, in report order.
SPECS = {
    # both closed-form expansions of the mixed family against the
    # generating-function values
    "thm1-2": VerifierSpec(_closed_forms_task),
    # degree n+1 from degree-n data, with the Bernoulli-weighted
    # index-lowering correction
    "thm3": VerifierSpec(_step_recurrence_task),
    # the differentiated form of the step recurrence
    "thm4": VerifierSpec(_derived_recurrence_task, floor=2),
    # degree-lowering formula with shifted Frobenius-Euler terms
    "thm5": VerifierSpec(_derivative_expansion_task, floor=1),
    # alternating binomial sum of mixed numbers against the
    # poly-Bernoulli/Frobenius-Euler convolution, plus a direct pairing
    "thm6": VerifierSpec(_alternating_sum_task),
    # expansion in every target basis, with the connection constants
    # computed three ways: closed-form summation, umbral pairing and an
    # exact triangular solve; basis instances are swept inside each point
    "bases": VerifierSpec(_basis_task, with_s_mu=True),
    # the derivative rule, both convolutions, the binomial expansion, the
    # two poly-Bernoulli actions on monomials against the operator route,
    # and the order-zero degeneration
    "foundations": VerifierSpec(_foundations_task),
}


def _plan(identity, grid) -> tuple:
    """One verifier's part of a run: ``(identity, grid description, tasks,
    checks)``, its (r, k, lambda) points in traversal order and the task
    that runs at each."""
    spec = SPECS[identity]
    ns = grid.degrees()
    tasks = [
        (r, k, lam, ns)
        for r in grid.r_values
        for k in grid.k_values
        for lam in grid.lambda_values
    ]
    # a task carries the grid, never the data built from it
    checks = partial(spec.task, grid=grid) if spec.with_s_mu else spec.task
    return identity, _axes(grid, spec.with_s_mu), tasks, checks


def _verifier(identity):
    def verify(grid: SweepGrid = DEFAULT_GRID, collect_all=False, jobs=1):
        SPECS[identity].require_degrees(grid)
        due = getattr(_RUN, "due", None)
        if due is not None and due[1:] == (identity, grid, collect_all):
            return due[0].report(identity)
        with closing(_Stream([_plan(identity, grid)], collect_all, jobs)) as stream:
            return stream.report(identity)

    verify.__doc__ = f"Run the {identity!r} verifier over the grid."
    return verify


VERIFIERS = {identity: _verifier(identity) for identity in SPECS}


def verify_all(grid: SweepGrid = DEFAULT_GRID, collect_all=False, jobs=1):
    """Run every registered verifier, yielding reports in registry order.

    Identities stated only from some minimum degree get the grid clamped
    to that degree; if the clamp empties the degree range the verifier is
    reported as a vacuous pass.  Every verifier is planned before the
    first report, and the run is one stream of tasks: with ``jobs > 1`` all
    of them go to one process pool at once, shut down when the run ends,
    raises or is closed.  Each report still comes from a call of its
    `VERIFIERS` function, which joins the work planned for it.
    """
    grids = {
        identity: grid if grid.n_min >= spec.floor else replace(grid, n_min=spec.floor)
        for identity, spec in SPECS.items()
        if grid.n_max >= spec.floor
    }
    plans = [_plan(identity, g) for identity, g in grids.items()]
    with closing(_Stream(plans, collect_all, jobs)) as stream:
        for identity in SPECS:
            if identity not in grids:
                yield VerificationReport(identity, _axes(grid))
                continue
            # the stream is this run's only while its verifier runs, not
            # across the yield
            _RUN.due = (stream, identity, grids[identity], collect_all)
            try:
                report = VERIFIERS[identity](grids[identity], collect_all=collect_all, jobs=jobs)
            finally:
                _RUN.due = None
            yield report
