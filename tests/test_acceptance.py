"""Acceptance suite: each test covers one acceptance criterion, checks it
at exact rational equality, and prints one pass/fail line (run with
``pytest tests/test_acceptance.py -s`` to see them live)."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from umbralcalc.families import (
    bernoulli_kernel,
    exp_minus_one,
    family_polys,
    mixed_kernel,
    one_minus_exp_neg,
    polylog_series,
    stirling2_triangle,
)
from umbralcalc.identities import DEFAULT_GRID, VERIFIERS
from umbralcalc.polynomials import Polynomial, X, falling_factorial, rising_factorial
from umbralcalc.series import TruncatedSeries, exp_series
from umbralcalc.umbral import (
    ShefferPair,
    apply_operator,
    pairing,
    sheffer_polynomials,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
# recorded `umbralcalc verify all` stdout on DEFAULT_GRID: a change that keeps
# the outputs reproduces it byte for byte
VERIFY_ALL_GOLDEN = Path(__file__).resolve().parent / "data" / "verify_all_default.jsonl"


def _conclude(criterion, ok, started, budget=None):
    elapsed = time.perf_counter() - started
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s"
    if budget is not None:
        line += f", budget {budget}s"
    line += ")"
    print(line)
    assert ok, criterion
    if budget is not None:
        assert elapsed < budget, f"{criterion} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_pairing_foundations():
    started = time.perf_counter()
    order = 14
    t = TruncatedSeries.identity(order)
    functionals = [t**k for k in range(4)]
    functionals += [exp_series(1, order), exp_series(Fraction(1, 2), order)]
    functionals.append(bernoulli_kernel(1, order))
    test_polys = [Polynomial.monomial(n) for n in range(11)]
    test_polys += [
        falling_factorial(7),
        Polynomial([Fraction(1, 6), -1, 1]) * Polynomial.monomial(8),
        (X - Fraction(2, 3)) ** 5,
    ]
    ok = True
    # <t^k | x^n> = n! delta
    for k in range(11):
        for n in range(11):
            expected = factorial(n) if n == k else 0
            ok = ok and pairing(t**k, Polynomial.monomial(n)) == expected
    for p in test_polys:
        # p(x) = sum_k <t^k | p> x^k / k!
        rebuilt = Polynomial()
        for k in range(p.degree + 1):
            rebuilt = rebuilt + pairing(t**k, p) * Polynomial.monomial(k) / factorial(k)
        ok = ok and rebuilt == p
        for y in (0, 2, Fraction(-1, 2)):
            ok = ok and pairing(exp_series(y, order), p) == p(y)
            ok = ok and apply_operator(exp_series(y, order), p) == p.shift(y)
        for f in functionals:
            # <f | x p> = <f' | p>
            ok = ok and pairing(f, X * p) == pairing(f.derivative(), p)
            for g in functionals:
                lhs = pairing(f * g, p)
                ok = ok and lhs == pairing(f, apply_operator(g, p))
                ok = ok and lhs == pairing(g, apply_operator(f, p))
    # f(t) S_n = n S_{n-1} for sample Sheffer pairs
    one = TruncatedSeries.constant(1, order)
    sample_pairs = [
        ShefferPair(one, exp_minus_one(order)),
        ShefferPair(one, one_minus_exp_neg(order)),
        ShefferPair(bernoulli_kernel(2, order).invert(), TruncatedSeries.identity(order)),
        ShefferPair(
            mixed_kernel(1, 2, Fraction(2), order).invert(),
            TruncatedSeries.identity(order),
        ),
    ]
    for pair in sample_pairs:
        seq = sheffer_polynomials(pair, 10)
        for n in range(1, 11):
            ok = ok and apply_operator(pair.f, seq[n]) == n * seq[n - 1]
    # derivative rule on the default grid
    grid = DEFAULT_GRID
    for r in grid.r_values:
        for k in grid.k_values:
            for lam in grid.lambda_values:
                family = family_polys("mixed-T", grid.n_max, r, k, lam)
                for n in range(1, grid.n_max + 1):
                    ok = ok and family[n].derivative() == n * family[n - 1]
    _conclude("1 (pairing and operator foundations)", ok, started, budget=5)


def test_criterion_2_sheffer_machinery():
    started = time.perf_counter()
    order = 12
    one = TruncatedSeries.constant(1, order)
    fall_pair = ShefferPair(one, exp_minus_one(order))
    rise_pair = ShefferPair(one, one_minus_exp_neg(order))
    fall = sheffer_polynomials(fall_pair, 10)
    rise = sheffer_polynomials(rise_pair, 10)
    ok = fall == [falling_factorial(n) for n in range(11)]
    ok = ok and rise == [rising_factorial(n) for n in range(11)]
    # biorthogonality <g f^k | S_n> = n! delta_{n,k} for 0 <= n, k <= 8
    for pair, seq in ((fall_pair, fall), (rise_pair, rise)):
        functional = pair.g
        for k in range(9):
            for n in range(9):
                expected = factorial(n) if n == k else 0
                ok = ok and pairing(functional, seq[n]) == expected
            functional = functional * pair.f
    _conclude("2 (Sheffer machinery)", ok, started, budget=5)


def test_criterion_3_closed_forms():
    started = time.perf_counter()
    report = VERIFIERS["thm1-2"](DEFAULT_GRID)
    _conclude("3 (closed forms)", report.passed, started, budget=60)


def test_criterion_4_recurrences():
    from dataclasses import replace

    started = time.perf_counter()
    ok = VERIFIERS["thm3"](DEFAULT_GRID).passed
    ok = ok and VERIFIERS["thm4"](replace(DEFAULT_GRID, n_min=2)).passed
    ok = ok and VERIFIERS["thm5"](replace(DEFAULT_GRID, n_min=1)).passed
    _conclude("4 (recurrences)", ok, started, budget=60)


def test_criterion_5_dual_identity():
    started = time.perf_counter()
    report = VERIFIERS["thm6"](DEFAULT_GRID)
    _conclude("5 (dual identity, three-way)", report.passed, started, budget=30)


def test_criterion_6_basis_expansions():
    started = time.perf_counter()
    report = VERIFIERS["bases"](DEFAULT_GRID)
    _conclude("6 (basis expansions, three-way)", report.passed, started, budget=120)


def test_criterion_7_degenerations():
    started = time.perf_counter()
    ok = True
    for k in DEFAULT_GRID.k_values:
        family = family_polys("poly-bernoulli", 10, k)
        for lam in (Fraction(2), Fraction(-3, 5)):
            ok = ok and family_polys("mixed-T", 10, 0, k, lam) == family
    classical = [b.shift(1) for b in family_polys("bernoulli", 10, 1)]
    ok = ok and family_polys("poly-bernoulli", 10, 1) == classical
    for s in range(9):
        frobenius = family_polys("frobenius-euler", 10, s, Fraction(-1))
        ok = ok and frobenius == family_polys("euler", 10, s)
    li1 = polylog_series(1, 12)
    ok = ok and li1 == TruncatedSeries.identity(12)
    _conclude("7 (degenerations)", ok, started, budget=5)


def test_criterion_8_stirling_layer():
    from test_families import partitions_by_block_count

    started = time.perf_counter()
    triangle = stirling2_triangle(10)
    ok = True
    # generating-function extraction: [t^l] (e^t - 1)^m = m! S2(l, m) / l!
    base = exp_minus_one(10)
    power = TruncatedSeries.constant(1, 10)
    for m in range(11):
        for l in range(11):
            value = power.coefficient(l) * factorial(l) / factorial(m)
            ok = ok and value == (triangle[l][m] if m <= l else 0)
        if m < 10:
            power = power * base
    # set-partition enumeration
    for n in range(11):
        counts = partitions_by_block_count(n)
        for m in range(n + 1):
            expected = counts.get(m, 0) if n else int(m == 0)
            ok = ok and triangle[n][m] == expected
    _conclude("8 (Stirling layer, three-way)", ok, started, budget=5)


def test_criterion_9_cli_gate():
    started = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "umbralcalc", *args],
            capture_output=True, text=True, env=env,
        )

    verify = run("verify", "all")
    ok = verify.returncode == 0
    ok = ok and verify.stdout.encode() == VERIFY_ALL_GOLDEN.read_bytes()
    reports = [json.loads(line) for line in verify.stdout.splitlines()]
    ok = ok and len(reports) == 7 and all(r["status"] == "pass" for r in reports)

    table_args = (
        "table", "--family", "mixed-T", "--n-max", "8", "--r", "2", "--k", "-2",
        "--lambda", "-3/5",
    )
    eval_args = (
        "eval", "--family", "frobenius-euler", "--r", "-2", "--lambda", "1/2",
        "--n", "7", "--at", "-5/9",
    )
    for args in (table_args, eval_args):
        first, second = run(*args), run(*args)
        ok = ok and first.returncode == second.returncode == 0
        ok = ok and first.stdout == second.stdout and first.stdout
    _conclude("9 (CLI gate and determinism)", ok, started)


def test_pooled_verify_all_matches_the_golden():
    # a pooled run must print what the serial one does, byte for byte; on a
    # host with one usable CPU it runs serially and still compares
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    verify = subprocess.run(
        [sys.executable, "-m", "umbralcalc", "verify", "all", "--jobs", "2"],
        capture_output=True, text=True, env=env,
    )
    assert verify.returncode == 0, verify.stderr
    assert verify.stdout.encode() == VERIFY_ALL_GOLDEN.read_bytes()
