import pickle
from fractions import Fraction
from functools import partial
from math import comb, factorial, gcd

import pytest
from hypothesis import given, strategies as st

from umbralcalc import identities
from umbralcalc.families import (
    bernoulli_kernel,
    exp_minus_one,
    frobenius_euler_kernel,
    mixed_kernel,
    family_numbers,
    family_polys,
    one_minus_exp_neg,
    stirling2_triangle,
)
from umbralcalc.polynomials import Polynomial, X, falling_factorial, rising_factorial
from umbralcalc.series import TruncatedSeries, exp_series
from umbralcalc.umbral import (
    ShefferPair,
    VerificationReport,
    apply_operator,
    connection_rows,
    monomial_expansion,
    pairing,
    sheffer_polynomials,
    solve_rows,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
polys = st.lists(rationals, max_size=5).map(Polynomial)
functionals = st.lists(rationals, min_size=8, max_size=8).map(
    lambda cs: TruncatedSeries(cs, 7)
)


def basis_solve_oracle(polys_to_expand, basis):
    """Brute-force expansion oracle working on raw coefficient lists."""
    rows = []
    for p in polys_to_expand:
        coeffs = list(p.coefficients)
        row = [Fraction(0)] * max(len(coeffs), 1)
        for m in range(len(coeffs) - 1, -1, -1):
            c = coeffs[m] / basis[m].coefficients[-1]
            row[m] = c
            for i, b in enumerate(basis[m].coefficients):
                coeffs[i] -= c * b
        assert all(not c for c in coeffs)
        rows.append(row)
    return rows


def test_pairing_kronecker_examples():
    t = TruncatedSeries.identity(6)
    assert pairing(t**2, Polynomial.monomial(3)) == 0
    assert pairing(t**3, Polynomial.monomial(3)) == 6
    assert pairing(exp_series(Fraction(1, 2), 4), Polynomial([0, -1, 1])) == Fraction(-1, 4)


def test_pairing_evaluates_exponentials():
    p = Polynomial([2, Fraction(-1, 3), 0, 1])
    for y in (0, 1, Fraction(-2, 3)):
        assert pairing(exp_series(y, 5), p) == p(y)


def test_pairing_requires_enough_truncation():
    with pytest.raises(ValueError):
        pairing(TruncatedSeries([1, 1], 1), Polynomial.monomial(3))


def test_apply_operator_examples():
    t = TruncatedSeries.identity(5)
    assert apply_operator(t, Polynomial.monomial(3)) == 3 * X**2
    y = Fraction(3, 2)
    assert apply_operator(exp_series(y, 4), X**2) == (X + y) ** 2
    assert apply_operator(frobenius_euler_kernel(1, 2, 4), X) == X + 1


def test_sheffer_pair_validation():
    order = 6
    with pytest.raises(ValueError):
        ShefferPair(TruncatedSeries([0, 1], order), TruncatedSeries.identity(order))
    with pytest.raises(ValueError):
        ShefferPair(
            TruncatedSeries.constant(1, order), TruncatedSeries([0, 0, 1], order)
        )


def test_sheffer_polynomials_classical_pairs():
    order = 12
    one = TruncatedSeries.constant(1, order)
    assert sheffer_polynomials(ShefferPair(one, TruncatedSeries.identity(order)), 6) == [
        X**n for n in range(7)
    ]
    falling = sheffer_polynomials(ShefferPair(one, exp_minus_one(order)), 10)
    assert falling == [falling_factorial(n) for n in range(11)]
    rising = sheffer_polynomials(ShefferPair(one, one_minus_exp_neg(order)), 10)
    assert rising == [rising_factorial(n) for n in range(11)]


def test_operator_lowers_sheffer_degree():
    # f(t) S_n = n S_{n-1}
    order = 12
    one = TruncatedSeries.constant(1, order)
    for pair in (
        ShefferPair(one, exp_minus_one(order)),
        ShefferPair(one, one_minus_exp_neg(order)),
        ShefferPair(bernoulli_kernel(2, order).invert(), TruncatedSeries.identity(order)),
    ):
        seq = sheffer_polynomials(pair, 8)
        for n in range(1, 9):
            assert apply_operator(pair.f, seq[n]) == n * seq[n - 1]


def test_connection_constants_identity_case():
    order = 10
    pair = ShefferPair(TruncatedSeries.constant(1, order), exp_minus_one(order))
    rows = rendered(connection_rows(pair, [pair], 5)[0])
    for n, row in enumerate(rows):
        assert row == [Fraction(int(m == n)) for m in range(n + 1)]


def test_connection_constants_monomials_to_falling_is_stirling():
    order = 10
    one = TruncatedSeries.constant(1, order)
    monomials = ShefferPair(one, TruncatedSeries.identity(order))
    falling = ShefferPair(one, exp_minus_one(order))
    rows = rendered(connection_rows(monomials, [falling], 8)[0])
    triangle = stirling2_triangle(8)
    assert rows == [[Fraction(v) for v in triangle[n]] for n in range(9)]
    basis = [falling_factorial(m) for m in range(9)]
    assert rendered(solve_rows([X**n for n in range(9)], monomial_expansion(basis))) == rows
    assert basis_solve_oracle([X**n for n in range(9)], basis) == rows


def test_connection_constants_mixed_to_falling_matches_closed_form():
    r, k, lam, n = 1, 2, Fraction(2), 4
    order = 6
    source = ShefferPair(
        mixed_kernel(r, k, lam, order).invert(), TruncatedSeries.identity(order)
    )
    target = ShefferPair(TruncatedSeries.constant(1, order), exp_minus_one(order))
    rows = rendered(connection_rows(source, [target], n)[0])
    nums = family_numbers("mixed-T", n, r, k, lam)
    triangle = stirling2_triangle(n)
    closed = [
        sum(
            comb(n, l + m) * triangle[l + m][m] * nums[n - m - l]
            for l in range(n - m + 1)
        )
        for m in range(n + 1)
    ]
    assert rows[n] == closed
    solved = solve_rows(
        family_polys("mixed-T", n, r, k, lam),
        monomial_expansion([falling_factorial(m) for m in range(n + 1)]),
    )
    assert rendered(solved) == rows


def test_expand_in_basis_validates():
    with pytest.raises(ValueError):
        monomial_expansion([X])  # basis element 0 must be constant
    with pytest.raises(ValueError, match="not expressible"):
        solve_rows([X**3], monomial_expansion([Polynomial([1]), X]))
    with pytest.raises(ValueError, match="not expressible"):
        solve_rows([Polynomial([1])], monomial_expansion([]))


FAILURES = (
    {"n": 3, "k": 0, "lhs": "1", "rhs": "0"},
    {"n": 5, "k": 1, "lhs": "2", "rhs": "0"},
)


@pytest.mark.parametrize("found", [0, 1, 2])
def test_report_is_read_from_its_counterexamples(found):
    failures = FAILURES[:found]
    report = VerificationReport("x", {"n_max": 5}, 7, failures)
    assert report.passed == (found == 0)
    assert report.status == ("fail" if found else "pass")
    assert report.counterexample == (failures[0] if found else None)
    payload = report.to_jsonable()
    keys = ["id", "grid", "status"]
    keys += ["counterexample"] if found else []
    keys += ["counterexamples"] if found > 1 else []
    assert list(payload) == keys + ["checked"]
    assert payload["status"] == report.status and payload["checked"] == 7
    if found:
        assert payload["counterexample"] == FAILURES[0]
    if found > 1:
        assert payload["counterexamples"] == list(FAILURES)


@given(functionals, functionals, polys)
def test_pairing_product_adjunction(f, g, p):
    # <f g | p> = <f | g p> = <g | f p>
    lhs = pairing(f * g, p)
    assert lhs == pairing(f, apply_operator(g, p))
    assert lhs == pairing(g, apply_operator(f, p))


@given(functionals, polys)
def test_pairing_derivative_rule(f, p):
    # <f | x p> = <f' | p>
    assert pairing(f, X * p) == pairing(f.derivative(), p)


@given(polys)
def test_monomial_expansion_reconstructs(p):
    # p = sum_k <t^k | p> x^k / k!
    t = TruncatedSeries.identity(max(p.degree, 1))
    rebuilt = Polynomial()
    for power in range(p.degree + 1):
        c = pairing(t**power, p)
        rebuilt = rebuilt + c * Polynomial.monomial(power) / factorial(power)
    assert rebuilt == p


@pytest.mark.parametrize("n", [0, 1, 5])
def test_connection_constants_truncate_exactly(n):
    # pairs at order max(n, 1) give the same constants as pairs three
    # orders longer, for the mixed source in every target basis
    from umbralcalc.identities import TARGETS, appell_pair

    r, k, lam, s, mu = -1, -2, Fraction(-3, 5), 2, Fraction(3)

    def constants(name, order):
        source = appell_pair(mixed_kernel(r, k, lam, order))
        return rendered(connection_rows(source, [TARGETS[name].pair(s, mu, order)], n)[0])

    for name in TARGETS:
        assert constants(name, max(n, 1)) == constants(name, n + 3)


# --- the integer pairing and solve sides against the Fraction code -----------

def fraction_connection_constants(source, target, n_max):
    """The pairing route's constants with one `Fraction` operation per
    term, as they were before the pairing side ran on integer numerators."""
    fbar = source.f.comp_inverse()
    prefactor = target.g.compose(fbar) * source.g.compose(fbar).invert()
    ell = target.f.compose(fbar)
    rows = [[Fraction(0)] * (n + 1) for n in range(n_max + 1)]
    power = prefactor
    for m in range(n_max + 1):
        scale = Fraction(1, factorial(m))
        for n in range(m, n_max + 1):
            rows[n][m] = factorial(n) * scale * power.coefficient(n)
        if m < n_max:
            power = power * ell
    return rows


def fraction_expand_in_basis(polys_to_expand, basis):
    """The triangular solve as a `Polynomial`-subtraction loop with one
    `Fraction` division per step, as it was before the integer solve."""
    rows = []
    for p in polys_to_expand:
        remainder = p
        row = [Fraction(0)] * (p.degree + 1 if p else 1)
        for m in range(p.degree, -1, -1):
            c = remainder.coefficient(m) / basis[m].coefficient(m)
            row[m] = c
            if c:
                remainder = remainder - c * basis[m]
        assert not remainder
        rows.append(row)
    return rows


def all_canonical(integer_rows):
    return all(den > 0 and gcd(den, *nums) == 1 for nums, den in integer_rows)


def rendered(integer_rows):
    """Canonical ``(numerators, denominator)`` rows as `Fraction` rows."""
    return [[Fraction(c, den) for c in nums] for nums, den in integer_rows]


# mu > 1, mu < 0 and a denominator q - p < 0
ORACLE_GRID = identities.SweepGrid(
    n_max=12, mu_values=(Fraction(-1), Fraction(3), Fraction(2, 3), Fraction(9, 2))
)


@pytest.mark.parametrize("r, k, lam", [(-2, -3, Fraction(1, 2)), (3, 3, Fraction(7))])
def test_integer_sides_match_fraction_oracles_on_every_instance(r, k, lam):
    for n_max in range(ORACLE_GRID.n_max + 1):
        instances = identities._basis_instances(ORACLE_GRID, n_max)
        source = identities.appell_pair(mixed_kernel(r, k, lam, max(n_max, 1)))
        t_polys = family_polys("mixed-T", n_max, r, k, lam)
        assert len(instances) == 32
        for instance in instances:
            extra, target = instance.extra, instance.pair
            mu = Fraction(extra["mu"]) if "mu" in extra else None
            basis = identities.TARGETS[extra["basis"]].basis(extra.get("s"), mu, n_max)
            (pairing_rows,) = connection_rows(source, [target], n_max)
            assert rendered(pairing_rows) == fraction_connection_constants(source, target, n_max)
            solved = solve_rows(t_polys, instance.expansion)
            assert rendered(solved) == fraction_expand_in_basis(t_polys, basis)
            assert solve_rows(t_polys, monomial_expansion(basis)) == solved
            assert all_canonical(pairing_rows)


SHEFFER_ORDER = 6
nonzero_rationals = rationals.filter(bool)
invertible_series = st.tuples(
    nonzero_rationals, st.lists(rationals, min_size=SHEFFER_ORDER, max_size=SHEFFER_ORDER)
).map(lambda c: TruncatedSeries([c[0], *c[1]], SHEFFER_ORDER))
delta_series = st.tuples(
    nonzero_rationals,
    st.lists(rationals, min_size=SHEFFER_ORDER - 1, max_size=SHEFFER_ORDER - 1),
).map(lambda c: TruncatedSeries([0, c[0], *c[1]], SHEFFER_ORDER))


@given(
    st.builds(ShefferPair, invertible_series, delta_series.filter(lambda f: not f._is_identity())),
    st.builds(ShefferPair, invertible_series, delta_series),
    st.integers(0, SHEFFER_ORDER),
)
def test_integer_pairing_matches_fraction_oracle_on_general_pairs(source, target, n_max):
    # a source f other than t takes the general compositional inverse,
    # which the Appell sources of `bases` never reach
    (integer_rows,) = connection_rows(source, [target], n_max)
    assert rendered(integer_rows) == fraction_connection_constants(source, target, n_max)
    assert all_canonical(integer_rows)


triangular_bases = st.integers(0, 5).flatmap(
    lambda size: st.tuples(
        *[
            st.tuples(st.lists(rationals, min_size=m, max_size=m), nonzero_rationals)
            for m in range(size)
        ]
    )
).map(lambda elements: [Polynomial([*low, lead]) for low, lead in elements])


@given(triangular_bases, st.lists(polys, max_size=4))
def test_integer_solve_matches_fraction_oracle_on_general_bases(basis, to_expand):
    to_expand = [p for p in to_expand if p.degree < len(basis)]
    rows = solve_rows(to_expand, monomial_expansion(basis))
    assert rendered(rows) == fraction_expand_in_basis(to_expand, basis)
    assert all_canonical(rows)


def test_bases_tasks_leave_the_shared_data_out():
    # a task carries the grid; each process builds the basis data from it once
    grid = identities.DEFAULT_GRID
    _, _, tasks, checks = identities._plan("bases", grid)
    assert len(tasks) == 210
    # what the pool is sent per point: the chunk worker and the task
    worker = partial(identities._run_checks, checks, False)
    sent = max(len(pickle.dumps((worker, [task]))) for task in tasks)
    assert sent < 1024
    shared = identities._basis_instances(grid, grid.n_max)
    assert identities._basis_instances(grid, grid.n_max) is shared
    # what each process builds for itself dwarfs what a task sends
    assert len(pickle.dumps(shared)) > 50 * sent
