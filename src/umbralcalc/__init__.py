"""Exact umbral-calculus engine and special-polynomial library.

Arithmetic is exact rational throughout: dense polynomials over the
rationals (integer numerators over one common denominator, with
`fractions.Fraction` at the interface), truncated formal power series with explicit
truncation orders, the umbral pairing and operator action, Sheffer
sequences and connection constants, generators for the Bernoulli, Euler,
Frobenius-Euler, poly-Bernoulli, and mixed-type families, and a suite of
verifiers that check the families' identities by exact comparison of
independently computed sides.
"""

from .families import (
    bernoulli_numbers,
    bernoulli_poly,
    bernoulli_polys,
    euler_poly,
    euler_polys,
    frobenius_euler_numbers,
    frobenius_euler_poly,
    frobenius_euler_polys,
    mixed_kernel,
    mixed_type_numbers,
    mixed_type_poly,
    mixed_type_polys,
    poly_bernoulli_kernel,
    poly_bernoulli_numbers,
    poly_bernoulli_poly,
    poly_bernoulli_polys,
    polylog_series,
    stirling2,
    stirling2_triangle,
)
from .identities import (
    DEFAULT_GRID,
    VERIFIERS,
    SweepGrid,
    verify_all,
    verify_alternating_sum,
    verify_basis_expansions,
    verify_closed_forms,
    verify_derivative_expansion,
    verify_derived_recurrence,
    verify_foundations,
    verify_step_recurrence,
)
from .polynomials import (
    Polynomial,
    X,
    falling_factorial,
    format_rational,
    parse_rational,
    rising_factorial,
)
from .series import TruncatedSeries, exp_series
from .umbral import (
    ShefferPair,
    VerificationReport,
    appell_next,
    apply_operator,
    connection_constants,
    expand_in_basis,
    pairing,
    sheffer_orthogonality_check,
    sheffer_polynomials,
)

__version__ = "0.1.0"
