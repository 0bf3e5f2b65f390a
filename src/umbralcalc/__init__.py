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
    KERNELS,
    family_numbers,
    family_polys,
    mixed_kernel,
    poly_bernoulli_kernel,
    polylog_series,
    stirling2,
    stirling2_triangle,
)
from .identities import DEFAULT_GRID, VERIFIERS, SweepGrid, verify_all
from .polynomials import (
    Polynomial,
    X,
    falling_factorial,
    parse_rational,
    rising_factorial,
)
from .series import TruncatedSeries, exp_series
from .umbral import (
    ShefferPair,
    VerificationReport,
    apply_operator,
    connection_rows,
    pairing,
    sheffer_polynomials,
)

__version__ = "0.1.0"
