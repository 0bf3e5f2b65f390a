"""Independent checks of query-mix outputs.

Each check recomputes a request's output by a route that shares no code
with the library: Stirling numbers from the explicit alternating sum,
order-1 Bernoulli and Euler polynomials from sympy, and the mixed family
rebuilt from its falling- or rising-factorial connection constants with the
benchmark's own ``Fraction`` arithmetic.  The output parsers read all three
formats (json, csv, latex), so the checks also cover the formatting.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction
from math import comb, factorial

_LATEX_FRAC = re.compile(r"^(-?)\\frac\{(\d+)\}\{(\d+)\}$")
_LATEX_TERM = re.compile(r"^(?:(.*?) ?)?x(?:\^\{(\d+)\})?$")


def options(argv) -> dict:
    """``--name value`` and ``--name=value`` pairs of one request."""
    out, items = {}, iter(argv[1:])
    for item in items:
        if "=" in item:
            name, value = item.split("=", 1)
        else:
            name, value = item, next(items)
        out[name.lstrip("-")] = value
    return out


def latex_number(text: str) -> Fraction:
    match = _LATEX_FRAC.match(text)
    if match:
        sign, num, den = match.groups()
        return Fraction(int(num), int(den)) * (-1 if sign else 1)
    return Fraction(int(text))


def latex_polynomial(text: str) -> list:
    """Coefficients, lowest power first, of a polynomial rendered in
    descending powers as ``- \\frac{1}{2} x^{3} + x - 5``."""
    coeffs = {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for token in re.split(r" ([+-]) ", text):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        match = _LATEX_TERM.match(token)
        if match:
            coeff, power = match.groups()
            value = latex_number(coeff) if coeff else Fraction(1)
            coeffs[int(power) if power else 1] = sign * value
        else:
            coeffs[0] = sign * latex_number(token)
    if not coeffs or text == "0":
        return []
    return [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]


def parse_rows(text: str, fmt: str, field: str) -> list:
    """The ``field`` list of every output row, as Fractions."""
    if fmt == "json":
        return [[Fraction(v) for v in json.loads(line)[field]] for line in text.splitlines()]
    if fmt == "csv":
        rows = csv.DictReader(io.StringIO(text))
        return [[Fraction(v) for v in row[field].split(";")] if row[field] else [] for row in rows]
    out = []
    for line in text.splitlines():
        body = line.split(" = ", 1)[1]
        if body.startswith("\\left["):
            items = body[len("\\left["):-len("\\right]")]
            out.append([latex_number(v) for v in items.split(", ")] if items else [])
        else:
            out.append(latex_polynomial(body))
    return out


def stirling2_row(n: int) -> list:
    """S2(n, m) for m = 0..n from (1/m!) sum_j (-1)^j C(m, j) (m - j)^n."""
    return [
        Fraction(sum((-1) ** j * comb(m, j) * (m - j) ** n for j in range(m + 1)), factorial(m))
        for m in range(n + 1)
    ]


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(coeffs: list) -> list:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def factorial_rebuild(constants: list, rising: bool) -> list:
    """sum_m C[m] (x)_m, or with rising factorials x^(m), lowest power first."""
    total = [Fraction(0)] * len(constants)
    basis = [Fraction(1)]
    for m, c in enumerate(constants):
        for i, b in enumerate(basis):
            total[i] += c * b
        basis = _poly_mul(basis, [Fraction(m if rising else -m), Fraction(1)])
    return _trim(total)


def _sympy_row(name: str, n: int):
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly((sympy.bernoulli if name == "bernoulli" else sympy.euler)(n, x), x)
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def check_requests(requests: list, call) -> dict:
    """Run every request an oracle applies to through ``call(argv) ->
    (exit code, stdout)`` and check its rows.

    Returns the digest of each checked output, so that the caller can tie
    the verdict to the output of the timed pass, and the failures found.
    """
    try:
        import sympy  # noqa: F401

        have_sympy = True
    except ImportError:
        have_sympy = False
    checked, failures = {}, {}
    for index, argv in enumerate(requests):
        opts = options(argv)
        command, fmt = argv[0], opts.get("format", "json")
        name = opts.get("family") or opts.get("target")
        if command == "table" and name == "stirling2":
            expect = stirling2_row
        elif command == "table" and name in ("bernoulli", "euler") and opts["s"] == "1":
            if not have_sympy:
                continue
            expect = lambda n, name=name: _sympy_row(name, n)  # noqa: E731
        elif command == "bases" and name in ("falling", "rising"):
            reference = ["table", "--family", "mixed-T", "--r", opts["r"], "--k", opts["k"],
                         f"--lambda={opts['lambda']}", "--n-max", opts["n-max"]]
            code, text = call(reference)
            mixed = parse_rows(text, "json", "coefficients") if code == 0 else None
            expect = None
        else:
            continue
        code, text = call(argv)
        checked[str(index)] = hashlib.sha256(text.encode()).hexdigest()
        if code != 0:
            failures[str(index)] = f"exit code {code}"
            continue
        field = "constants" if command == "bases" else "coefficients"
        try:
            rows = parse_rows(text, fmt, field)
        except (ValueError, KeyError, IndexError) as exc:
            failures[str(index)] = f"output does not parse: {exc}"
            continue
        for n, row in enumerate(rows):
            if expect is not None:
                ok = _trim(row) == _trim(expect(n))
            else:
                ok = mixed is not None and factorial_rebuild(row, name == "rising") == _trim(mixed[n])
            if not ok:
                failures[str(index)] = f"row {n} disagrees with the oracle"
                break
        else:
            if len(rows) != int(opts["n-max"]) + 1:
                failures[str(index)] = f"{len(rows)} rows for n-max {opts['n-max']}"
    return {"checked": checked, "failures": failures, "sympy": have_sympy}
