"""Command-line front end: family tables, point evaluation, connection
constants, and the identity verification suite.

All values are exact rationals rendered as "p/q" (or "p" when integral);
the same syntax is accepted on the command line.  Output is
byte-deterministic for a fixed invocation.  Exit status: 0 on success
(for verify: every report passed), 1 when a verification sweep found a
counterexample, 2 for usage or parameter errors and for an output path
that cannot be written.

Each command computes its values once and renders every output line
from them, calling only the renderer of the requested format: a json/csv
row per degree, or a LaTeX line.  Output cells are written straight from
the integer rows the library stores (a polynomial's numerators over its
denominator, a canonical row of connection constants), each entry
reduced to lowest terms with one gcd and no `Fraction` made.

Values starting with a dash (negative rationals, negative sets) are
accepted both space-separated and in the equals form, e.g.
``--lambda -3/5`` or ``--lambda-set=-1,2,1/2``: the parser class of the
command and of every subcommand reads them as values, not as flags.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

from .families import family_polys, mixed_kernel, stirling2_triangle
from .identities import (
    DEFAULT_GRID,
    SPECS,
    TARGETS,
    VERIFIERS,
    SweepGrid,
    appell_pair,
    verify_all,
)
from .polynomials import Polynomial, _lowest, _ratio_text, _render, parse_rational
from .umbral import connection_rows

FORMATS = ("json", "csv", "latex")
IDENTITIES = tuple(VERIFIERS) + ("all",)

#: The parameter columns of a json/csv row, each with the argument it shows.
_PARAMS = {"r": "r", "k": "k", "s": "s", "lambda": "lam", "mu": "mu"}
ROW_FIELDS = ("family", "n", *_PARAMS, "coefficients")


class CliError(Exception):
    """Parameter problem detected after argument parsing."""


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _excluding_one(name: str):
    def parse(text: str) -> Fraction:
        value = _rational(text)
        if value == 1:
            raise argparse.ArgumentTypeError(
                f"{name} = 1 is excluded (the generating kernels require {name} != 1)"
            )
        return value

    return parse


def _int_set(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc
    return values


def _rational_set(text: str) -> tuple:
    try:
        values = tuple(parse_rational(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return values


# ---------------------------------------------------------------------------
# LaTeX rendering

def _latex_ratio(p: int, q: int) -> str:
    """The rational p/q, in lowest terms with q positive (as
    `polynomials._lowest` gives it), as "p" or "\\frac{|p|}{q}" signed."""
    if q == 1:
        return str(p)
    sign = "-" if p < 0 else ""
    return f"{sign}\\frac{{{abs(p)}}}{{{q}}}"


def latex_rational(q: Fraction) -> str:
    return _latex_ratio(q.numerator, q.denominator)


def latex_polynomial(p: Polynomial) -> str:
    """Descending powers; rational coefficients as \\frac{p}{q}."""
    return _render(p, _latex_ratio, lambda k: f"x^{{{k}}}", " ")


# ---------------------------------------------------------------------------
# output plumbing

def _write_text(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _rows_to_csv(rows, fields) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        record = []
        for field in fields:
            value = row.get(field)
            if value is None:
                record.append("")
            elif isinstance(value, list):
                record.append(";".join(value))
            else:
                record.append(value)
        writer.writerow(record)
    return buffer.getvalue()


def _emit_rows(args, count: int, fields, row, latex_line) -> int:
    """Write the lines of degrees 0..count-1 in the requested format:
    ``row(n)``, a dict over ``fields``, for json and csv, or the string
    ``latex_line(n)`` for latex."""
    degrees = range(count)
    if args.format == "json":
        text = "".join(json.dumps(row(n)) + "\n" for n in degrees)
    elif args.format == "csv":
        text = _rows_to_csv(map(row, degrees), fields)
    else:
        text = "".join(latex_line(n) + "\n" for n in degrees)
    _write_text(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# table / eval

_FLAGS = {"lam": "--lambda", "mu": "--mu"}


def _flags(names) -> list:
    return [_FLAGS.get(name, f"--{name}") for name in names]


def _require_params(args, what: str, needs) -> None:
    """Exit 2 naming the flags of ``needs`` that were not given, joined by
    ", ", or a negative --s."""
    missing = _flags(name for name in needs if getattr(args, name) is None)
    if missing:
        raise CliError(f"{what} needs {', '.join(missing)}")
    if "s" in needs and args.s < 0:
        raise CliError("--s must be nonnegative")


@dataclass(frozen=True)
class Family:
    """A polynomial family of the table and eval commands: the arguments
    it needs, in the order its kernel builder (`families.KERNELS`) takes
    them, and the LaTeX name of its degree-n member as ``label(args, n)``."""

    needs: tuple
    label: Callable


POLY_FAMILIES = {
    "bernoulli": Family(
        ("s",),
        lambda a, n: f"\\mathbb{{B}}^{{({a.s})}}_{{{n}}}(x)",
    ),
    "euler": Family(
        ("s",),
        lambda a, n: f"E^{{({a.s})}}_{{{n}}}(x)",
    ),
    "frobenius-euler": Family(
        ("r", "lam"),
        lambda a, n: f"H^{{({a.r})}}_{{{n}}}(x \\mid {latex_rational(a.lam)})",
    ),
    "poly-bernoulli": Family(
        ("k",),
        lambda a, n: f"B^{{({a.k})}}_{{{n}}}(x)",
    ),
    "mixed-T": Family(
        ("r", "k", "lam"),
        lambda a, n: f"T^{{({a.r},{a.k})}}_{{{n}}}(x \\mid {latex_rational(a.lam)})",
    ),
}
FAMILIES = (*POLY_FAMILIES, "stirling2")


def _family_polys(args, n_max: int) -> list:
    family = POLY_FAMILIES[args.family]
    _require_params(args, f"family {args.family!r}", family.needs)
    return family_polys(args.family, n_max, *[getattr(args, name) for name in family.needs])


def _param_cells(args) -> dict:
    """The parameter cells of a json/csv row: an int as it is, a rational
    as "p/q", and None for a parameter that was not given or that the
    command does not take."""
    cells = {}
    for field, name in _PARAMS.items():
        value = getattr(args, name, None)
        cells[field] = str(value) if isinstance(value, Fraction) else value
    return cells


def _run_table(args) -> int:
    if args.n_max < 0:
        raise CliError("--n-max must be nonnegative")
    if args.family == "stirling2":
        triangle = stirling2_triangle(args.n_max)

        def cells(n):
            return [str(v) for v in triangle[n]]

        def latex_line(n):
            return f"S_2({n}, \\cdot) = \\left[{', '.join(cells(n))}\\right]"
    else:
        polys = _family_polys(args, args.n_max)
        label = POLY_FAMILIES[args.family].label

        def cells(n):
            den = polys[n]._den
            return [_ratio_text(*_lowest(c, den)) for c in polys[n]._num]

        def latex_line(n):
            return f"{label(args, n)} = {latex_polynomial(polys[n])}"

    params = _param_cells(args)

    def row(n):
        return {"family": args.family, "n": n, **params, "coefficients": cells(n)}

    return _emit_rows(args, args.n_max + 1, ROW_FIELDS, row, latex_line)


def _run_eval(args) -> int:
    if args.n < 0:
        raise CliError("--n must be nonnegative")
    if args.family == "stirling2":
        raise CliError("stirling2 is a number triangle; use the table command")
    poly = _family_polys(args, args.n)[args.n]
    _write_text(str(poly(args.at)) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# bases

def _run_bases(args) -> int:
    if args.n_max < 0:
        raise CliError("--n-max must be nonnegative")
    target_name = args.target
    target = TARGETS[target_name]
    _require_params(args, f"target {target_name!r}", target.needs)
    order = max(args.n_max, 1)
    source = appell_pair(mixed_kernel(args.r, args.k, args.lam, order))
    (rows,) = connection_rows(source, [target.pair(args.s, args.mu, order)], args.n_max)
    params = _param_cells(args)

    def row(n):
        nums, den = rows[n]
        return {"target": target_name, "n": n, **params,
                "constants": [_ratio_text(*_lowest(c, den)) for c in nums]}

    def latex_line(n):
        nums, den = rows[n]
        rendered = ", ".join(_latex_ratio(*_lowest(c, den)) for c in nums)
        return f"C_{{{n},\\cdot}} = \\left[{rendered}\\right]"

    fields = ("target", "n", *_PARAMS, "constants")
    return _emit_rows(args, args.n_max + 1, fields, row, latex_line)


# ---------------------------------------------------------------------------
# verify

#: The sweep axes that verify's --r-set .. --mu-set options set.
_AXES = ("r_values", "k_values", "s_values", "lambda_values", "mu_values")


def _build_grid(args, n_min: int) -> SweepGrid:
    axes = {axis: getattr(args, axis) for axis in _AXES if getattr(args, axis) is not None}
    n_max = DEFAULT_GRID.n_max if args.n_max is None else args.n_max
    return replace(DEFAULT_GRID, n_min=n_min, n_max=n_max, **axes)


def _run_verify(args) -> int:
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    identity = args.identity
    # a usage error must not truncate an existing output file, so the grid
    # is checked before the file is opened
    # with no --n-min a grid starts at the identity's floor ('all' clamps
    # each verifier to its own), so only --n-max can fall below it
    floor = 0 if identity == "all" else SPECS[identity].floor
    if args.n_min is None and args.n_max is not None and args.n_max < floor:
        raise CliError(
            f"{identity} is stated for degrees n >= {floor}; --n-max must be at least {floor}"
        )
    grid = _build_grid(args, n_min=floor if args.n_min is None else args.n_min)
    if identity != "all":
        SPECS[identity].require_degrees(grid)
    sink = sys.stdout if args.output is None else open(args.output, "w", newline="")
    close_sink = args.output is not None
    all_passed = True
    try:
        if identity == "all":
            reports = verify_all(grid, collect_all=args.collect_all, jobs=args.jobs)
        else:
            reports = [VERIFIERS[identity](grid, collect_all=args.collect_all, jobs=args.jobs)]
        for report in reports:
            sink.write(json.dumps(report.to_jsonable()) + "\n")
            sink.flush()
            all_passed = all_passed and report.passed
    finally:
        if close_sink:
            sink.close()
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """argparse only treats plain negative integers/decimals as values
    rather than flags; this parser widens that to negative rationals
    ("-3/5") and negative rational sets ("-1,2,1/2"), so they work without
    the equals form.  `add_subparsers` makes every subcommand's parser of
    the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?([,-].*)?$|^-\d*\.\d+$")


def _add_output_options(parser, with_format=True):
    if with_format:
        parser.add_argument("--format", choices=FORMATS, default="json",
                            help="output format (default: json)")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write to a file instead of standard output")


def _add_family_options(parser):
    parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("--r", type=int, default=None, help="integer order r")
    parser.add_argument("--k", type=int, default=None, help="integer polylogarithm index k")
    parser.add_argument("--s", type=int, default=None, help="nonnegative integer order s")
    parser.add_argument("--lambda", dest="lam", type=_excluding_one("lambda"),
                        default=None, metavar="RAT", help='rational != 1, e.g. "2" or "-3/5"')


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="umbralcalc",
        description="Exact tables, evaluations, connection constants, and "
        "identity verification for the Frobenius-Euler / poly-Bernoulli "
        "polynomial families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a family coefficient table")
    _add_family_options(table)
    table.add_argument("--n-max", type=int, required=True, help="largest degree")
    _add_output_options(table)
    table.set_defaults(handler=_run_table)

    evaluate = sub.add_parser("eval", help="evaluate one family polynomial at a point")
    _add_family_options(evaluate)
    evaluate.add_argument("--n", type=int, required=True, help="degree")
    evaluate.add_argument("--at", type=_rational, required=True, metavar="RAT",
                          help="evaluation point")
    _add_output_options(evaluate, with_format=False)
    evaluate.set_defaults(handler=_run_eval)

    verify = sub.add_parser(
        "verify",
        help="run identity verifiers; reports stream as JSON lines",
        description="Run the selected identity verifier (or all of them) "
        "over the sweep grid.  Exit status 0 exactly when every report "
        "passes.  Identities stated only from a minimum degree (thm4: "
        "n >= 2, thm5: n >= 1) default to that minimum; passing a smaller "
        "--n-min explicitly is an error for those ids, while 'all' clamps "
        "each verifier to its stated domain.",
    )
    verify.add_argument("identity", choices=IDENTITIES)
    verify.add_argument("--n-min", type=int, default=None)
    verify.add_argument("--n-max", type=int, default=None)
    verify.add_argument("--r-set", dest="r_values", type=_int_set, default=None, metavar="INTS",
                        help="comma-separated, e.g. --r-set=-2,-1,0,1")
    verify.add_argument("--k-set", dest="k_values", type=_int_set, default=None, metavar="INTS")
    verify.add_argument("--s-set", dest="s_values", type=_int_set, default=None, metavar="INTS")
    verify.add_argument("--lambda-set", dest="lambda_values", type=_rational_set, default=None,
                        metavar="RATS",
                        help="comma-separated rationals, e.g. --lambda-set=-1,2,1/2")
    verify.add_argument("--mu-set", dest="mu_values", type=_rational_set, default=None,
                        metavar="RATS")
    verify.add_argument("--collect-all", action="store_true",
                        help="keep scanning after a failure and report every counterexample")
    verify.add_argument("--jobs", type=int, default=1,
                        help="grid parallelism degree (default: 1)")
    _add_output_options(verify, with_format=False)
    verify.set_defaults(handler=_run_verify)

    bases = sub.add_parser(
        "bases",
        help="emit connection constants of the mixed family in a target basis",
    )
    bases.add_argument("--target", choices=TARGETS, required=True)
    bases.add_argument("--n-max", type=int, required=True)
    bases.add_argument("--r", type=int, required=True)
    bases.add_argument("--k", type=int, required=True)
    bases.add_argument("--lambda", dest="lam", type=_excluding_one("lambda"),
                       required=True, metavar="RAT")
    bases.add_argument("--s", type=int, default=None)
    bases.add_argument("--mu", type=_excluding_one("mu"), default=None, metavar="RAT")
    _add_output_options(bases)
    bases.set_defaults(handler=_run_bases)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
