import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from umbralcalc.cli import POLY_FAMILIES, latex_polynomial, latex_rational, main
from umbralcalc.families import KERNELS
from umbralcalc.polynomials import Polynomial
from fractions import Fraction

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "umbralcalc", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_table_mixed_family():
    result = run_cli(
        "table", "--family", "mixed-T", "--n-max", "3", "--r", "1", "--k", "2",
        "--lambda", "2",
    )
    assert result.returncode == 0
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(rows) == 4
    assert rows[0]["coefficients"] == ["1"]
    assert rows[1]["coefficients"] == ["5/4", "1"]
    assert all(row["family"] == "mixed-T" and row["lambda"] == "2" for row in rows)


def test_table_stirling_triangle():
    result = run_cli("table", "--family", "stirling2", "--n-max", "4")
    assert result.returncode == 0
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert rows[4]["coefficients"] == ["0", "1", "7", "6", "1"]


def test_table_rejects_excluded_lambda():
    result = run_cli(
        "table", "--family", "mixed-T", "--n-max", "3", "--r", "1", "--k", "2",
        "--lambda", "1",
    )
    assert result.returncode != 0
    assert "lambda" in result.stderr and "1" in result.stderr


def test_table_rejects_unknown_family():
    result = run_cli("table", "--family", "legendre", "--n-max", "3")
    assert result.returncode != 0
    assert "legendre" in result.stderr


def test_table_requires_family_parameters():
    result = run_cli("table", "--family", "mixed-T", "--n-max", "3")
    assert result.returncode == 2
    assert "--r" in result.stderr


def test_eval_examples():
    assert run_cli(
        "eval", "--family", "mixed-T", "--n", "0", "--r", "5", "--k", "-3",
        "--lambda", "7", "--at", "5",
    ).stdout.strip() == "1"
    assert run_cli(
        "eval", "--family", "euler", "--s", "1", "--n", "1", "--at", "1/2",
    ).stdout.strip() == "0"
    assert run_cli(
        "eval", "--family", "frobenius-euler", "--r", "1", "--lambda", "2",
        "--n", "1", "--at", "0",
    ).stdout.strip() == "1"


def test_verify_single_row_passes():
    result = run_cli(
        "verify", "thm3", "--n-max", "0", "--r-set=1", "--k-set=2", "--lambda-set=2",
    )
    assert result.returncode == 0
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(reports) == 1
    assert reports[0]["status"] == "pass"
    assert reports[0]["checked"] == 1


def test_verify_rejects_degrees_below_statement():
    result = run_cli("verify", "thm4", "--n-min", "0", "--n-max", "4")
    assert result.returncode == 2
    assert "n >= 2" in result.stderr


@pytest.mark.parametrize("identity, n_max, floor", [("thm4", "1", 2), ("all", "-1", 0)])
def test_verify_below_the_floor_names_the_floor_and_n_max(identity, n_max, floor, capsys):
    # with no --n-min the identity's floor is the lowest degree, so a
    # smaller --n-max is what the message must point at
    assert main(["verify", identity, "--n-max", n_max]) == 2
    err = capsys.readouterr().err
    assert f"n >= {floor}" in err and f"--n-max must be at least {floor}" in err
    assert "n_min" not in err


def test_verify_all_small_grid_streams_reports():
    result = run_cli(
        "verify", "all", "--n-max", "4", "--r-set=0,1", "--k-set=1",
        "--lambda-set=2", "--s-set=0,1", "--mu-set=3",
    )
    assert result.returncode == 0
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert [r["id"] for r in reports] == [
        "thm1-2", "thm3", "thm4", "thm5", "thm6", "bases", "foundations",
    ]
    assert all(r["status"] == "pass" for r in reports)


def test_verify_rejects_excluded_lambda_in_set():
    result = run_cli("verify", "thm3", "--n-max", "2", "--lambda-set=2,1")
    assert result.returncode == 2
    assert "lambda" in result.stderr


def test_bases_matches_library():
    result = run_cli(
        "bases", "--target", "falling", "--n-max", "3", "--r", "1", "--k", "2",
        "--lambda", "2",
    )
    assert result.returncode == 0
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert rows[0]["constants"] == ["1"]
    assert rows[2]["constants"] == ["125/36", "7/2", "1"]


def test_bases_requires_target_parameters():
    result = run_cli(
        "bases", "--target", "frobenius-euler", "--n-max", "3", "--r", "1",
        "--k", "2", "--lambda", "2",
    )
    assert result.returncode == 2
    assert "--mu" in result.stderr or "--s" in result.stderr


def test_output_files_and_formats(tmp_path):
    target = tmp_path / "rows.csv"
    result = run_cli(
        "table", "--family", "bernoulli", "--s", "1", "--n-max", "2",
        "--format", "csv", "--output", str(target),
    )
    assert result.returncode == 0 and result.stdout == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "family,n,r,k,s,lambda,mu,coefficients"
    assert lines[3] == "bernoulli,2,,,1,,,1/6;-1;1"

    result = run_cli(
        "table", "--family", "bernoulli", "--s", "1", "--n-max", "2",
        "--format", "latex",
    )
    assert "\\mathbb{B}^{(1)}_{2}(x) = x^{2} - x + \\frac{1}{6}" in result.stdout


def test_byte_determinism():
    for args in (
        ("table", "--family", "mixed-T", "--n-max", "6", "--r", "-2", "--k", "-3",
         "--lambda", "-3/5"),
        ("eval", "--family", "poly-bernoulli", "--k", "2", "--n", "5", "--at", "-7/3"),
    ):
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout and first.stdout == second.stdout


def test_negative_rationals_accepted_in_both_forms():
    spaced = run_cli(
        "eval", "--family", "frobenius-euler", "--r", "-2", "--lambda", "-3/5",
        "--n", "3", "--at", "-5/9",
    )
    equals = run_cli(
        "eval", "--family", "frobenius-euler", "--r=-2", "--lambda=-3/5",
        "--n", "3", "--at=-5/9",
    )
    assert spaced.returncode == 0 and equals.returncode == 0
    assert spaced.stdout == equals.stdout


def test_main_returns_exit_codes_in_process(capsys):
    assert main(["table", "--family", "stirling2", "--n-max", "1"]) == 0
    capsys.readouterr()
    assert main(["table", "--family", "stirling2", "--n-max", "-1"]) == 2
    assert main(["verify", "bogus"]) == 2


def test_latex_rendering_helpers():
    assert latex_rational(Fraction(-3, 5)) == "-\\frac{3}{5}"
    assert latex_rational(Fraction(4)) == "4"
    poly = Polynomial([Fraction(1, 6), -1, 1])
    assert latex_polynomial(poly) == "x^{2} - x + \\frac{1}{6}"
    assert latex_polynomial(Polynomial()) == "0"
    assert latex_polynomial(Polynomial([0, Fraction(-2, 3)])) == "-\\frac{2}{3} x"


def fraction_latex(q):
    """Reference: q written from its `Fraction` as a LaTeX number."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{'-' if q < 0 else ''}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def fraction_latex_polynomial(p):
    """Reference: p in descending powers written from its `Fraction`
    coefficients, zeros skipped and a unit coefficient left out."""
    text = ""
    for k in range(p.degree, -1, -1):
        c = p.coefficients[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = fraction_latex(mag)
        else:
            var = "x" if k == 1 else f"x^{{{k}}}"
            body = var if mag == 1 else f"{fraction_latex(mag)} {var}"
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = "-" + body if c < 0 else body
    return text or "0"


@given(st.fractions())
@example(Fraction(0))
@example(Fraction(-7))
@example(Fraction(-3, 5))
def test_latex_rational_matches_the_fraction_reference(q):
    assert latex_rational(q) == fraction_latex(q)


@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=6))
@example([])
@example([1, 0, -1])
@example([Fraction(-1, 2), -1, 0, 1])
def test_latex_polynomial_matches_the_fraction_reference(coeffs):
    p = Polynomial(coeffs)
    assert latex_polynomial(p) == fraction_latex_polynomial(p)


@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_table_past_the_integer_digit_limit_exits_2(fmt, capsys):
    # numerators of index-1000 poly-Bernoulli coefficients pass Python's
    # digit limit on int-to-str conversion; writing one raises ValueError
    argv = ["table", "--family", "poly-bernoulli", "--k", "1000", "--n-max", "12",
            "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_verify_stdout_is_byte_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify", "thm6", "--n-max", "6"]) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["status"] == "pass" and "elapsed_ms" not in report


def test_poly_families_follow_the_kernel_table():
    # table and eval pass a family's needs to its kernel builder in order,
    # ahead of the truncation order
    assert set(POLY_FAMILIES) == set(KERNELS)
    for name, family in POLY_FAMILIES.items():
        params = list(inspect.signature(KERNELS[name]).parameters)
        assert len(family.needs) == params.index("order")


FAMILY_PARAMS = {
    "bernoulli": ["--s", "2"],
    "euler": ["--s", "2"],
    "frobenius-euler": ["--r", "2", "--lambda", "-3/5"],
    "poly-bernoulli": ["--k", "-2"],
    "mixed-T": ["--r", "1", "--k", "2", "--lambda", "2"],
    "stirling2": [],
}

FIRST_LATEX_LINE = {
    "bernoulli": "\\mathbb{B}^{(2)}_{0}(x) = 1",
    "euler": "E^{(2)}_{0}(x) = 1",
    "frobenius-euler": "H^{(2)}_{0}(x \\mid -\\frac{3}{5}) = 1",
    "poly-bernoulli": "B^{(-2)}_{0}(x) = 1",
    "mixed-T": "T^{(1,2)}_{0}(x \\mid 2) = 1",
    "stirling2": "S_2(0, \\cdot) = \\left[1\\right]",
}

MISSING_FAMILY_PARAMS = {
    "bernoulli": "error: family 'bernoulli' needs --s\n",
    "euler": "error: family 'euler' needs --s\n",
    "frobenius-euler": "error: family 'frobenius-euler' needs --r, --lambda\n",
    "poly-bernoulli": "error: family 'poly-bernoulli' needs --k\n",
    "mixed-T": "error: family 'mixed-T' needs --r, --k, --lambda\n",
}

MISSING_TARGET_PARAMS = {
    "bernoulli": "error: target 'bernoulli' needs --s\n",
    "euler": "error: target 'euler' needs --s\n",
    "frobenius-euler": "error: target 'frobenius-euler' needs --s, --mu\n",
}

MIXED = ["--r", "1", "--k", "2", "--lambda", "2"]


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_table_latex_label_per_family(family, capsys):
    argv = ["table", "--family", family, "--n-max", "1", "--format", "latex"]
    assert main(argv + FAMILY_PARAMS[family]) == 0
    assert capsys.readouterr().out.splitlines()[0] == FIRST_LATEX_LINE[family]


@pytest.mark.parametrize("family", sorted(MISSING_FAMILY_PARAMS))
def test_missing_family_parameters_per_family(family, capsys):
    for command, degree in (("table", "--n-max"), ("eval", "--n")):
        argv = [command, "--family", family, degree, "1"]
        if command == "eval":
            argv += ["--at", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == MISSING_FAMILY_PARAMS[family]


@pytest.mark.parametrize("target", sorted(MISSING_TARGET_PARAMS))
def test_missing_target_parameters_per_target(target, capsys):
    argv = ["bases", "--target", target, "--n-max", "1", *MIXED]
    assert main(argv) == 2
    assert capsys.readouterr().err == MISSING_TARGET_PARAMS[target]
    if target == "frobenius-euler":
        assert main(argv + ["--s", "1"]) == 2
        assert capsys.readouterr().err == "error: target 'frobenius-euler' needs --mu\n"


@pytest.mark.parametrize("target", sorted(MISSING_TARGET_PARAMS))
def test_bases_rejects_a_negative_s_per_target(target, capsys):
    # verify rejects a negative s, so constants in such a basis could never
    # be checked; bases must refuse them before it computes anything
    argv = ["bases", "--target", target, "--n-max", "1", *MIXED, "--s", "-2", "--mu", "3"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --s must be nonnegative\n")
    # the order r of the Frobenius-Euler family may still be negative
    for command, degree in (("table", "--n-max"), ("eval", "--n")):
        argv = [command, "--family", "frobenius-euler", "--r", "-2", "--lambda", "3", degree, "2"]
        assert main(argv + (["--at", "1"] if command == "eval" else [])) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["table", "--family", "bernoulli", "--s", "-2", "--n-max", "2"],
    ["eval", "--family", "euler", "--s", "-1", "--n", "2", "--at", "1"],
])
def test_table_and_eval_reject_a_negative_s_by_its_flag(argv, capsys):
    # the same message as bases, from the same check
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --s must be nonnegative\n")


def test_eval_rejects_the_stirling_triangle(capsys):
    assert main(["eval", "--family", "stirling2", "--n", "1", "--at", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: stirling2 is a number triangle; use the table command\n"
    )


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_table_degree_zero_per_family(family, capsys):
    assert main(["table", "--family", family, "--n-max", "0", *FAMILY_PARAMS[family]]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["n"], row["coefficients"]) for row in rows] == [(0, ["1"])]


@pytest.mark.parametrize("target", ["bernoulli", "euler", "frobenius-euler", "falling", "rising"])
def test_bases_degree_zero_per_target(target, capsys):
    argv = ["bases", "--target", target, "--n-max", "0", *MIXED, "--s", "1", "--mu", "3"]
    assert main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["n"], row["constants"]) for row in rows] == [(0, ["1"])]


#: The degree-1 constant of T_1 in each target basis at r = -1, k = -2,
#: lambda = -3/5, s = 2, mu = 2/3, as recorded before the pairing side ran
#: on integers; the degree-0 constant is 1 in every basis.
BASES_DEGREE_ONE = {
    "bernoulli": "45/8",
    "euler": "45/8",
    "frobenius-euler": "85/8",
    "falling": "37/8",
    "rising": "37/8",
}


@pytest.mark.parametrize("target", sorted(BASES_DEGREE_ONE))
def test_bases_low_degrees_match_recorded_output(target, capsys):
    params = ["--r", "-1", "--k", "-2", "--lambda", "-3/5", "--s", "2", "--mu", "2/3"]
    head = (f'{{"target": "{target}", "n": %d, "r": -1, "k": -2, "s": 2, '
            f'"lambda": "-3/5", "mu": "2/3", "constants": ')
    degree_zero = head % 0 + '["1"]}\n'
    degree_one = head % 1 + f'["{BASES_DEGREE_ONE[target]}", "1"]}}\n'
    for n_max, expected in (("0", degree_zero), ("1", degree_zero + degree_one)):
        assert main(["bases", "--target", target, "--n-max", n_max, *params]) == 0
        assert capsys.readouterr().out == expected


#: The stdout of latex and csv requests, recorded when every format was
#: rendered from json row strings; each command renders it from its values.
RENDERED_OUTPUT = {
    ("bases", "bernoulli", "latex"): (
        "C_{0,\\cdot} = \\left[1\\right]\n"
        "C_{1,\\cdot} = \\left[\\frac{45}{8}, 1\\right]\n"
        "C_{2,\\cdot} = \\left[\\frac{721}{24}, \\frac{45}{4}, 1\\right]\n"
    ),
    ("bases", "bernoulli", "csv"): (
        "target,n,r,k,s,lambda,mu,constants\n"
        "bernoulli,0,-1,-2,2,-3/5,,1\n"
        "bernoulli,1,-1,-2,2,-3/5,,45/8;1\n"
        "bernoulli,2,-1,-2,2,-3/5,,721/24;45/4;1\n"
    ),
    ("bases", "falling", "latex"): (
        "C_{0,\\cdot} = \\left[1\\right]\n"
        "C_{1,\\cdot} = \\left[\\frac{37}{8}, 1\\right]\n"
        "C_{2,\\cdot} = \\left[\\frac{157}{8}, \\frac{41}{4}, 1\\right]\n"
    ),
    ("bases", "falling", "csv"): (
        "target,n,r,k,s,lambda,mu,constants\n"
        "falling,0,-1,-2,2,-3/5,,1\n"
        "falling,1,-1,-2,2,-3/5,,37/8;1\n"
        "falling,2,-1,-2,2,-3/5,,157/8;41/4;1\n"
    ),
    ("table", "stirling2", "latex"): (
        "S_2(0, \\cdot) = \\left[1\\right]\n"
        "S_2(1, \\cdot) = \\left[0, 1\\right]\n"
        "S_2(2, \\cdot) = \\left[0, 1, 1\\right]\n"
        "S_2(3, \\cdot) = \\left[0, 1, 3, 1\\right]\n"
    ),
    ("table", "stirling2", "csv"): (
        "family,n,r,k,s,lambda,mu,coefficients\n"
        "stirling2,0,,,,,,1\n"
        "stirling2,1,,,,,,0;1\n"
        "stirling2,2,,,,,,0;1;1\n"
        "stirling2,3,,,,,,0;1;3;1\n"
    ),
}


@pytest.mark.parametrize("command, name, fmt", sorted(RENDERED_OUTPUT))
def test_latex_and_csv_output_match_recorded_bytes(command, name, fmt, capsys):
    if command == "bases":
        argv = ["bases", "--target", name, "--n-max", "2",
                "--r", "-1", "--k", "-2", "--lambda", "-3/5", "--s", "2"]
    else:
        argv = ["table", "--family", name, "--n-max", "3"]
    assert main(argv + ["--format", fmt]) == 0
    assert capsys.readouterr().out == RENDERED_OUTPUT[command, name, fmt]


#: The stdout of bases at degree 8 in the two targets whose l(fbar) is not
#: the series t, so that each column of constants is a convolution; recorded
#: when the CLI made each constant a Fraction straight from its column.
CONVOLUTION_OUTPUT = {
    ("falling", "json"): (
        '{"target": "falling", "n": 0, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["1"]}\n'
        '{"target": "falling", "n": 1, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["37/8", "1"]}\n'
        '{"target": "falling", "n": 2, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["157/8", "41/4", "1"]}\n'
        '{"target": "falling", "n": 3, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["643/8", "295/4", "135/8", "1"]}\n'
        '{"target": "falling", "n": 4, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["2593/8", "1835/4", "721/4", "49/2", "1"]}\n'
        '{"target": "falling", "n": 5, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["10387/8", "10579/4", "12555/8", "360", "265/8", "1"]}\n'
        '{"target": "falling", "n": 6, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["41497/8", "58331/4", "48769/4", "8315/2", "5095/8", "171/4", "1"]}\n'
        '{"target": "falling", "n": 7, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["165643/8", "312715/4", "705915/8", "41741", "37555/4", "4151/4", "427/8", "1"]}\n'
        '{"target": "falling", "n": 8, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["661153/8", "1645475/4", "2436781/4", "765849/2", "472269/4", "37947/2", "3185/2", "65", "1"]}\n'
    ),
    ("falling", "csv"): (
        "target,n,r,k,s,lambda,mu,constants\n"
        "falling,0,-1,-2,2,-3/5,,1\n"
        "falling,1,-1,-2,2,-3/5,,37/8;1\n"
        "falling,2,-1,-2,2,-3/5,,157/8;41/4;1\n"
        "falling,3,-1,-2,2,-3/5,,643/8;295/4;135/8;1\n"
        "falling,4,-1,-2,2,-3/5,,2593/8;1835/4;721/4;49/2;1\n"
        "falling,5,-1,-2,2,-3/5,,10387/8;10579/4;12555/8;360;265/8;1\n"
        "falling,6,-1,-2,2,-3/5,,41497/8;58331/4;48769/4;8315/2;5095/8;171/4;1\n"
        "falling,7,-1,-2,2,-3/5,,165643/8;312715/4;705915/8;41741;37555/4;4151/4;427/8;1\n"
        "falling,8,-1,-2,2,-3/5,,661153/8;1645475/4;2436781/4;765849/2;472269/4;37947/2;3185/2;65;1\n"
    ),
    ("falling", "latex"): (
        "C_{0,\\cdot} = \\left[1\\right]\n"
        "C_{1,\\cdot} = \\left[\\frac{37}{8}, 1\\right]\n"
        "C_{2,\\cdot} = \\left[\\frac{157}{8}, \\frac{41}{4}, 1\\right]\n"
        "C_{3,\\cdot} = \\left[\\frac{643}{8}, \\frac{295}{4}, \\frac{135}{8}, 1\\right]\n"
        "C_{4,\\cdot} = \\left[\\frac{2593}{8}, \\frac{1835}{4}, \\frac{721}{4}, \\frac{49}{2}, 1\\right]\n"
        "C_{5,\\cdot} = \\left[\\frac{10387}{8}, \\frac{10579}{4}, \\frac{12555}{8}, 360, \\frac{265}{8}, 1\\right]\n"
        "C_{6,\\cdot} = \\left[\\frac{41497}{8}, \\frac{58331}{4}, \\frac{48769}{4}, \\frac{8315}{2}, \\frac{5095}{8}, \\frac{171}{4}, 1\\right]\n"
        "C_{7,\\cdot} = \\left[\\frac{165643}{8}, \\frac{312715}{4}, \\frac{705915}{8}, 41741, \\frac{37555}{4}, \\frac{4151}{4}, \\frac{427}{8}, 1\\right]\n"
        "C_{8,\\cdot} = \\left[\\frac{661153}{8}, \\frac{1645475}{4}, \\frac{2436781}{4}, \\frac{765849}{2}, \\frac{472269}{4}, \\frac{37947}{2}, \\frac{3185}{2}, 65, 1\\right]\n"
    ),
    ("rising", "json"): (
        '{"target": "rising", "n": 0, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["1"]}\n'
        '{"target": "rising", "n": 1, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["37/8", "1"]}\n'
        '{"target": "rising", "n": 2, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["157/8", "33/4", "1"]}\n'
        '{"target": "rising", "n": 3, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["643/8", "46", "87/8", "1"]}\n'
        '{"target": "rising", "n": 4, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["2593/8", "885/4", "277/4", "25/2", "1"]}\n'
        '{"target": "rising", "n": 5, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["10387/8", "991", "2895/8", "165/2", "105/8", "1"]}\n'
        '{"target": "rising", "n": 6, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["41497/8", "17073/4", "6859/4", "445", "655/8", "51/4", "1"]}\n'
        '{"target": "rising", "n": 7, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["165643/8", "17956", "61467/8", "2156", "1785/4", "133/2", "91/8", "1"]}\n'
        '{"target": "rising", "n": 8, "r": -1, "k": -2, "s": 2, "lambda": "-3/5", "mu": null, "constants": ["661153/8", "297645/4", "132997/4", "19635/2", "8589/4", "777/2", "77/2", "9", "1"]}\n'
    ),
    ("rising", "csv"): (
        "target,n,r,k,s,lambda,mu,constants\n"
        "rising,0,-1,-2,2,-3/5,,1\n"
        "rising,1,-1,-2,2,-3/5,,37/8;1\n"
        "rising,2,-1,-2,2,-3/5,,157/8;33/4;1\n"
        "rising,3,-1,-2,2,-3/5,,643/8;46;87/8;1\n"
        "rising,4,-1,-2,2,-3/5,,2593/8;885/4;277/4;25/2;1\n"
        "rising,5,-1,-2,2,-3/5,,10387/8;991;2895/8;165/2;105/8;1\n"
        "rising,6,-1,-2,2,-3/5,,41497/8;17073/4;6859/4;445;655/8;51/4;1\n"
        "rising,7,-1,-2,2,-3/5,,165643/8;17956;61467/8;2156;1785/4;133/2;91/8;1\n"
        "rising,8,-1,-2,2,-3/5,,661153/8;297645/4;132997/4;19635/2;8589/4;777/2;77/2;9;1\n"
    ),
    ("rising", "latex"): (
        "C_{0,\\cdot} = \\left[1\\right]\n"
        "C_{1,\\cdot} = \\left[\\frac{37}{8}, 1\\right]\n"
        "C_{2,\\cdot} = \\left[\\frac{157}{8}, \\frac{33}{4}, 1\\right]\n"
        "C_{3,\\cdot} = \\left[\\frac{643}{8}, 46, \\frac{87}{8}, 1\\right]\n"
        "C_{4,\\cdot} = \\left[\\frac{2593}{8}, \\frac{885}{4}, \\frac{277}{4}, \\frac{25}{2}, 1\\right]\n"
        "C_{5,\\cdot} = \\left[\\frac{10387}{8}, 991, \\frac{2895}{8}, \\frac{165}{2}, \\frac{105}{8}, 1\\right]\n"
        "C_{6,\\cdot} = \\left[\\frac{41497}{8}, \\frac{17073}{4}, \\frac{6859}{4}, 445, \\frac{655}{8}, \\frac{51}{4}, 1\\right]\n"
        "C_{7,\\cdot} = \\left[\\frac{165643}{8}, 17956, \\frac{61467}{8}, 2156, \\frac{1785}{4}, \\frac{133}{2}, \\frac{91}{8}, 1\\right]\n"
        "C_{8,\\cdot} = \\left[\\frac{661153}{8}, \\frac{297645}{4}, \\frac{132997}{4}, \\frac{19635}{2}, \\frac{8589}{4}, \\frac{777}{2}, \\frac{77}{2}, 9, 1\\right]\n"
    ),
}


@pytest.mark.parametrize("target, fmt", sorted(CONVOLUTION_OUTPUT))
def test_bases_convolution_targets_match_recorded_bytes(target, fmt, capsys):
    argv = ["bases", "--target", target, "--n-max", "8",
            "--r", "-1", "--k", "-2", "--lambda", "-3/5", "--s", "2"]
    assert main(argv + ["--format", fmt]) == 0
    assert capsys.readouterr().out == CONVOLUTION_OUTPUT[target, fmt]


def test_verify_sets_accepted_space_separated(capsys):
    outputs = []
    for sets in (["--r-set", "-2,-1", "--lambda-set", "-1,2,1/2"],
                 ["--r-set=-2,-1", "--lambda-set=-1,2,1/2"]):
        assert main(["verify", "thm3", "--n-max", "2", "--k-set", "1,-1", *sets]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["grid"]["lambda"] == ["-1", "2", "1/2"]


#: The first line of each file that scripts/generate_tables.py writes.
TABLE_FILE_HEADS = {
    "bernoulli.jsonl": '{"family": "bernoulli", "n": 0, "r": null, "k": null, "s": 2, '
                       '"lambda": null, "mu": null, "coefficients": ["1"]}',
    "bernoulli.tex": "\\mathbb{B}^{(2)}_{0}(x) = 1",
    "euler.jsonl": '{"family": "euler", "n": 0, "r": null, "k": null, "s": 2, '
                   '"lambda": null, "mu": null, "coefficients": ["1"]}',
    "euler.tex": "E^{(2)}_{0}(x) = 1",
    "frobenius-euler.jsonl": '{"family": "frobenius-euler", "n": 0, "r": 2, "k": null, '
                             '"s": null, "lambda": "-3/5", "mu": null, "coefficients": ["1"]}',
    "frobenius-euler.tex": "H^{(2)}_{0}(x \\mid -\\frac{3}{5}) = 1",
    "mixed-T.jsonl": '{"family": "mixed-T", "n": 0, "r": 1, "k": 2, "s": null, '
                     '"lambda": "2", "mu": null, "coefficients": ["1"]}',
    "mixed-T.tex": "T^{(1,2)}_{0}(x \\mid 2) = 1",
    "poly-bernoulli.jsonl": '{"family": "poly-bernoulli", "n": 0, "r": null, "k": -2, '
                            '"s": null, "lambda": null, "mu": null, "coefficients": ["1"]}',
    "poly-bernoulli.tex": "B^{(-2)}_{0}(x) = 1",
    "stirling2.jsonl": '{"family": "stirling2", "n": 0, "r": null, "k": null, "s": null, '
                       '"lambda": null, "mu": null, "coefficients": ["1"]}',
    "stirling2.tex": "S_2(0, \\cdot) = \\left[1\\right]",
}


def test_generate_tables_script_writes_every_family(tables_script, tmp_path, capsys):
    assert tables_script.main(["--n-max", "2", "--out", str(tmp_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(TABLE_FILE_HEADS)
    for name, head in TABLE_FILE_HEADS.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 3 and lines[0] == head
    assert capsys.readouterr().out.count("wrote ") == 12


def test_verify_bases_degree_zero(capsys):
    argv = ["verify", "bases", "--n-max", "0", "--r-set=1", "--k-set=2",
            "--lambda-set=2", "--s-set=1", "--mu-set=3"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass" and report["checked"] == 15
    assert report["grid"] == {"n_min": 0, "n_max": 0, "r": [1], "k": [2],
                              "lambda": ["2"], "s": [1], "mu": ["3"]}


UNWRITABLE_OUTPUT_COMMANDS = {
    "table": ["table", "--family", "bernoulli", "--s", "1", "--n-max", "2"],
    "eval": ["eval", "--family", "bernoulli", "--s", "1", "--n", "2", "--at", "1"],
    "bases": ["bases", "--target", "falling", "--n-max", "2", *MIXED],
    "verify": ["verify", "thm3", "--n-max", "0", "--r-set=1", "--k-set=2",
               "--lambda-set=2"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUTPUT_COMMANDS))
def test_unwritable_output_exits_2(command, tmp_path, capsys):
    # exit 1 of verify means a counterexample; a bad path is a usage error
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        argv = UNWRITABLE_OUTPUT_COMMANDS[command] + ["--output", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_verify_usage_error_keeps_existing_output(tmp_path, capsys):
    out = tmp_path / "out.txt"
    out.write_text("earlier report\n")
    argv = ["verify", "thm4", "--n-min", "0", "--n-max", "4", "--output", str(out)]
    assert main(argv) == 2
    assert "n >= 2" in capsys.readouterr().err
    assert out.read_text() == "earlier report\n"


def test_verify_repeated_grid_value_exits_2_and_keeps_existing_output(tmp_path, capsys):
    # 2/4 is the lambda 1/2 again; the sweep used to check every point twice
    out = tmp_path / "out.txt"
    out.write_text("earlier report\n")
    argv = ["verify", "thm3", "--n-max", "2", "--r-set=1", "--k-set=1",
            "--lambda-set=1/2,2/4", "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: lambda_values must hold distinct values; 1/2 repeats\n"
    )
    assert out.read_text() == "earlier report\n"
