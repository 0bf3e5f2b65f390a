"""Smoke runs of every workload, argument guards and the oracles."""

import json
import os
import shutil
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402



def degree(argv) -> int:
    return int(argv[argv.index("--n-max" if "--n-max" in argv else "--n") + 1])


TINY = {
    "verify-serial": {"grid": dict(workloads.verify_grid(0), n_max=3, r_values=[1],
                                   k_values=[1], s_values=[0, 1], mu_values=["3"])},
    "query-mix": {"requests": [a for a in workloads.query_requests(0) if degree(a) <= 4]},
}
TINY["verify-parallel"] = TINY["verify-serial"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    if workload == "verify-parallel" and (os.cpu_count() or 1) < workloads.PARALLEL_JOBS:
        pytest.skip("needs two cores")
    monkeypatch.chdir(ROOT)
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, inputs=TINY[workload]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["--workload", "nope", "--seed", "1"],
    ["--workload", "query-mix", "--seed", "x"],
    ["--workload", "query-mix", "--seed", "1", "--seconds", "0"],
])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(argv)
    assert exc.value.code == 2


def test_more_jobs_than_cores_exits_2(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with pytest.raises(SystemExit) as exc:
        run.parse_args(["--workload", "verify-parallel", "--seed", "1"])
    assert exc.value.code == 2


def broken_checkout(tmp_path, module, patch):
    """A checkout whose ``umbralcalc.<module>`` ends with ``patch``."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(tmp_path / "src" / "umbralcalc" / f"{module}.py", "a") as handle:
        handle.write(patch)
    return tmp_path


def test_a_raising_request_is_a_failed_operation(tmp_path, monkeypatch, capsys):
    requests = TINY["query-mix"]["requests"]
    monkeypatch.chdir(broken_checkout(tmp_path, "cli", f"""
_main = main
def main(argv=None):
    if argv == {requests[0]!r}:
        raise ZeroDivisionError("injected")
    return _main(argv)
"""))
    argv = ["--workload", "query-mix", "--seed", "0", "--seconds", "1"]
    assert run.main(argv, inputs={"requests": requests}) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert all(m["value"] is not None for m in result["metrics"].values())


def test_a_raising_verifier_fails_every_batch_and_times_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(broken_checkout(tmp_path, "identities", """
def _broken(grid, collect_all=False, jobs=1):
    raise ZeroDivisionError("injected")
VERIFIERS["thm3"] = _broken
"""))
    argv = ["--workload", "verify-serial", "--seed", "0", "--seconds", "1"]
    assert run.main(argv, inputs=TINY["verify-serial"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # thm3 and the five verifiers after it fail in every batch
    assert not result["correct"] and result["failed"] == result["attempted"] * 6 // 7
    assert all(m["value"] is None for m in result["metrics"].values())


def test_every_seed_has_a_recorded_query_mix():
    assert workloads.query_requests(workloads.QUERY_MIXES + 3) == workloads.query_requests(3)
    for seed in (0, 7, -1, 10**9):
        assert run.recorded_digest("query-mix", seed, run.inputs_for("query-mix", seed))


def test_without_the_library_exits_1_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "query-mix", "--seed", "1"]) == 1
    assert capsys.readouterr().out == ""


def test_expected_checks_match_the_default_grid_sizes():
    grid = workloads.verify_grid(3)
    assert grid["r_values"] == [-1, 2] and len(grid["lambda_values"]) == 1
    checks = workloads.expected_checks(grid)
    assert checks["thm4"] == 4 * 11 and checks["foundations"] == 4 * (7 * 13 + 12)
    assert checks["bases"] == 4 * 13 * 3 * 27


def test_latex_parsers():
    assert oracles.latex_polynomial("-\\frac{1}{2} x^{3} + x - 5") == [
        Fraction(-5), Fraction(1), Fraction(0), Fraction(-1, 2)]
    assert oracles.latex_polynomial("0") == []
    assert oracles.parse_rows("S_2(2, \\cdot) = \\left[0, 1, 1\\right]\n", "latex",
                              "coefficients") == [[0, 1, 1]]


def test_oracles_catch_a_wrong_row():
    argv = ["table", "--family", "stirling2", "--n-max", "3", "--format", "csv"]
    good = "coefficients\n1\n0;1\n0;1;1\n0;1;3;1\n"
    bad = good.replace("0;1;3;1", "0;1;4;1")
    assert oracles.check_requests([argv], lambda a: (0, good))["failures"] == {}
    assert oracles.check_requests([argv], lambda a: (0, bad))["failures"] == {
        "0": "row 3 disagrees with the oracle"}


def test_falling_factorial_rebuild():
    # x^2 = (x)_2 + (x)_1
    assert oracles.factorial_rebuild([0, 1, 1], rising=False) == [0, 0, 1]
    # x^2 = x^(2) - x^(1)
    assert oracles.factorial_rebuild([0, -1, 1], rising=True) == [0, 0, 1]
