"""Counterexample reports of every verifier, locked against golden JSON.

Three library functions are patched to return slightly wrong values, so
every verifier finds counterexamples on a small grid.  Each verifier runs
at its degree floor, fail-fast and collect-all, serially and in a
two-worker process pool; the ``to_jsonable`` payloads must equal the lines
of ``data/counterexample_reports.jsonl`` byte for byte.  The pool forks
its workers, so they inherit the patched module.

Run this file as a script to re-record the golden lines, and only after a
change of the report format that is intended.
"""

import concurrent.futures
import functools
import json
import multiprocessing
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from umbralcalc import identities
from umbralcalc.identities import SPECS, VERIFIERS, SweepGrid, verify_all
from umbralcalc.polynomials import _common_denominator

GOLDEN = Path(__file__).resolve().parent / "data" / "counterexample_reports.jsonl"

GRID = SweepGrid(
    n_max=5,
    r_values=(-1, 2),
    k_values=(-2, 1),
    lambda_values=(Fraction(2), Fraction(-1, 3)),
    s_values=(0, 2),
    mu_values=(Fraction(3),),
)

CASES = [
    (identity, collect_all, jobs)
    for identity in SPECS
    for collect_all in (False, True)
    for jobs in (1, 2)
]


def _case_id(identity, collect_all, jobs):
    return f"{identity}-{'collect-all' if collect_all else 'fail-fast'}-jobs{jobs}"


def _inject_defects(patch):
    """Wrap three library functions, and make the process pool fork, with
    ``patch(owner, name, value)``.  The family expansions are planted
    with defects in the mixed family only."""
    polys = identities.family_polys
    numbers = identities.family_numbers
    instances = identities._basis_instances

    def bad_polys(family, n_max, *params):
        out = polys(family, n_max, *params)
        if family == "mixed-T" and params[0] == 2 and n_max >= 3:
            out[3] = out[3] + Fraction(1, 7)
        return out

    def bad_numbers(family, n_max, *params):
        out = numbers(family, n_max, *params)
        if family == "mixed-T" and params[1] == 1 and n_max >= 2:
            out[2] = out[2] + 1
        return out

    def bad_rows(closed_form, t_nums, values):
        rows = closed_form(t_nums, values)
        if len(rows) > 4:
            nums, den = rows[4]
            entries = [Fraction(c, den) for c in nums]
            entries[1] = entries[1] + Fraction(1, 3)
            # the lcm of the reduced denominators makes the pair canonical
            rows[4] = _common_denominator(entries)
        return rows

    def bad_instances(grid, n_top):
        return [
            instance._replace(closed_form=functools.partial(bad_rows, instance.closed_form))
            if instance.extra["basis"] in ("euler", "rising") else instance
            for instance in instances(grid, n_top)
        ]

    patch(identities, "family_polys", bad_polys)
    patch(identities, "family_numbers", bad_numbers)
    patch(identities, "_basis_instances", bad_instances)
    # the workers must inherit the patched module, whatever the default
    patch(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("fork"),
        ),
    )


def _payload(identity, collect_all, jobs) -> str:
    grid = replace(GRID, n_min=SPECS[identity].floor)
    report = VERIFIERS[identity](grid, collect_all=collect_all, jobs=jobs)
    return json.dumps(
        {"collect_all": collect_all, "jobs": jobs, "report": report.to_jsonable()}
    )


def _golden() -> dict:
    lines = GOLDEN.read_text().splitlines()
    return dict(zip(CASES, lines, strict=True))


@pytest.fixture
def defective(monkeypatch):
    _inject_defects(monkeypatch.setattr)


@pytest.mark.parametrize(
    "identity, collect_all, jobs", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_counterexample_report_matches_golden(defective, identity, collect_all, jobs):
    payload = _payload(identity, collect_all, jobs)
    assert json.loads(payload)["report"]["status"] == "fail"
    assert payload == _golden()[identity, collect_all, jobs]


def _pooled_and_serial(monkeypatch, grid, collect_all):
    monkeypatch.setattr(identities, "usable_cpus", lambda: 2)
    serial = [r.to_jsonable() for r in verify_all(grid, collect_all=collect_all, jobs=1)]
    pooled = [r.to_jsonable() for r in verify_all(grid, collect_all=collect_all, jobs=2)]
    assert [r["status"] for r in serial] == ["fail"] * len(SPECS)
    return pooled, serial


@pytest.mark.parametrize("collect_all", [False, True])
def test_one_pool_run_reports_as_the_serial_run(defective, monkeypatch, collect_all):
    # a fail-fast verifier's cancelled or still-running tasks must not reach
    # the next verifier's report in the pool they share
    pooled, serial = _pooled_and_serial(monkeypatch, GRID, collect_all)
    assert pooled == serial


@pytest.mark.parametrize("collect_all", [False, True])
def test_multi_point_chunks_report_as_the_serial_run(defective, monkeypatch, collect_all):
    # GRID's 8 points give two workers chunks of one point; a third lambda
    # gives 12 points and chunks of ceil(12 / 8) = 2, so a chunk stops or
    # goes on past a counterexample inside it, and counts its checks
    grid = replace(GRID, lambda_values=GRID.lambda_values + (Fraction(1, 2),))
    pooled, serial = _pooled_and_serial(monkeypatch, grid, collect_all)
    assert pooled == serial


if __name__ == "__main__":
    _inject_defects(setattr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_payload(*case) + "\n" for case in CASES))
