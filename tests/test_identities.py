import concurrent.futures
import functools
import inspect
import json
import multiprocessing
from contextlib import closing
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from umbralcalc import families, identities, polynomials, series, umbral
from umbralcalc.families import (
    family_numbers,
    family_polys,
    mixed_kernel,
    stirling2_triangle,
)
from umbralcalc.polynomials import Polynomial, _canonical_row, _common_denominator
from umbralcalc.umbral import (
    VerificationReport,
    connection_rows,
    monomial_expansion,
    solve_rows,
)
from umbralcalc.identities import (
    DEFAULT_GRID,
    SPECS,
    TARGETS,
    VERIFIERS,
    SweepGrid,
    _Stream,
    appell_pair,
    verify_all,
)

SMALL = SweepGrid(
    n_max=6,
    r_values=(-1, 0, 2),
    k_values=(-2, 0, 1),
    lambda_values=(Fraction(2), Fraction(-1), Fraction(1, 2)),
    s_values=(0, 2),
    mu_values=(Fraction(3),),
)


def _for(identity):
    grid = SMALL
    floor = SPECS[identity].floor
    if grid.n_min < floor:
        grid = replace(grid, n_min=floor)
    return grid


@pytest.mark.parametrize("identity", sorted(VERIFIERS))
def test_each_verifier_passes_on_small_grid(identity):
    report = VERIFIERS[identity](_for(identity))
    assert report.passed, report.counterexample
    assert report.checked > 0
    assert report.counterexample is None


def test_reports_are_deterministic():
    first = VERIFIERS["thm3"](_for("thm3"))
    second = VERIFIERS["thm3"](_for("thm3"))
    assert first.to_jsonable() == second.to_jsonable()


def test_report_json_shape():
    report = VERIFIERS["thm1-2"](replace(SMALL, n_max=3))
    payload = json.loads(json.dumps(report.to_jsonable()))
    assert payload["id"] == "thm1-2"
    assert payload["status"] == "pass"
    assert "counterexample" not in payload
    assert payload["grid"]["n_max"] == 3
    # a report holds no wall time, so its JSON is byte-deterministic
    assert "elapsed_ms" not in payload
    assert not hasattr(report, "elapsed_ms")


VACUOUS_GRID = {"n_min": 0, "n_max": 0, "r": [1], "k": [1], "lambda": ["2"]}


def _payloads():
    # report paths that no golden line covers: the vacuous pass of a
    # verifier whose degree floor lies above the grid
    grid = SweepGrid(
        n_max=0, r_values=(1,), k_values=(1,), lambda_values=(Fraction(2),),
        s_values=(0,), mu_values=(Fraction(3),),
    )
    reports = {report.identity: report for report in verify_all(grid)}
    return [reports["thm4"], reports["thm5"]]


def test_uncovered_report_payloads_are_pinned():
    assert [json.dumps(report.to_jsonable()) for report in _payloads()] == [
        json.dumps({"id": "thm4", "grid": VACUOUS_GRID, "status": "pass", "checked": 0}),
        json.dumps({"id": "thm5", "grid": VACUOUS_GRID, "status": "pass", "checked": 0}),
    ]


def test_full_verification_script_times_the_gaps_between_reports(
    verification_script, monkeypatch, capsys
):
    script = verification_script
    reports = [
        VerificationReport("one", {}, 3),
        VerificationReport("two", {}, 5, ({"n": 1},)),
    ]
    monkeypatch.setattr(script, "verify_all", lambda grid, collect_all, jobs: iter(reports))
    # start, one report, the other, then the TOTAL line
    monkeypatch.setattr(script, "perf_counter", iter([10.0, 11.5, 15.25, 16.0]).__next__)
    assert script.main(["--jobs", "1"]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["one", "pass", "checked=", "3", "1.50s"]
    assert rows[1].split() == ["two", "fail", "checked=", "5", "3.75s"]
    assert rows[2] == '  counterexample: {"n": 1}'
    assert rows[3].split() == ["TOTAL", "FAIL", "6.00s"]


def test_full_verification_script_defaults_to_the_usable_cpus(
    verification_script, monkeypatch
):
    script = verification_script
    seen = []
    monkeypatch.setattr(script, "usable_cpus", lambda: 3)
    monkeypatch.setattr(
        script, "verify_all", lambda grid, collect_all, jobs: seen.append(jobs) or iter(())
    )
    assert script.main([]) == 0
    assert seen == [3]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_full_verification_script_rejects_jobs_below_one(
    verification_script, monkeypatch, capsys, jobs
):
    script = verification_script
    monkeypatch.setattr(script, "verify_all", None)  # never reached
    with pytest.raises(SystemExit) as exit_info:
        script.main([f"--jobs={jobs}"])
    assert exit_info.value.code == 2
    assert "error: --jobs must be at least 1" in capsys.readouterr().err


def test_degree_floors_are_enforced():
    with pytest.raises(ValueError):
        VERIFIERS["thm4"](SMALL)  # n_min = 0 < 2
    with pytest.raises(ValueError):
        VERIFIERS["thm5"](SMALL)  # n_min = 0 < 1


def test_single_degree_grid_passes_trivially():
    grid = replace(
        SMALL, n_max=0, r_values=(1,), k_values=(2,), lambda_values=(Fraction(2),)
    )
    report = VERIFIERS["thm3"](grid)
    assert report.passed and report.checked == 1


def test_verify_all_clamps_and_orders():
    reports = list(verify_all(SMALL))
    assert [r.identity for r in reports] == list(VERIFIERS)
    assert all(r.passed for r in reports)
    thm4 = next(r for r in reports if r.identity == "thm4")
    assert thm4.grid["n_min"] == 2


def test_verify_all_vacuous_when_degrees_unreachable():
    grid = replace(
        SMALL, n_max=0, r_values=(1,), k_values=(1,), lambda_values=(Fraction(2),)
    )
    reports = {r.identity: r for r in verify_all(grid)}
    assert reports["thm4"].passed and reports["thm4"].checked == 0
    assert reports["thm5"].passed and reports["thm5"].checked == 0
    assert reports["thm1-2"].checked > 0


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(n_min=-1)
    with pytest.raises(ValueError):
        SweepGrid(n_min=5, n_max=4)
    with pytest.raises(ValueError):
        SweepGrid(lambda_values=(Fraction(1),))
    with pytest.raises(ValueError):
        SweepGrid(mu_values=(1,))
    with pytest.raises(ValueError):
        SweepGrid(r_values=())
    with pytest.raises(ValueError):
        SweepGrid(s_values=(-1,))


@pytest.mark.parametrize(
    "axis",
    [{"r_values": (1.5,)}, {"k_values": (2.0,)}, {"s_values": (1.0,)}, {"r_values": (True,)}],
)
def test_grid_rejects_non_integer_axes(axis):
    # these reached the verifiers and died there, or ran with r = True
    with pytest.raises(ValueError, match="must hold integers"):
        SweepGrid(**axis)


@pytest.mark.parametrize(
    "axis, repeated",
    [
        ({"r_values": (1, -1, 1)}, "1"),
        ({"k_values": [0, 0]}, "0"),
        ({"s_values": (2, 3, 2)}, "2"),
        ({"lambda_values": (Fraction(1, 2), Fraction(2, 4))}, "1/2"),
        ({"mu_values": (3, Fraction(6, 2))}, "3"),
    ],
)
def test_grid_rejects_repeated_axis_values(axis, repeated):
    # a repeated value checked each of its points twice and counted them
    # as evidence twice, including equal rationals written differently
    (name,) = axis
    with pytest.raises(ValueError, match=f"^{name} must hold distinct values; {repeated} repeats$"):
        SweepGrid(**axis)


@pytest.mark.parametrize("axis", [{"lambda_values": (0.1,)}, {"mu_values": (0.5,)}])
def test_grid_rejects_inexact_lambda_and_mu(axis):
    # a float used to be stored as its binary approximant
    with pytest.raises(TypeError, match="must be exact"):
        SweepGrid(**axis)


def test_grid_axes_given_as_lists_become_tuples():
    # the bases data is memoised on the grid, so a grid built from lists
    # must hash, and equal the grid built from tuples
    axes = {"r_values": [-1, 2], "k_values": [1], "s_values": [0, 1],
            "lambda_values": [2], "mu_values": [3]}
    from_lists = SweepGrid(n_max=3, **axes)
    from_tuples = SweepGrid(n_max=3, **{name: tuple(v) for name, v in axes.items()})
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    report = VERIFIERS["bases"](from_lists)
    assert report.passed and report == VERIFIERS["bases"](from_tuples)


def test_parallel_sweep_matches_sequential():
    grid = _for("bases")
    sequential = VERIFIERS["bases"](grid, jobs=1)
    parallel = VERIFIERS["bases"](grid, jobs=3)
    assert sequential.passed and parallel.passed
    assert sequential.checked == parallel.checked


# --- failure machinery, exercised through the shared sweep runner -----------

def _flaky_checks(r, k, lam, bad):
    # one check per point, failing at the points r listed in ``bad``
    yield r, "toy", 0, int(r in bad), {}


def _toy_plan(n_tasks, bad=(), identity="toy"):
    return identity, {"n_max": 7}, [(i, 0, 1, bad) for i in range(n_tasks)], _flaky_checks


def _toy_sweep(n_tasks, bad, collect_all, jobs):
    with closing(_Stream([_toy_plan(n_tasks, bad)], collect_all, jobs)) as stream:
        return stream.report("toy")


def test_sweep_fail_fast_reports_first_counterexample():
    report = _toy_sweep(8, (3, 5), False, 1)
    assert not report.passed
    assert report.counterexample["n"] == 3
    assert report.checked == 4  # stopped scanning after the first failure
    assert len(report.counterexamples) == 1


def test_sweep_collect_all_gathers_every_failure():
    report = _toy_sweep(8, (3, 5), True, 1)
    assert not report.passed
    assert report.counterexample["n"] == 3
    assert [f["n"] for f in report.counterexamples] == [3, 5]
    assert report.checked == 8
    payload = report.to_jsonable()
    assert payload["counterexample"]["n"] == 3
    assert len(payload["counterexamples"]) == 2


def test_sweep_parallel_first_counterexample_is_stable():
    report = _toy_sweep(8, (3, 5), False, 4)
    assert report.counterexample["n"] == 3


def _toy_checks(r, k, lam, ns, pulled):
    for n in ns:
        pulled.append(n)
        # a row of connection constants, [n/2, 3], as (numerators, denominator)
        lhs = ([n, 6], 2) if n == 1 else n
        yield n, "toy", lhs, (n + 1 if n in (1, 3) else n), {"basis": "toy"}


def test_run_checks_counts_records_and_stops_lazily():
    pulled = []
    task = (2, -1, Fraction(1, 2), range(5), pulled)
    # a chunk of two points: fail-fast computes nothing past the failure,
    # in its point or the next
    checked, failures = identities._run_checks(_toy_checks, False, [task, task])
    assert checked == 2 and pulled == [0, 1]
    assert failures == [
        {"r": 2, "k": -1, "lambda": "1/2", "n": 1, "basis": "toy",
         "check": "toy", "lhs": "[1/2, 3]", "rhs": "2"}
    ]
    assert list(failures[0]) == ["r", "k", "lambda", "n", "basis", "check", "lhs", "rhs"]
    pulled.clear()
    checked, failures = identities._run_checks(_toy_checks, True, [task, task])
    assert checked == 10 and pulled == [0, 1, 2, 3, 4] * 2
    assert [f["n"] for f in failures] == [1, 3, 1, 3]


class _LazyFuture:
    """A submitted chunk that runs in-process only when its result is read;
    ``state`` records whether it ran or was cancelled first."""

    def __init__(self, fn, chunk):
        self.fn, self.chunk, self.state = fn, chunk, "pending"

    def result(self):
        assert self.state == "pending"
        self.state = "done"
        return self.fn(self.chunk)

    def cancel(self):
        if self.state != "pending":
            return False
        self.state = "cancelled"
        return True


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the pool size, every
    chunk submitted, in order, and the shutdown."""

    instances = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.futures = []
        self.shutdown_calls = []
        _RecordingExecutor.instances.append(self)

    def submit(self, fn, chunk):
        self.futures.append(_LazyFuture(fn, chunk))
        return self.futures[-1]

    def states(self):
        return [future.state for future in self.futures]

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdown_calls.append(cancel_futures)


@pytest.fixture
def fake_pool(monkeypatch):
    _RecordingExecutor.instances.clear()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(identities, "usable_cpus", lambda: 4)
    return _RecordingExecutor.instances


@pytest.mark.parametrize(
    "jobs, n_tasks, expected",
    [(64, 8, 4), (3, 8, 3), (64, 2, 2), (8, 1, None), (1, 8, None)],
)
def test_sweep_pool_size_is_bounded(fake_pool, jobs, n_tasks, expected):
    report = _toy_sweep(n_tasks, (), False, jobs)
    assert report.passed and report.checked == n_tasks
    if expected is None:
        assert fake_pool == []  # one worker's worth of tasks runs in-process
    else:
        assert [pool.max_workers for pool in fake_pool] == [expected]


def test_sweep_fail_fast_cancels_queued_tasks(fake_pool):
    report = _toy_sweep(210, (3, 5), False, 64)
    assert report.counterexample["n"] == 3 and report.checked == 4
    (pool,) = fake_pool
    # four workers, chunks of ceil(210 / 16) = 14 points; none runs after
    # the failing one
    assert [len(future.chunk) for future in pool.futures] == [14] * 15
    assert pool.states() == ["done"] + ["cancelled"] * 14
    assert pool.shutdown_calls == [True]


def test_sweep_collect_all_drains_every_task(fake_pool):
    report = _toy_sweep(8, (3, 5), True, 2)
    assert [f["n"] for f in report.counterexamples] == [3, 5]
    (pool,) = fake_pool
    assert pool.states() == ["done"] * 8


def test_fail_fast_cancels_only_the_failing_verifiers_chunks(fake_pool):
    plans = [_toy_plan(40, (3,), "first"), _toy_plan(40, (), "second")]
    with closing(_Stream(plans, False, 2)) as stream:
        first, second = stream.report("first"), stream.report("second")
    assert first.counterexample["n"] == 3 and first.checked == 4
    assert second.passed and second.checked == 40
    (pool,) = fake_pool
    # two workers, chunks of ceil(40 / 8) = 5 points per verifier
    assert pool.states() == ["done"] + ["cancelled"] * 7 + ["done"] * 8


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    _RecordingExecutor.instances.clear()
    monkeypatch.setattr(identities.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(identities.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert identities.usable_cpus() == 1
    assert _toy_sweep(8, (), False, 4).checked == 8
    assert _RecordingExecutor.instances == []  # one usable CPU, no pool
    monkeypatch.delattr(identities.os, "sched_getaffinity")
    assert identities.usable_cpus() == 2


POOL_GRID = replace(SMALL, n_max=4, r_values=(-1, 2), lambda_values=(Fraction(2),))


def _verifier_of(future):
    """The verifier a submitted chunk belongs to, read from its task."""
    checks = future.fn.args[0]
    task = getattr(checks, "func", checks)
    return next(identity for identity, spec in SPECS.items() if spec.task is task)


def test_verify_all_opens_one_pool_for_every_verifier(fake_pool):
    reports = list(verify_all(POOL_GRID, jobs=2))
    assert [report.identity for report in reports] == list(SPECS)
    assert all(report.passed and report.checked for report in reports)  # thm4, thm5 clamped
    (pool,) = fake_pool
    assert pool.max_workers == 2
    # six points, two workers: six chunks of one point per verifier
    assert [_verifier_of(future) for future in pool.futures] == [
        identity for identity in SPECS for _ in range(6)
    ]
    assert pool.states() == ["done"] * 6 * len(SPECS)
    assert pool.shutdown_calls == [True]
    assert identities._RUN.due is None


def test_verify_all_submits_every_verifier_before_the_first_report(fake_pool):
    reports = verify_all(POOL_GRID, jobs=2)
    assert next(reports).identity == "thm1-2"
    (pool,) = fake_pool
    assert len(pool.futures) == 6 * len(SPECS)
    assert pool.states() == ["done"] * 6 + ["pending"] * 6 * (len(SPECS) - 1)
    reports.close()
    assert pool.shutdown_calls == [True]


def test_verify_all_reports_through_the_verifier_functions(fake_pool, monkeypatch):
    # each report comes from a call of the VERIFIERS entry, with the
    # clamped grid; a wrapped entry joins the run's chunks and starts none
    calls = []
    for identity, verifier in VERIFIERS.items():
        def wrapped(grid, collect_all=False, jobs=1, identity=identity, verifier=verifier):
            calls.append((identity, grid.n_min, collect_all, jobs))
            return verifier(grid, collect_all=collect_all, jobs=jobs)

        monkeypatch.setitem(VERIFIERS, identity, wrapped)
    reports = list(verify_all(POOL_GRID, jobs=2))
    assert all(report.passed for report in reports)
    assert calls == [
        (identity, spec.floor, False, 2) for identity, spec in SPECS.items()
    ]
    (pool,) = fake_pool
    assert pool.states() == ["done"] * 6 * len(SPECS)


def test_verify_all_stops_at_a_raising_verifier_function(fake_pool, monkeypatch):
    def broken(grid, collect_all=False, jobs=1):
        raise ZeroDivisionError("injected")

    monkeypatch.setitem(VERIFIERS, "thm3", broken)
    reports = verify_all(POOL_GRID, jobs=2)
    assert next(reports).identity == "thm1-2"
    with pytest.raises(ZeroDivisionError, match="injected"):
        next(reports)
    (pool,) = fake_pool
    assert pool.shutdown_calls == [True] and identities._RUN.due is None
    # thm3's chunks and those after it never ran
    assert pool.states() == ["done"] * 6 + ["pending"] * 6 * (len(SPECS) - 1)


def test_a_verifier_called_off_plan_runs_its_own_stream(fake_pool, monkeypatch):
    # inside verify_all, a call with another grid than the planned one
    # must not take the planned report
    thm3 = VERIFIERS["thm3"]
    other = replace(POOL_GRID, n_max=2)
    monkeypatch.setitem(VERIFIERS, "thm3", lambda grid, collect_all=False, jobs=1: thm3(other))
    reports = {report.identity: report for report in verify_all(POOL_GRID, jobs=2)}
    assert reports["thm3"] == thm3(other)
    assert reports["thm3"].checked == 6 * 3
    # one pool, the run's; the planned thm3 chunks are left to the shutdown
    (pool,) = fake_pool
    assert pool.states() == ["done"] * 6 + ["pending"] * 6 + ["done"] * 6 * (len(SPECS) - 2)


@pytest.mark.parametrize(
    "name, chunks",
    [("benchmark", [1] * 4), ("default", [27] * 7 + [21])],
    ids=["benchmark", "default"],
)
def test_chunks_follow_the_grid(fake_pool, monkeypatch, name, chunks):
    # ceil(points / (4 * workers)) consecutive points per chunk: the
    # benchmark grid's 4 points give 4 chunks of 1 at 2 workers, and the
    # default grid's 210 points 8 chunks of up to 27
    grid = SweepGrid(**_load_workloads().verify_grid(1)) if name == "benchmark" else DEFAULT_GRID
    monkeypatch.setattr(identities, "usable_cpus", lambda: 2)
    # count each chunk's points instead of checking them
    monkeypatch.setattr(
        identities, "_run_checks", lambda checks, collect_all, tasks: (len(tasks), [])
    )
    reports = list(verify_all(grid, jobs=2))
    (pool,) = fake_pool
    assert pool.max_workers == 2
    assert [len(future.chunk) for future in pool.futures] == chunks * len(SPECS)
    assert [report.checked for report in reports] == [sum(chunks)] * len(SPECS)


def test_direct_verifier_opens_and_shuts_its_own_pool(fake_pool):
    assert VERIFIERS["thm3"](POOL_GRID, jobs=2).passed
    (pool,) = fake_pool
    assert {_verifier_of(future) for future in pool.futures} == {"thm3"}
    assert pool.states() == ["done"] * 6 and pool.shutdown_calls == [True]


@pytest.mark.parametrize(
    "grid, jobs",
    [(POOL_GRID, 1), (replace(POOL_GRID, r_values=(2,), k_values=(1,)), 4)],
)
def test_verify_all_on_one_worker_opens_no_pool(fake_pool, grid, jobs):
    assert all(report.passed for report in verify_all(grid, jobs=jobs))
    assert fake_pool == []


@pytest.fixture
def forked_pool(monkeypatch):
    # two forked workers whatever the host, so the patched module reaches them
    monkeypatch.setattr(identities, "usable_cpus", lambda: 2)
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("fork"),
        ),
    )


def test_verify_all_leaves_no_process_running(forked_pool):
    assert all(report.passed for report in verify_all(POOL_GRID, jobs=2))
    assert multiprocessing.active_children() == []


def test_closed_verify_all_leaves_no_process_running(forked_pool):
    reports = verify_all(POOL_GRID, jobs=2)
    assert next(reports).identity == "thm1-2"
    reports.close()
    assert multiprocessing.active_children() == []
    assert identities._RUN.due is None


def test_raising_worker_leaves_no_process_running(forked_pool, monkeypatch):
    polys = identities.family_polys

    def broken(family, *args):
        if family == "mixed-T":
            raise ArithmeticError("planted")
        return polys(family, *args)

    monkeypatch.setattr(identities, "family_polys", broken)
    with pytest.raises(ArithmeticError, match="planted"):
        list(verify_all(POOL_GRID, jobs=2))
    assert multiprocessing.active_children() == []
    assert identities._RUN.due is None


def test_default_grid_matches_documented_sweep():
    assert DEFAULT_GRID.n_min == 0 and DEFAULT_GRID.n_max == 12
    assert DEFAULT_GRID.r_values == (-2, -1, 0, 1, 2, 3)
    assert DEFAULT_GRID.k_values == (-3, -2, -1, 0, 1, 2, 3)
    assert DEFAULT_GRID.s_values == (0, 1, 2, 3, 4)
    assert DEFAULT_GRID.lambda_values == (
        Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 5), Fraction(7),
    )
    assert DEFAULT_GRID.mu_values == (Fraction(-1), Fraction(3), Fraction(2, 3))


def _load_workloads():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_verifier_list_matches_the_table():
    # perfbench/workloads.py counts the checks each verifier must report
    # from its own copy of the ids and floors, and draws its requests from
    # its own copy of the family and target names; they must follow the
    # library's tables
    from umbralcalc import cli

    workloads = _load_workloads()
    assert workloads.VERIFIERS == tuple(SPECS)
    assert workloads.MINIMUM_DEGREE == {
        identity: spec.floor for identity, spec in SPECS.items() if spec.floor > 0
    }
    assert workloads.FAMILIES == cli.FAMILIES
    assert workloads.TARGETS == tuple(TARGETS)


def test_query_mix_output_matches_the_recorded_digest():
    # the benchmark fails a query-mix pass whose output differs by one byte
    # from perfbench/digests.json; replay mix 0 in-process and digest it
    # the way perfbench/run.pass_digest does, so a change to any table,
    # evaluation or connection constant the CLI prints fails here first
    import hashlib
    import io
    from contextlib import redirect_stdout
    from pathlib import Path

    from umbralcalc import cli

    lines = []
    for argv in _load_workloads().query_requests(0):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(list(argv))
        lines.append(f"{code} {hashlib.sha256(buffer.getvalue().encode()).hexdigest()}\n")
    digests = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
    recorded = json.loads(digests.read_text())["0"]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == recorded


@pytest.mark.parametrize(
    "n_min, n_max", [(0, 3), (1, 3), (0, 1)], ids=["from-0", "from-1", "thm4-vacuous"]
)
def test_check_counts_follow_the_benchmark_gate(n_min, n_max):
    # the benchmark fails a report whose count differs from the one its
    # workloads compute from the verifiers' definitions; a change to a
    # count must fail here first
    grid = {
        "n_min": n_min, "n_max": n_max, "r_values": [-1, 2], "k_values": [1],
        "lambda_values": ["-2/3"], "s_values": [0, 2], "mu_values": ["3"],
    }
    expected = _load_workloads().expected_checks(grid)
    reports = list(verify_all(SweepGrid(**grid)))
    assert [report.identity for report in reports] == list(expected)
    for report in reports:
        assert report.passed, report.counterexample
        assert report.checked == expected[report.identity], report.identity
    if n_max == 1:
        assert expected["thm4"] == 0


# --- the fraction-free summation side against a Fraction reference ----------

def fraction_summation_constants(basis_name, s, mu, n, t_nums, values, s2):
    """The closed-form connection constants with one `Fraction` operation
    per term, as the bases verifier computed them before it summed over the
    integers; ``t_nums`` and ``values`` are plain `Fraction` lists."""
    row = []
    if basis_name == "bernoulli":
        for m in range(n + 1):
            total = Fraction(0)
            for l in range(n - m + 1):
                total += (
                    Fraction(comb(n - m, l), comb(s + l, l))
                    * s2[l + s][s]
                    * t_nums[n - m - l]
                )
            row.append(comb(n, m) * total)
    elif basis_name == "euler":
        half = Fraction(1, 2**s)
        for m in range(n + 1):
            total = sum(comb(s, j) * values[n - m][j] for j in range(s + 1))
            row.append(half * comb(n, m) * total)
    elif basis_name == "frobenius-euler":
        scale = Fraction(1) / (1 - mu) ** s
        for m in range(n + 1):
            total = Fraction(0)
            for j in range(s + 1):
                total += comb(s, j) * (-mu) ** (s - j) * values[n - m][j]
            row.append(scale * comb(n, m) * total)
    else:
        signed = basis_name == "rising"
        for m in range(n + 1):
            total = Fraction(0)
            for l in range(n - m + 1):
                term = comb(n, l + m) * s2[l + m][m] * t_nums[n - m - l]
                if signed and l % 2:
                    term = -term
                total += term
            row.append(total)
    return row


def instance_params(instance):
    """(target name, s, mu) of a basis instance, read from the parameters
    its reports show."""
    extra = instance.extra
    mu = extra.get("mu")
    return extra["basis"], extra.get("s"), None if mu is None else Fraction(mu)


def polynomial_reconstruction(row, basis):
    rebuilt = Polynomial()
    for m, c in enumerate(row):
        if c:
            rebuilt = rebuilt + c * basis[m]
    return rebuilt


def rendered(row):
    """A canonical ``(numerators, denominator)`` row as `Fraction` values."""
    nums, den = row
    return [Fraction(c, den) for c in nums]


def assert_canonical(row):
    nums, den = row
    assert type(nums) is list and all(type(c) is int for c in nums)
    assert type(den) is int and den > 0
    assert gcd(den, *nums) == 1
    if not any(nums):
        assert den == 1


REFERENCE_N_TOP = 12
REFERENCE_S = (0, 1, 2, 3, 4)
# mu > 1, mu < 0 and a denominator q - p < 0
REFERENCE_MU = (Fraction(-1), Fraction(3), Fraction(2, 3), Fraction(9, 2))


@pytest.mark.parametrize(
    "r, k, lam", [(-2, -3, Fraction(1, 2)), (3, 3, Fraction(7)), (0, 0, Fraction(-3, 5))]
)
def test_integer_summation_matches_fraction_reference(r, k, lam):
    n_top, s_max = REFERENCE_N_TOP, max(REFERENCE_S)
    grid = SweepGrid(n_max=n_top, s_values=REFERENCE_S, mu_values=REFERENCE_MU)
    s2 = stirling2_triangle(n_top + s_max)
    t_polys = family_polys("mixed-T", n_top, r, k, lam)
    t_nums = family_numbers("mixed-T", n_top, r, k, lam)
    values = [[t(j) for j in range(s_max + 1)] for t in t_polys]
    int_nums = _common_denominator(t_nums)
    int_values = identities._integer_rows([_common_denominator(row) for row in values])
    zero_nums = ([0] * (n_top + 1), 7)
    zero_values = ([[0] * (s_max + 1) for _ in range(n_top + 1)], 5)
    seen = set()
    for instance in identities._basis_instances(grid, n_top):
        name, s, mu = instance_params(instance)
        seen.add((name, s, mu))
        basis = TARGETS[name].basis(s, mu, n_top)
        basis_rows, basis_den = instance.rows
        rows = instance.closed_form(int_nums, int_values)
        assert len(rows) == n_top + 1
        # euler and frobenius-euler sum the values T_j(i), the other
        # targets the numbers T_j
        reads_values = instance.closed_form(int_nums, zero_values) != rows
        assert reads_values == (name in ("euler", "frobenius-euler"))
        for n, row in enumerate(rows):
            expected = fraction_summation_constants(name, s, mu, n, t_nums, values, s2)
            assert_canonical(row)
            assert rendered(row) == expected, (name, s, mu, n)
            # the true row rebuilds T_n; a perturbed one any other combination
            perturbed = [c + Fraction(m + 1, 3) for m, c in enumerate(expected)]
            for trial in (row, _canonical_row(*_common_denominator(perturbed))):
                assert_canonical(trial)
                rebuilt = identities._reconstruct(trial, basis_rows, basis_den)
                assert rebuilt == polynomial_reconstruction(rendered(trial), basis)
            assert identities._reconstruct(row, basis_rows, basis_den) == t_polys[n]
        # the zero family gives the zero row: all zeros over 1
        zero_rows = instance.closed_form(zero_nums, zero_values)
        for n in (0, n_top):
            assert zero_rows[n] == ([0] * (n + 1), 1)
    assert {name for name, _, _ in seen} == set(TARGETS)
    assert {(s, mu) for name, s, mu in seen if name == "frobenius-euler"} == {
        (s, mu) for s in REFERENCE_S for mu in REFERENCE_MU
    }


@pytest.mark.parametrize("n_max", [0, 1, 12, 16])
def test_public_constants_render_the_integer_rows_of_bases(n_max):
    # bases compares the integer rows of every target at once; the CLI
    # renders the rows of one target as Fractions, which must be the same
    # constants, in every target and past the default degree for falling
    # and rising
    r, k, lam = 2, -3, Fraction(-3, 5)
    order = max(n_max, 1)
    source = appell_pair(mixed_kernel(r, k, lam, order))
    t_polys = family_polys("mixed-T", n_max, r, k, lam) + [Polynomial()]
    for s, mu in ((3, Fraction(9, 2)), (2, Fraction(2, 3))):
        targets = [target.pair(s, mu, order) for target in TARGETS.values()]
        by_target = connection_rows(source, targets, n_max)
        assert len(by_target) == len(TARGETS)
        for (name, spec), target, rows in zip(TARGETS.items(), targets, by_target):
            constants = [rendered(row) for row in connection_rows(source, [target], n_max)[0]]
            assert [rendered(row) for row in rows] == constants, name
            solved = solve_rows(t_polys, monomial_expansion(spec.basis(s, mu, n_max)))
            assert [rendered(row) for row in solved[:-1]] == constants, name
            assert solved[-1] == ([0], 1)
            for row in rows + solved:
                assert_canonical(row)


def _umbral_functions(module) -> set:
    """The names of the umbral functions that ``module`` imports."""
    return {
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == umbral.__name__
    }


def test_bases_integer_entries_are_public_umbral_names():
    # the benchmark's tracer wraps only the names in umbral.__all__; an
    # entry point bases calls under a private name would move its time
    # into the identities layer
    called = _umbral_functions(identities)
    assert {"connection_rows", "solve_rows"} <= called
    assert called <= set(umbral.__all__)


def test_every_public_umbral_function_is_read_by_a_verifier_or_command():
    # a public umbral routine that neither the verifiers nor the command
    # line import is checked only by its own tests and reaches no output
    from umbralcalc import cli

    public = {name for name in umbral.__all__ if inspect.isfunction(getattr(umbral, name))}
    assert public - _umbral_functions(identities) - _umbral_functions(cli) == set()


def _off_by_one(row):
    """A canonical row of constants with entry 1 raised by 1, which keeps
    it canonical."""
    nums, den = row
    return [nums[0], nums[1] + den, *nums[2:]], den


@pytest.mark.parametrize(
    "route, failing",
    [
        ("connection_rows", {"summation vs pairing constants"}),
        ("solve_rows", {"summation vs solved constants"}),
        ("_basis_instances", {"summation vs pairing constants",
                              "summation vs solved constants", "basis reconstruction"}),
    ],
)
def test_every_side_of_bases_takes_part_in_its_check(monkeypatch, route, failing):
    # a defect in one side's own route must fail the checks that read that
    # side and no other; a check that compared two other sides would miss it
    original = getattr(identities, route)
    n_bad = 3

    def bump(rows):
        return rows[:n_bad] + [_off_by_one(rows[n_bad])] + rows[n_bad + 1:]

    if route == "connection_rows":
        def perturbed(source, targets, n_max):
            return [bump(rows) for rows in original(source, targets, n_max)]
    elif route == "solve_rows":
        def perturbed(polys, expansion):
            return bump(original(polys, expansion))
    else:
        # the closed form of every instance, the summation side's own route
        def bumped(closed_form, t_nums, values):
            return bump(closed_form(t_nums, values))

        def perturbed(grid, n_top):
            return [
                instance._replace(closed_form=functools.partial(bumped, instance.closed_form))
                for instance in original(grid, n_top)
            ]

    monkeypatch.setattr(identities, route, perturbed)
    grid = replace(SMALL, n_max=4, r_values=(2,), k_values=(-2,))
    report = VERIFIERS["bases"](grid, collect_all=True)
    assert {c["check"] for c in report.counterexamples} == failing
    assert {c["n"] for c in report.counterexamples} == {n_bad}
    # every basis instance of every point fails each of those checks once
    instances = len(identities._basis_instances(grid, grid.n_max))
    points = len(grid.lambda_values)
    assert len(report.counterexamples) == len(failing) * instances * points


def test_bases_catches_an_odd_s_sign_defect_in_the_frobenius_euler_form(monkeypatch):
    # scaling by (p - q)^s instead of (q - p)^s flips the sign of every
    # Euler and Frobenius-Euler constant at odd s only, so a grid whose s
    # values are all even cannot see it
    original = identities._frobenius_euler_form

    def flipped(s, mu):
        form = original(s, mu)
        *args, scale = form.args
        return functools.partial(form.func, *args, (-1) ** s * scale)

    grid = replace(
        SMALL, n_max=3, r_values=(2,), k_values=(-2,), lambda_values=(Fraction(2),),
        s_values=(0, 1),
    )
    monkeypatch.setattr(identities, "_frobenius_euler_form", flipped)
    identities._basis_instances.cache_clear()
    try:
        report = VERIFIERS["bases"](grid, collect_all=True)
    finally:
        identities._basis_instances.cache_clear()
    assert {(c["basis"], c["s"], c["check"]) for c in report.counterexamples} == {
        (basis, 1, check)
        for basis in ("euler", "frobenius-euler")
        for check in ("summation vs pairing constants", "summation vs solved constants",
                      "basis reconstruction")
    }


def _raise_value_at_degree_3(original):
    # pairing(functional, p) and apply_operator(operator, p)
    return lambda first, p: original(first, p) + (1 if p.degree == 3 else 0)


def _raise_member_3(original):
    # sheffer_polynomials(pair, n_max), a list of members by degree
    def perturbed(pair, n_max):
        members = original(pair, n_max)
        members[3] = members[3] + 1
        return members

    return perturbed


def _raise_shifted_cubes(original):
    # _shifted_power_table(n_top)[j][l], the coefficients of (x - j)^l
    def perturbed(n_top):
        table = original(n_top)
        for powers in table:
            powers[3] = [powers[3][0] + 1, *powers[3][1:]]
        return table

    return perturbed


ROUTES = [
    ("pairing", _raise_value_at_degree_3, {("thm6", "pairing cross-check")}),
    ("sheffer_polynomials", _raise_member_3, {("foundations", "binomial expansion")}),
    ("apply_operator", _raise_value_at_degree_3, {("foundations", "operator action")}),
    ("_shifted_power_table", _raise_shifted_cubes,
     {("thm1-2", "triple-sum form"), ("foundations", "alternating-shift action")}),
]


@pytest.mark.parametrize("route, perturb, failing", ROUTES, ids=[route[0] for route in ROUTES])
def test_every_route_takes_part_in_the_checks_that_read_it(monkeypatch, route, perturb, failing):
    # a defect in one route at degree 3 must fail every check that reads
    # that route and no other: a check that never reads it proves nothing
    # about it, and one that reads it on both sides compares it with itself
    monkeypatch.setattr(identities, route, perturb(getattr(identities, route)))
    grid = replace(SMALL, n_max=4, r_values=(2,), k_values=(-2,), lambda_values=(Fraction(-3, 5),))
    reports = list(verify_all(grid, collect_all=True))
    found = {(report.identity, c["check"]) for report in reports for c in report.counterexamples}
    assert found == failing


@pytest.mark.parametrize(
    "module", [polynomials, series, families, umbral, identities], ids=lambda m: m.__name__
)
def test_every_name_in_all_resolves(module):
    # the benchmark's tracer reads every name in a library module's __all__
    # with getattr, so a name left there after its definition is gone
    # breaks every traced run
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# --- the integer alternating-shift sums against the Polynomial loops --------

def polynomial_shifted_power_table(n_top):
    table = []
    for j in range(n_top + 1):
        xj = Polynomial([-j, 1])
        row = [Polynomial([1])]
        for _ in range(n_top):
            row.append(row[-1] * xj)
        table.append(row)
    return table


def polynomial_triple_sum(n, h_nums, inv_weights, powers):
    """thm1-2's triple-sum form with one `Polynomial` operation per term,
    as the verifier computed it before it summed over the integers."""
    shifted = []
    for j in range(n + 1):
        acc = Polynomial()
        row = powers[j]
        for l in range(n + 1):
            c = comb(n, l) * h_nums[n - l]
            if c:
                acc = acc + c * row[l]
        shifted.append(acc)
    first = Polynomial()
    for m in range(n + 1):
        inner = Polynomial()
        for j in range(m + 1):
            term = comb(m, j) * shifted[j]
            inner = inner + (term if j % 2 == 0 else -term)
        first = first + inv_weights[m] * inner
    return first


def polynomial_alternating_shift(n, inv_weights, powers):
    """foundations' alternating-shift action, the same way."""
    alternating = Polynomial()
    for m in range(n + 1):
        inner = Polynomial()
        for j in range(m + 1):
            term = comb(m, j) * powers[j][n]
            inner = inner + (term if j % 2 == 0 else -term)
        alternating = alternating + inv_weights[m] * inner
    return alternating


def fraction_coefficient_form(n, h_nums, k):
    """thm1-2's coefficient form with one `Fraction` operation per term and
    the inner Stirling sum taken again at every degree, as the verifier
    computed it before it summed over the integers."""
    s2 = stirling2_triangle(n)
    coeffs = []
    for l in range(n + 1):
        total = Fraction(0)
        for j in range(l, n + 1):
            for m in range(n - j + 1):
                term = (
                    comb(n, j) * comb(j, l) * h_nums[j - l]
                    * factorial(m) * Fraction(m + 1) ** (-k) * s2[n - j][m]
                )
                total += term if (n - j - m) % 2 == 0 else -term
        coeffs.append(total)
    return Polynomial(coeffs)


def test_shifted_power_table_holds_integer_coefficients():
    table = identities._shifted_power_table(7)
    for row, reference in zip(table, polynomial_shifted_power_table(7)):
        assert [Polynomial(coeffs) for coeffs in row] == reference
        assert all(type(c) is int for coeffs in row for c in coeffs)


@pytest.mark.parametrize(
    "r, k, lam", [(-2, -3, Fraction(1, 2)), (3, 3, Fraction(7)), (0, 0, Fraction(-3, 5))]
)
def test_integer_alternating_shifts_match_polynomial_reference(r, k, lam):
    n_top = 12
    ns = tuple(range(n_top + 1))
    h_nums = family_numbers("frobenius-euler", n_top, r, lam)
    inv_weights = [Fraction(m + 1) ** (-k) for m in range(n_top + 1)]
    powers = polynomial_shifted_power_table(n_top)
    sides = {
        (n, check): (lhs, rhs)
        for task in (identities._closed_forms_task, identities._foundations_task)
        for n, check, lhs, rhs, _ in task(r, k, lam, ns)
    }
    for n in ns:
        triple, t_poly = sides[n, "triple-sum form"]
        assert triple == polynomial_triple_sum(n, h_nums, inv_weights, powers) == t_poly
        action, pb_poly = sides[n, "alternating-shift action"]
        assert action == polynomial_alternating_shift(n, inv_weights, powers) == pb_poly
        form, _ = sides[n, "coefficient form"]
        assert form == fraction_coefficient_form(n, h_nums, k) == t_poly
        action, _ = sides[n, "partition-sum action"]
        order_zero = [1] + [0] * n
        assert action == fraction_coefficient_form(n, order_zero, k) == pb_poly


# --- the integer recurrence and convolution sums against Polynomial loops ----

def polynomial_sums(r, k, lam, n_top):
    """The sides of thm3, thm4, thm5 and foundations' two convolutions that
    sum on integers, with one `Polynomial` operation per term, as the
    verifiers computed them before; keyed by (identity, n, check)."""
    X = Polynomial.monomial(1)
    t_rk = family_polys("mixed-T", n_top + 1, r, k, lam)
    t_up = family_polys("mixed-T", n_top, r + 1, k, lam)
    t_dn = family_polys("mixed-T", n_top + 1, r, k - 1, lam)
    bern = family_numbers("bernoulli", n_top + 1, 1)
    coef = Fraction(r) * lam / (1 - lam)
    sides = {}
    for n in range(n_top + 1):
        rhs = (X - r) * t_rk[n] - coef * t_up[n]
        acc = Polynomial()
        for l in range(n + 2):
            b = bern[l]
            if b:
                acc = acc + comb(n + 1, l) * b * (t_rk[n + 1 - l] - t_dn[n + 1 - l])
        sides["thm3", n, "step recurrence"] = rhs - acc / (n + 1)
    for n in range(2, n_top + 1):
        lhs = (n + 1) * t_rk[n] + n * ((Fraction(r) - Fraction(1, 2)) - X) * t_rk[n - 1]
        for l in range(n - 1):
            b = bern[n - l]
            if b:
                lhs = lhs + comb(n, l) * b * t_rk[l]
        rhs = -(Fraction(r) * lam * n / (1 - lam)) * t_up[n - 1]
        for l in range(n + 1):
            b = bern[n - l]
            if b:
                rhs = rhs + comb(n, l) * b * t_dn[l]
        sides["thm4", n, "derived recurrence"] = (lhs, rhs)
    h_polys = family_polys("frobenius-euler", n_top, r, lam)
    h_shift = [h.shift(-1) for h in h_polys]
    s2 = stirling2_triangle(n_top)
    for n in range(1, n_top + 1):
        rhs = (X - r) * t_rk[n - 1] - coef * t_up[n - 1]
        for l in range(n):
            d = n - 1 - l
            weight = sum(
                (-1) ** m * factorial(m + 1) * Fraction(m + 2) ** (-k) * s2[d][m]
                for m in range(d + 1)
            )
            term = comb(n - 1, l) * weight * h_shift[l]
            rhs = rhs + (term if d % 2 == 0 else -term)
        sides["thm5", n, "derivative expansion"] = rhs
    h_nums = family_numbers("frobenius-euler", n_top, r, lam)
    pb_polys = family_polys("poly-bernoulli", n_top, k)
    pb_nums = family_numbers("poly-bernoulli", n_top, k)
    for n in range(n_top + 1):
        conv_a = Polynomial()
        conv_b = Polynomial()
        for l in range(n + 1):
            conv_a = conv_a + comb(n, l) * h_nums[n - l] * pb_polys[l]
            conv_b = conv_b + comb(n, l) * pb_nums[l] * h_polys[n - l]
        sides["foundations", n, "number/polynomial convolution"] = conv_a
        sides["foundations", n, "polynomial/number convolution"] = conv_b
    return sides


@pytest.mark.parametrize(
    "r, k, lam",
    [(-2, -3, Fraction(1, 2)), (-1, -2, Fraction(7)), (3, 2, Fraction(-3, 5))],
)
def test_integer_recurrence_and_convolution_sums_match_polynomial_reference(r, k, lam):
    n_top = 12
    reference = polynomial_sums(r, k, lam, n_top)
    tasks = {"thm3": identities._step_recurrence_task,
             "thm4": identities._derived_recurrence_task,
             "thm5": identities._derivative_expansion_task,
             "foundations": identities._foundations_task}
    seen = set()
    for identity, task in tasks.items():
        ns = tuple(range(SPECS[identity].floor, n_top + 1))
        for n, check, lhs, rhs, _ in task(r, k, lam, ns):
            key = identity, n, check
            if key not in reference:
                continue
            seen.add(key)
            # the identity holds, so each integer side equals the other side too
            if identity == "thm4":
                assert (lhs, rhs) == reference[key], key
            else:
                assert lhs == reference[key], key
            assert lhs == rhs, key
    assert seen == set(reference)


#: The generating-function side of thm1-2 and foundations, as identities
#: reads it: the family expansions, the kernel builders and the Sheffer and
#: operator routes.
GENERATING_FUNCTION_ROUTES = (
    "family_polys", "family_numbers", "polys_from_kernel", "numbers_from_kernel",
    "bernoulli_kernel", "euler_kernel", "frobenius_euler_kernel", "poly_bernoulli_kernel",
    "mixed_kernel", "polylog_series", "exp_minus_one", "one_minus_exp_neg",
    "sheffer_polynomials", "apply_operator",
)


@pytest.mark.parametrize("r, k, lam", [(-2, -3, Fraction(1, 2)), (3, 2, Fraction(-3, 5))])
def test_shared_closed_forms_read_no_generating_function(monkeypatch, r, k, lam):
    # thm1-2 and foundations take their closed forms from one generator;
    # it must stay off the generating-function side they are compared
    # with, or each check would compare a computation with itself
    ns = tuple(range(9))
    checks = {
        identities._closed_forms_task: ("triple-sum form", "coefficient form"),
        identities._foundations_task: ("alternating-shift action", "partition-sum action"),
    }
    expected = {
        task: [(n, check, lhs) for n, check, lhs, _, _ in task(r, k, lam, ns) if check in names]
        for task, names in checks.items()
    }
    frobenius_euler = _common_denominator(family_numbers("frobenius-euler", max(ns), r, lam))
    order_zero = ([1] + [0] * max(ns), 1)

    def forbidden(*args, **kwargs):
        raise AssertionError("a closed form read the generating-function side")

    for name in GENERATING_FUNCTION_ROUTES:
        monkeypatch.setattr(identities, name, forbidden)
    for task in checks:
        with pytest.raises(AssertionError, match="generating-function side"):
            next(task(r, k, lam, ns))
    for task, h in ((identities._closed_forms_task, frobenius_euler),
                    (identities._foundations_task, order_zero)):
        drained = list(identities._closed_forms(h, k, ns, checks[task]))
        assert len(drained) == 2 * len(ns)
        assert drained == expected[task]


# --- foundations' binomial expansion reads the pairing-column route --------

@pytest.mark.parametrize("jobs", [1, 2])
def test_binomial_expansion_check_compares_two_computations(monkeypatch, jobs):
    # polys_from_kernel builds H_n by the binomial formula, so the check's
    # other side comes from Roman's coefficient formula (the pairing
    # columns of the Appell pair); break that route alone and the check
    # must report it
    route = identities.sheffer_polynomials

    def wrong_route(pair, n_max):
        out = route(pair, n_max)
        out[2] = out[2] + Fraction(1, 7)
        return out

    monkeypatch.setattr(identities, "sheffer_polynomials", wrong_route)
    # the pool workers must inherit the patched module
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("fork"),
        ),
    )
    grid = replace(SMALL, n_max=4)
    report = VERIFIERS["foundations"](grid, jobs=jobs)
    assert report.status == "fail"
    counterexample = report.counterexample
    assert counterexample["check"] == "binomial expansion"
    assert counterexample["n"] == 2
    assert counterexample["lhs"] != counterexample["rhs"]
    collected = VERIFIERS["foundations"](grid, collect_all=True, jobs=jobs)
    assert {c["check"] for c in collected.counterexamples} == {"binomial expansion"}
