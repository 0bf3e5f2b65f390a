"""One measured batch of a workload, in a fresh process.

``run.py`` starts this file once per batch with a JSON spec on standard
input and reads one JSON object from its standard output.  A fresh process
per batch means every batch pays the import, and no state the library
keeps in memory (a later cache, say) carries over from one batch to the
next, as it would not between two runs of ``umbralcalc verify all``.

Modes:

* ``setup``: import the library and build the workload's inputs; report
  the time taken.
* ``batch``: set up, then run the timed batch (one verify sweep, or one
  query-mix pass) untraced or traced.
* ``oracle``: re-run the query-mix requests that an independent oracle can
  check, outside any timing, and report the verdicts.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def calibrate() -> float:
    """Time a fixed loop of ``Fraction`` arithmetic that shares no code
    with the library.  The host's other tenants slow this process by up to
    2x for seconds at a time; the loop, run next to each operation,
    measures how fast the core is just then."""
    started = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - started


def _import_library(workload):
    """Import umbralcalc from the checkout's ``src`` and nowhere else."""
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, src)
    import umbralcalc

    if not os.path.realpath(umbralcalc.__file__).startswith(src + os.sep):
        raise SystemExit(f"umbralcalc was imported from {umbralcalc.__file__}, not {src}")
    if workload == "query-mix":
        import umbralcalc.cli  # noqa: F401


def _set_up(spec):
    """Library import plus one-time set-up; returns ((seconds, calibration
    before, calibration after), state)."""
    before = calibrate()
    started = time.perf_counter()
    _import_library(spec["workload"])
    if spec["workload"] == "query-mix":
        state = spec["inputs"]["requests"]
    else:
        from fractions import Fraction

        from umbralcalc.identities import SweepGrid

        grid = dict(spec["inputs"]["grid"])
        for axis in ("lambda_values", "mu_values"):
            grid[axis] = tuple(Fraction(v) for v in grid[axis])
        for axis in ("r_values", "k_values", "s_values"):
            grid[axis] = tuple(grid[axis])
        state = SweepGrid(**grid)
    elapsed = time.perf_counter() - started
    return (elapsed, before, calibrate()), state


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def _verify(grid, jobs, calibration):
    from umbralcalc import identities

    reports, latencies, cals, error = [], [], [calibration()], None
    previous = time.perf_counter()
    try:
        for report in identities.verify_all(grid, jobs=jobs):
            latencies.append(time.perf_counter() - previous)
            reports.append(report)
            cals.append(calibration())
            previous = time.perf_counter()
    except Exception as exc:  # a crashing verifier fails itself and the ones after it
        error = f"{type(exc).__name__}: {exc}"
    results = []
    for report in reports:
        out = report.to_jsonable()
        out.pop("elapsed_ms", None)
        results.append(out)
    if error is not None:
        results.append({"error": error})
    return results, latencies, cals, 0


def _query(requests, tracer, calibration):
    from umbralcalc import cli

    results, latencies, cals, output_bytes = [], [], [calibration()], 0
    for index, argv in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        buffer = io.StringIO()
        started = time.perf_counter()
        with redirect_stdout(buffer):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a crashing request is a failed operation
                code = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - started)
        cals.append(calibration())
        text = buffer.getvalue()
        output_bytes += len(text.encode())
        results.append({"code": code, "digest": hashlib.sha256(text.encode()).hexdigest()})
    return results, latencies, cals, output_bytes


def _batch(spec):
    setup_s, state = _set_up(spec)
    tracer, calibration = None, calibrate
    if spec["trace"]:
        from tracer import Tracer, instrument

        tracer = Tracer()
        # its own frame, so that no layer's self time holds the loop
        calibration = tracer.wrap(calibrate, "calibration", "bench.calibration")
    spent = []  # CPU time of the calibration loops, kept out of parent_cpu_s

    def calibrated(loop=calibration):
        started = time.process_time()
        seconds = loop()
        spent.append(time.process_time() - started)
        return seconds

    if spec["workload"] == "query-mix":
        run = functools.partial(_query, state, tracer, calibrated)
    else:
        run = functools.partial(_verify, state, spec["jobs"], calibrated)
    cpu_before = _cpu()
    if tracer is None:
        results, latencies, cals, output_bytes = run()
    else:
        with instrument(tracer):
            tracer.enter("bench", "bench.batch", True)
            try:
                results, latencies, cals, output_bytes = run()
            finally:
                tracer.exit()
    cpu_after = _cpu()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "cal_s": cals,
        "peak_rss_mb": max(own, children) / 1024.0,
        "parent_cpu_s": cpu_after[0] - cpu_before[0] - sum(spent),
        "children_cpu_s": cpu_after[1] - cpu_before[1],
        "output_bytes": output_bytes,
        "results": results,
    }
    if tracer is not None:
        out["trace"] = _trace_summary(tracer)
    return out


def _trace_summary(tracer):
    return {
        "layer_self_s": dict(tracer.layer_self),
        "calls": dict(tracer.calls),
        "seconds": dict(tracer.seconds),
        "counts": dict(tracer.counts),
        "distinct": {
            op: dict(Counter(name for name, _, _ in keys)) for op, keys in tracer.keys.items()
        },
        "spans": tracer.spans,
    }


def _oracle(spec):
    import oracles

    _import_library("query-mix")
    from umbralcalc import cli

    def call(argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # as in _query: the request fails
                code = f"{type(exc).__name__}: {exc}"
        return code, buffer.getvalue()

    return oracles.check_requests(spec["inputs"]["requests"], call)


def main():
    spec = json.load(sys.stdin)
    if spec["mode"] == "setup":
        out = {"setup_s": _set_up(spec)[0]}
    elif spec["mode"] == "batch":
        out = _batch(spec)
    else:
        out = _oracle(spec)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
