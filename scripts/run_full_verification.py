#!/usr/bin/env python3
"""Run every identity verifier on the default sweep grid and print a
summary table.  The seconds column is this script's own clock, read as
each report arrives: a row's time is the gap since the previous report.
Serially that is the verifier's sweep; with ``--jobs`` > 1 every
verifier's grid points go to one pool of worker processes at once, so
later verifiers already run during that gap and it is not the verifier's
own time.  The TOTAL line is the run's wall time either way.
Counterexamples, if any, are printed as JSON.  After the TOTAL line come
the hits and misses of each memoised kernel builder in this process; a
miss below the longest order built for the same parameters is served by
truncating that series, so not every miss is a build.  The pool workers
keep caches of their own for the whole run, which are not shown."""

import argparse
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from umbralcalc import families
from umbralcalc.identities import DEFAULT_GRID, usable_cpus, verify_all


def cache_lines() -> list:
    """One line per memoised builder of `umbralcalc.families`: the hits
    and misses of its cache in this process."""
    lines = []
    for name in families.__all__:
        info = getattr(getattr(families, name), "cache_info", None)
        if info is not None:
            stats = info()
            lines.append(f"  {name:24s} hits={stats.hits:6d} misses={stats.misses:6d}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=usable_cpus(),
                        help="grid parallelism degree (default: every usable CPU)")
    parser.add_argument("--collect-all", action="store_true")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    ok = True
    started = previous = perf_counter()
    for report in verify_all(DEFAULT_GRID, collect_all=args.collect_all, jobs=args.jobs):
        now = perf_counter()
        ok = ok and report.passed
        print(f"{report.identity:12s} {report.status:5s} "
              f"checked={report.checked:7d} {now - previous:8.2f}s")
        previous = now
        for failure in report.counterexamples:
            print("  counterexample:", json.dumps(failure))
    print(f"{'TOTAL':12s} {'pass' if ok else 'FAIL':5s} "
          f"{'':16s}{perf_counter() - started:8.2f}s")
    print("kernel caches of this process (pool workers keep theirs for the run, not shown):")
    print("\n".join(cache_lines()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
