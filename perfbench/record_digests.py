"""Record the output digest of every query-mix pass in digests.json.

Run from the root of a checkout whose outputs are known to be right (every
oracle passes), and only when the output bytes are meant to change or
``workloads.QUERY_MIXES`` grows:

    python3 perfbench/record_digests.py

The benchmark then fails a query-mix pass whose output differs by one byte
from the recorded pass of its mix.
"""

import json
import sys

import run


def main():
    digests = {}
    for seed in range(run.workloads.QUERY_MIXES):
        bench = run.Run("query-mix", seed, run.inputs_for("query-mix", seed))
        bench.prepare()
        if bench.reference is None or bench.failed:
            sys.exit(f"seed {seed}: {bench.notes}")
        digests[str(seed)] = run.pass_digest(bench.reference)
    with open(run.DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
