#!/usr/bin/env python3
"""Write demo coefficient tables for every family (JSON lines plus a
LaTeX sheet per family) into an output directory."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from umbralcalc.cli import main as cli_main

DEMO = [
    ("bernoulli", ["--s", "2"]),
    ("euler", ["--s", "2"]),
    ("frobenius-euler", ["--r", "2", "--lambda", "-3/5"]),
    ("poly-bernoulli", ["--k", "-2"]),
    ("mixed-T", ["--r", "1", "--k", "2", "--lambda", "2"]),
    ("stirling2", []),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--out", default="tables")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    for family, params in DEMO:
        base = ["table", "--family", family, "--n-max", str(args.n_max), *params]
        for fmt in ("json", "latex"):
            path = os.path.join(args.out, f"{family}.{'jsonl' if fmt == 'json' else 'tex'}")
            code = cli_main([*base, "--format", fmt, "--output", path])
            if code:
                return code
            print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
