"""Seeded inputs of the benchmark workloads and the outputs they must give.

Nothing here imports umbralcalc: the worker starts its set-up clock before
the library import, and the library sees only the inputs built here.

verify-serial and verify-parallel share one grid per seed: degrees 0..12,
the default ``s``/``mu`` axes, two fixed ``r`` and ``k`` values and one
``lambda`` drawn from the seed.  query-mix is a fixed design of requests,
every command over every family or target at ``LEVELS`` degrees spread
over 2..36, in which a mix number draws the order, the formats and every
parameter value.  Seed ``s`` sends mix ``s mod QUERY_MIXES``: the output
digest of every mix is recorded in ``digests.json`` (by
``record_digests.py``), so every seed's pass is checked byte for byte.
Both designs hold the amount of work nearly constant across seeds, so the
run-to-run spread measures the program and not the draw.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("verify-serial", "verify-parallel", "query-mix")
PARALLEL_JOBS = 2

VERIFIERS = ("thm1-2", "thm3", "thm4", "thm5", "thm6", "bases", "foundations")
#: Smallest degree each identity is stated for (verify_all clamps to it).
MINIMUM_DEGREE = {"thm4": 2, "thm5": 1}
R_VALUES = (-1, 2)
K_VALUES = (-2, 1)
DEFAULT_S = (0, 1, 2, 3, 4)
DEFAULT_MU = ("-1", "3", "2/3")

FAMILIES = ("bernoulli", "euler", "frobenius-euler", "poly-bernoulli", "mixed-T", "stirling2")
TARGETS = ("bernoulli", "euler", "frobenius-euler", "falling", "rising")
FORMATS = ("json", "csv", "latex")
LEVELS = 12
TOP_DEGREE = 36
#: Number of distinct query-mix passes, each with a recorded output digest.
QUERY_MIXES = 40
COMBOS = (
    [("table", family) for family in FAMILIES]
    + [("eval", family) for family in FAMILIES if family != "stirling2"]
    + [("bases", target) for target in TARGETS]
)


def rational(rng) -> Fraction:
    """A nonzero rational p/q with 1 <= q <= 9 and |p| <= 12."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 9))


def lambda_value(rng) -> Fraction:
    """A lambda or mu = p/q with 2 <= |p|, q <= 9 in lowest terms (so never
    0 or 1).  Kernel cost grows with the size of p and q; one narrow band
    keeps it nearly the same for every seed."""
    while True:
        p, q = rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(2, 9)
        if Fraction(p, q).denominator == q:
            return Fraction(p, q)


def verify_grid(seed: int) -> dict:
    """SweepGrid keyword arguments for the verify workloads, JSON-ready.

    The seed draws lambda.  ``r`` and ``k`` stay at one negative and one
    positive value each: drawing them too moved the cost of a sweep by up
    to half between seeds, far more than the run-to-run spread a bound
    must cover.  lambda is negative, so that 1 - lambda = (q + |p|)/q stays
    in one size band; a lambda in (0, 1) makes it small and the sweep
    about 8% cheaper.
    """
    rng = random.Random(f"verify:{seed}")
    return {
        "n_min": 0,
        "n_max": 12,
        "r_values": list(R_VALUES),
        "k_values": list(K_VALUES),
        "lambda_values": [str(-abs(lambda_value(rng)))],
        "s_values": list(DEFAULT_S),
        "mu_values": list(DEFAULT_MU),
    }


def expected_checks(grid: dict) -> dict:
    """How many checks each verifier makes on ``grid``, counted from the
    verifiers' definitions: per (r, k, lambda) point and degree n, thm1-2
    and thm6 make two, thm3, thm4 and thm5 one, bases three per basis
    instance, and foundations seven plus the derivative rule when n >= 1."""
    points = len(grid["r_values"]) * len(grid["k_values"]) * len(grid["lambda_values"])
    instances = 2 * len(grid["s_values"]) + len(grid["s_values"]) * len(grid["mu_values"]) + 2
    per_degree = {"thm1-2": 2, "thm3": 1, "thm4": 1, "thm5": 1, "thm6": 2,
                  "bases": 3 * instances, "foundations": 8}
    out = {}
    for identity in VERIFIERS:
        lo = max(grid["n_min"], MINIMUM_DEGREE.get(identity, 0))
        degrees = max(0, grid["n_max"] - lo + 1)
        count = degrees * per_degree[identity]
        if identity == "foundations" and lo == 0 and degrees:
            count -= 1
        out[identity] = points * count
    return out


def query_mix_number(seed: int) -> int:
    return seed % QUERY_MIXES


def query_requests(seed: int) -> list:
    """The argv lists of the seed's query-mix pass, in the order they are sent.

    Combination j of command and family or target is sent at LEVELS
    degrees, the i-th being 2 + (TOP_DEGREE - 2) * (5 * i + j % 5) // (5 * LEVELS - 1),
    so that the degrees of a pass cover 2..TOP_DEGREE evenly and the latency
    percentiles do not sit in a gap between two degrees.  Each combination
    cycles through the same values of the format, ``s`` (0..4), ``r`` and
    ``k`` (-3..3), which the mix deals out to its degrees; lambda, mu and
    the evaluation point are drawn afresh for every request.
    """
    rng = random.Random(f"query-mix:{query_mix_number(seed)}")
    slots = 5 * LEVELS - 1
    requests = []
    for j, (command, name) in enumerate(COMBOS):
        dealt = []
        for values in (FORMATS, range(5), range(-3, 4), range(-3, 4)):
            column = [values[i % len(values)] for i in range(LEVELS)]
            rng.shuffle(column)
            dealt.append(column)
        for i, (fmt, s, r, k) in enumerate(zip(*dealt)):
            n = 2 + (TOP_DEGREE - 2) * (5 * i + j % 5) // slots
            requests.append(_request(rng, command, name, n, fmt, s, r, k))
    rng.shuffle(requests)
    return requests


def _request(rng, command, name, n, fmt, s, r, k) -> list:
    if command == "bases":
        argv = ["bases", "--target", name, "--n-max", str(n), "--r", str(r),
                "--k", str(k), f"--lambda={lambda_value(rng)}", "--format", fmt]
        if name in ("bernoulli", "euler", "frobenius-euler"):
            argv += ["--s", str(s)]
        if name == "frobenius-euler":
            argv.append(f"--mu={lambda_value(rng)}")
        return argv
    argv = [command, "--family", name]
    if name in ("bernoulli", "euler"):
        argv += ["--s", str(s)]
    if name in ("frobenius-euler", "mixed-T"):
        argv += ["--r", str(r)]
    if name in ("poly-bernoulli", "mixed-T"):
        argv += ["--k", str(k)]
    if name in ("frobenius-euler", "mixed-T"):
        argv.append(f"--lambda={lambda_value(rng)}")
    if command == "table":
        return argv + ["--n-max", str(n), "--format", fmt]
    return argv + ["--n", str(n), f"--at={rational(rng)}"]
