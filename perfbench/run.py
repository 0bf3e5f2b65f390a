"""The umbralcalc benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-serial --seed 1 --seconds 20 --trace 0

Workloads (inputs come from ``--seed``; see ``workloads.py``):

* ``verify-serial``: ``verify_all(grid, jobs=1)`` on a seeded reduced grid,
  the north-star job; every layer runs, with heavy reuse of kernels.
* ``verify-parallel``: the same grid with ``jobs=2``, the only workload that
  goes through the process pool of ``identities._sweep``.
* ``query-mix``: one client in a closed loop calling ``cli.main(argv)``
  in-process with a seeded mix of table/eval/bases requests of degree
  2..36; one kernel build per request and almost no reuse.

Each batch (one sweep, or one pass over the requests) runs in a fresh
worker process, and batches repeat until ``--seconds`` have passed.  An
operation is one verifier report of a sweep, or one request of a pass.

With ``--trace 0`` the command prints the end-to-end metrics of
BENCHMARK.json.  The host's other tenants slow this process by up to 2x
for seconds to minutes at a time, which no median over one run removes.
So the worker times a fixed calibration loop before and after every
operation, and each operation's time is scaled to the speed at which that
loop takes CAL_REF_S (``scaled``): seconds on a quiet core of the host the
benchmark was tuned on.  An operation's time is the median of its scaled
times over the run's batches; ``wall_s`` is the sum of these over one
batch, and ``latency_p50_ms``/``latency_p90_ms`` are their percentiles.
``setup_s`` is the median scaled time to import the library and build the
inputs in a fresh process, and ``peak_rss_mb`` the median peak resident
set of a batch process (or of its largest pool child).  With
``--trace 1`` it alternates untraced and traced batches and prints the
per-layer metrics of the traced batch with the median ``trace.wall_s``.
That is the batch's time outside the calibration loop, scaled by the
batch's mean calibration like every other time of that batch, and its
layer self times add up to it; ``trace.overhead_s`` is it minus the
untraced ``wall_s``.  The batch's spans go to ``perfbench/out/``.

Every output is checked: each report passes with the check count the grid
implies, reports repeat exactly across batches and between serial and
parallel runs, query-mix requests exit 0 with the output digest recorded
for the seed's mix, and independent oracles check the rows they apply to.
An operation that fails, raises or crashes its process counts in
``failed``; if no batch runs every operation, the metrics are null.  The
last line of standard output is the JSON result.  Exit status 2 means bad
arguments, 1 that the command was not run from an umbralcalc checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5
MIN_BATCHES = 3
WORKER_TIMEOUT_S = 150
#: Time of the worker's calibration loop on a quiet core of the host the
#: benchmark was tuned on (2-vCPU Intel Xeon at 2.0 GHz, Python 3.11.7).
CAL_REF_S = 0.0048


def spawn(spec: dict) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    try:
        proc = subprocess.run(
            [sys.executable, WORKER], input=json.dumps(spec), capture_output=True,
            text=True, env=env, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                else f"worker exit code {proc.returncode}"}
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks: each returns the set of failed operation indices of a batch

def check_reports(results, expected, reference) -> set:
    failed = set()
    ids = [r.get("id") for r in results]
    for index, identity in enumerate(workloads.VERIFIERS):
        if identity not in ids:
            failed.add(index)
            continue
        report = results[ids.index(identity)]
        if (report.get("status") != "pass" or report.get("checked") != expected[identity]
                or (reference is not None and reference[index] != report)):
            failed.add(index)
    return failed


def pass_digest(results) -> str:
    text = "".join(f"{r['code']} {r['digest']}\n" for r in results)
    return hashlib.sha256(text.encode()).hexdigest()


def check_requests(results, reference, recorded) -> set:
    if recorded is not None and pass_digest(results) != recorded:
        return set(range(len(results)))
    failed = {i for i, r in enumerate(results) if r["code"] != 0}
    if reference is not None:
        failed |= {i for i, (a, b) in enumerate(zip(results, reference)) if a != b}
    return failed


def check_oracles(verdict, results) -> set:
    failed = {int(i) for i in verdict["failures"]}
    failed |= {int(i) for i, digest in verdict["checked"].items()
               if results[int(i)]["digest"] != digest}
    return failed


# ---------------------------------------------------------------------------

def inputs_for(workload: str, seed: int) -> dict:
    if workload == "query-mix":
        return {"requests": workloads.query_requests(seed)}
    return {"grid": workloads.verify_grid(seed)}


def recorded_digest(workload: str, seed: int, inputs: dict):
    """The recorded output digest of the seed's query-mix pass; None for
    inputs that are not a seed's (the tests' tiny runs)."""
    if workload != "query-mix" or inputs != inputs_for(workload, seed):
        return None
    with open(DIGESTS) as handle:
        return json.load(handle)[str(workloads.query_mix_number(seed))]


class Run:
    """Batches of one workload and the failures found in them."""

    def __init__(self, workload, seed, inputs, recorded=None):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.jobs = workloads.PARALLEL_JOBS if workload == "verify-parallel" else 1
        self.ops = len(workloads.VERIFIERS) if workload != "query-mix" else len(inputs["requests"])
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.reference = None
        self.verdict = None
        self.recorded = recorded
        if workload != "query-mix":
            self.expected = workloads.expected_checks(inputs["grid"])

    def spec(self, mode, trace=False, jobs=None):
        return {"mode": mode, "workload": self.workload, "inputs": self.inputs,
                "trace": trace, "jobs": self.jobs if jobs is None else jobs}

    def account(self, failed: set, what: str, ops=None):
        ops = self.ops if ops is None else ops
        self.attempted += ops
        self.failed += len(failed)
        if failed:
            self.notes.append(f"{what}: {len(failed)} of {ops} operations failed")

    def batch(self, trace=False, jobs=None, what="batch") -> dict | None:
        """One checked batch; None if it did not run every operation, so
        that only whole batches are timed."""
        out = spawn(self.spec("batch", trace, jobs))
        if "error" in out:
            self.account(set(range(self.ops)), f"{what} ({out['error']})")
            return None
        results = out["results"]
        errors = [r["error"] for r in results if "error" in r]
        if self.workload == "query-mix":
            failed = check_requests(results, self.reference, self.recorded)
            if self.verdict is not None:
                failed |= check_oracles(self.verdict, results)
        else:
            failed = check_reports(results, self.expected, self.reference)
        if self.reference is None and not errors:
            self.reference = results
        self.account(failed, what + "".join(f" ({e})" for e in errors))
        return out if len(out["latencies_s"]) == self.ops else None

    def prepare(self):
        """Untimed work before the measured batches: the serial reference
        for verify-parallel, the oracle checks for query-mix."""
        if self.workload == "verify-parallel":
            self.batch(jobs=1, what="serial reference")
        elif self.workload == "query-mix":
            verdict = spawn(self.spec("oracle"))
            if "error" in verdict:
                self.account(set(range(self.ops)), f"oracle pass ({verdict['error']})")
                return
            self.verdict = verdict
            self.notes.append(f"oracles checked {len(verdict['checked'])} requests")
            if verdict["failures"]:
                self.notes.append(f"oracles: {verdict['failures']}")
            self.batch(what="first pass")
            if not verdict["sympy"]:
                self.notes.append("sympy did not import: order-1 Bernoulli/Euler rows unchecked")
            if self.recorded is None:
                self.notes.append("inputs of no seed: passes checked against each other")

    def setup_samples(self) -> list:
        """Set-up times of fresh processes; a set-up that fails counts as
        one failed operation."""
        samples = []
        for _ in range(SETUP_PROBES):
            out = spawn(self.spec("setup"))
            if "error" in out:
                self.account({0}, f"set-up ({out['error']})", ops=1)
            else:
                samples.append(out["setup_s"])
        return samples


def scaled(seconds, cal_before, cal_after):
    """``seconds`` at the speed the calibration loop runs at CAL_REF_S."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2)


def typical(batches) -> list:
    """Each operation's median scaled time over the batches."""
    per_batch = [
        [scaled(t, b["cal_s"][i], b["cal_s"][i + 1]) for i, t in enumerate(b["latencies_s"])]
        for b in batches
    ]
    return [statistics.median(times) for times in zip(*per_batch)]


def end_to_end(batches, setup) -> dict:
    latencies = typical(batches)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(scaled(*s) for s in setup + [b["setup_s"] for b in batches]),
        "wall_s": sum(latencies),
        "latency_p50_ms": 1000 * deciles[4],
        "latency_p90_ms": 1000 * deciles[8],
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }


def batch_scale(batch) -> float:
    """Factor that scales a batch's times to the speed at which the
    calibration loop takes CAL_REF_S, from its mean over the batch."""
    return CAL_REF_S / statistics.mean(batch["cal_s"])


def traced_wall(batch) -> float:
    """Scaled duration of a traced batch without its calibration frames:
    the sum of its layer self times."""
    self_s = batch["trace"]["layer_self_s"]
    return batch_scale(batch) * sum(self_s.get(layer, 0.0) for layer in LAYERS)


def per_layer(batch, untraced_wall_s) -> dict:
    """Per-layer metrics of one traced batch; every time is scaled as
    the end-to-end times are."""
    trace, scale = batch["trace"], batch_scale(batch)
    calls, counts, distinct = trace["calls"], trace["counts"], trace["distinct"]
    seconds = {op: scale * t for op, t in trace["seconds"].items()}
    out = {f"{layer}.self_s": scale * trace["layer_self_s"].get(layer, 0.0) for layer in LAYERS}
    for op in ("polynomials.mul", "polynomials.add", "polynomials.eval", "series.mul",
               "series.invert", "series.compose", "series.pow", "families.kernel",
               "families.expand", "families.stirling2", "umbral.connection_constants",
               "umbral.expand_in_basis", "umbral.pairing", "umbral.apply_operator"):
        out[f"{op}.calls"] = calls.get(op, 0)
        out[f"{op}.s"] = seconds.get(op, 0.0)
    for op in ("polynomials.mul", "series.mul"):
        out[f"{op}.coeff_products"] = counts.get(f"{op}.coeff_products", 0)
    for op in ("families.kernel", "families.stirling2"):
        out[f"{op}.distinct"] = sum(distinct.get(op, {}).values())
    for builder in ("frobenius_euler", "poly_bernoulli"):
        name = f"{builder}_kernel"
        out[f"families.kernel.{builder}.calls"] = counts.get(f"families.kernel.{name}.calls", 0)
        out[f"families.kernel.{builder}.distinct"] = distinct.get("families.kernel", {}).get(name, 0)
    for identity in workloads.VERIFIERS:
        out[f"identities.{identity}.s"] = seconds.get(f"identities.{identity}", 0.0)
        out[f"identities.{identity}.checks"] = counts.get(f"identities.{identity}.checks", 0)
    for command in ("table", "eval", "bases"):
        out[f"cli.{command}.s"] = seconds.get(f"cli.{command}", 0.0)
    out["identities.pool.parent_cpu_s"] = scale * batch["parent_cpu_s"]
    out["identities.pool.children_cpu_s"] = scale * batch["children_cpu_s"]
    out["cli.output_bytes"] = batch["output_bytes"]
    out["trace.wall_s"] = traced_wall(batch)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall_s
    return out


def _trace_counts(batch) -> dict:
    trace = batch["trace"]
    return {key: trace[key] for key in ("calls", "counts", "distinct")}


def measure(run: Run, seconds: int, trace: bool):
    """Timed batches until ``seconds`` have passed; returns the metrics,
    None if no batch ran every operation, and sample counts."""
    setup = run.setup_samples()
    plain, traced = [], []
    started = time.perf_counter()
    attempts = 0
    while attempts < MIN_BATCHES or time.perf_counter() - started < seconds:
        attempts += 1
        out = run.batch()
        if out is not None:
            plain.append(out)
        if trace:
            out = run.batch(trace=True, what="traced batch")
            if out is not None:
                traced.append(out)
    info = {"batches": len(plain), "setup_samples": len(setup) + len(plain),
            "operations": sum(len(b["latencies_s"]) for b in plain)}
    if not plain or (trace and not traced):
        return None, info
    metrics = end_to_end(plain, setup)
    if not trace:
        return metrics, info
    counts = [_trace_counts(b) for b in traced]
    if any(c != counts[0] for c in counts):
        run.failed += 1
        run.notes.append("trace counts differ between traced batches of one seed")
    middle = sorted(traced, key=traced_wall)[(len(traced) - 1) // 2]
    info["traced_batches"] = len(traced)
    info["spans"] = write_spans(run, middle["trace"]["spans"])
    return per_layer(middle, metrics["wall_s"]), info


def write_spans(run: Run, spans: list) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{run.workload}-seed{run.seed}.jsonl")
    origin = min(span["start"] for span in spans)
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(dict(span, start=span["start"] - origin,
                                         end=span["end"] - origin)) + "\n")
    return os.path.relpath(path)


def provenance(args, run: Run) -> dict:
    sha = "unknown"
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    params = ({"requests": len(run.inputs["requests"]),
               "mix": workloads.query_mix_number(args.seed), "recorded_digest": run.recorded}
              if run.workload == "query-mix" else {"grid": run.inputs["grid"], "jobs": run.jobs})
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": run.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "params": params}


def load_metric_spec(trace: bool) -> list:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="umbralcalc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "verify-parallel" and workloads.PARALLEL_JOBS > (os.cpu_count() or 1):
        parser.error(f"verify-parallel needs {workloads.PARALLEL_JOBS} cores, "
                     f"this machine has {os.cpu_count()}")
    return args


def main(argv=None, inputs=None) -> int:
    """Run one workload; ``inputs`` replaces the seeded inputs (tests use
    it for tiny runs)."""
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "umbralcalc", "__init__.py")):
        print("error: run from the root of an umbralcalc checkout (no src/umbralcalc)",
              file=sys.stderr)
        return 1
    wanted = load_metric_spec(bool(args.trace))
    inputs = inputs or inputs_for(args.workload, args.seed)
    run = Run(args.workload, args.seed, inputs,
              recorded_digest(args.workload, args.seed, inputs))
    run.prepare()
    metrics, info = measure(run, args.seconds, bool(args.trace))
    if metrics is None:
        # the library failed every batch: report it, with nothing measured
        run.notes.append("no batch ran every operation, so nothing was timed")
        metrics = {item["name"]: None for item in wanted}
    ratio = run.failed / run.attempted
    for item in wanted:
        value = metrics[item["name"]]
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"{item['name']:<36} {shown:>16} {item['unit']}")
    print(f"{'failed_ratio':<36} {ratio:>16.6f} ratio ({run.failed} of {run.attempted})")
    print(f"{'samples':<36} {json.dumps(info)}")
    for note in run.notes:
        print(f"note: {note}")
    print(json.dumps({"provenance": provenance(args, run)}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {item["name"]: {"value": metrics[item["name"]], "unit": item["unit"]}
                    for item in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
