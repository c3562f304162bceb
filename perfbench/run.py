"""gsmon benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it measures the gsmon sources in ``src/`` next to this
directory and fails (exit 2, no result) when they are missing.  ``--seconds``
defaults to ``run_seconds`` of ``BENCHMARK.json``.

With ``--trace 0`` it runs passes over the workload's checks, in-process
through ``gsmon.cli.main``, until ``--seconds`` have gone by and at least
``MIN_PASSES`` passes are done; before each pass it sets up afresh, at least
``SETUP_REPEATS`` times in all.  It reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it runs exactly one untraced pass,
one pass under cProfile and one traced pass, and reports the per-layer
metrics; ``--seconds`` is not used.  Either way every outcome is checked
against its expected exit code, the paper's verdict and the digest recorded
at the seed commit, and the last line of stdout is the JSON result.

Seeds: use ``DEFAULT_SEED`` while working on a change and confirm a claim on
``CONFIRM_SEED``, which picks another input variant.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

import harness
from harness import BENCH_DIR, ROOT, BenchError
from tracer import Tracer
from workloads import WORKLOADS, variant_of

DEFAULT_SEED = 1
CONFIRM_SEED = 2
SETUP_REPEATS = 41
MIN_PASSES = 3  # a median over fewer passes moves with a single slow pass


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


class Tally:
    """Checks attempted and failed, and problems of the benchmark itself."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.attempted = 0
        self.failures = []
        self.broken = []

    def add(self, outcomes):
        for o in outcomes:
            self.attempted += 1
            why = harness.problem(o, self.digests.get(o.check.key, "<none recorded>"))
            if why:
                self.failures.append(f"{o.check.key}: {why}")


def setups_before_pass(done_setups, walls, remaining_s):
    """How many set-ups to time before the next pass.

    Set-ups are spread over the run like the passes, so that both sample
    the same stretch of host speed: at least one before every pass (the pass
    runs on the last), and ``SETUP_REPEATS`` shared among the passes still
    expected."""
    if not walls:
        return 1
    passes_left = max(MIN_PASSES - len(walls), math.ceil(remaining_s / walls[-1]), 1)
    return max(1, math.ceil((SETUP_REPEATS - done_setups) / passes_left))


def harrell_davis_median(values):
    """Harrell-Davis estimate of the median: the mean of the order
    statistics weighted by a Beta((n+1)/2, (n+1)/2) density.

    It averages the values near the middle, so that with a handful of checks
    the timing noise of the one check in the middle moves it less than it
    moves the plain median."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(t):
        u = t * (1 - t)
        return math.exp((a - 1) * math.log(u) - log_beta) if u > 0 else 0.0

    steps = 64  # Simpson's rule on each 1/n of [0, 1]
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def timed_run(workload, seed, seconds, workdir, tally):
    setups, walls, trial_rates, query_rates = [], [], [], []
    latencies = defaultdict(list)  # check key -> seconds, one per pass
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(setups_before_pass(len(setups), walls, deadline - time.perf_counter())):
            gc.collect()
            start = time.perf_counter()
            cli, checks = harness.setup(workload, seed, workdir)
            setups.append(time.perf_counter() - start)
        gc.collect()
        outcomes = harness.run_pass(cli, checks)
        tally.add(outcomes)
        wall = sum(o.seconds for o in outcomes)
        walls.append(wall)
        trial_rates.append(sum(harness.trials(o) for o in outcomes) / wall)
        query_rates.append(len(outcomes) / wall)
        for o in outcomes:
            latencies[o.check.key].append(o.seconds)
        if len(walls) >= MIN_PASSES and time.perf_counter() >= deadline:
            break

    # Latency of a check is its median over the passes; the percentiles are
    # taken over the checks, so that one slow pass moves no percentile.  The
    # two slowest checks set p95, and the interpolation between them already
    # averages two checks.
    per_check = [statistics.median(v) for v in latencies.values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(trial_rates),
        "queries_per_s": statistics.median(query_rates),
        "query_p50_ms": harrell_davis_median(per_check) * 1e3,
        "query_p95_ms": statistics.quantiles(per_check, n=20, method="inclusive")[18] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - len(tally.failures) / tally.attempted,
    }
    info = {"setups": len(setups), "passes": len(walls), "checks_per_pass": len(per_check),
            "latency_samples": sum(len(v) for v in latencies.values())}
    return metrics, info


def traced_run(workload, seed, workdir, tally):
    # Each pass starts from a fresh set-up, as the passes of a timed run do,
    # so that the untraced and the traced pass start from the same state.
    cli, checks = harness.setup(workload, seed, workdir)
    gc.collect()
    untraced = harness.run_pass(cli, checks)
    tally.add(untraced)

    profile = cProfile.Profile(builtins=False)  # the layers are Python functions
    cli, checks = harness.setup(workload, seed, workdir)
    gc.collect()
    profiled = harness.run_pass(cli, checks, call=profile.runcall)
    tally.add(profiled)

    tracer = Tracer()
    cli, checks = harness.setup(workload, seed, workdir)
    tracer.install()
    try:
        gc.collect()
        traced = harness.run_pass(cli, checks, after=tracer.flush)
    finally:
        tracer.uninstall()
    tally.add(traced)

    mismatches = tracer.compare_with_cprofile(profile)
    for (path, line, name), got, want in mismatches:
        tally.broken.append(
            f"tracer coverage: {name} ({path}:{line}) traced {got} calls, cProfile {want}")
    untraced_wall = sum(o.seconds for o in untraced)
    traced_wall = sum(o.seconds for o in traced)
    metrics = tracer.metrics()
    metrics.update({
        "trace.cprofile_mismatches": len(mismatches),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return metrics, {"passes": 3, "checks_per_pass": len(checks),
                     "cprofile_wall_s": sum(o.seconds for o in profiled)}


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # name -> unit of the metrics this run must report
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        harness.use_checkout_sources()
        tally = Tally(harness.expected_digests(args.workload, args.seed))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    meta = harness.run_metadata()
    meta.update(workload=args.workload, seed=args.seed, variant=variant_of(args.seed),
                trace=args.trace)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        if args.trace:
            metrics, info = traced_run(args.workload, args.seed, workdir, tally)
        else:
            metrics, info = timed_run(args.workload, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta.update(info, loadavg_end=list(os.getloadavg()))

    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for failure in tally.failures[:20] + tally.broken:
        print(f"FAILED {failure}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:45s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not tally.failures and not tally.broken,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
