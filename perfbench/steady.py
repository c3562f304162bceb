"""Steadiness report: run the benchmark on several seeds per workload.

    python3 perfbench/steady.py

Each run is ``run.py --trace 0`` for ``run_seconds`` in its own process.
Every workload gets ``SETS`` sets of ``RUNS`` runs, seeds ``FIRST_SEED``
onwards.  For every end-to-end metric and workload it prints the median and
quartiles of each set of runs (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median.  A spread wider than the metric's bound in
BENCHMARK.json is marked UNRESOLVED, and a later set's median worse than
the first's by more than the bound is marked DRIFT; ``setup_s`` is judged
like every other metric.  It
also prints failed_frac, failed checks over attempted, per workload.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from harness import BENCH_DIR, ROOT

RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload, seed) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for workload in workloads:
        for k in range(SETS):
            for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
                r = run_once(workload, seed)
                results[workload][k].append(r)
                values = " ".join(f"{n}={m['value']:.6g}" for n, m in r["metrics"].items())
                print(f"run {workload} set {k} seed {seed} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {values}", flush=True)

    unresolved = drift = 0
    for workload, sets in results.items():
        print(f"\n== {workload}")
        attempted = sum(r["attempted"] for s in sets for r in s)
        failed = sum(r["failed"] for s in sets for r in s)
        print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for k, runs in enumerate(sets):
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                flags = []
                if sp > bound:
                    flags.append("UNRESOLVED")
                    unresolved += 1
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if worse > bound:
                        flags.append(f"DRIFT {worse:+.3f}")
                        drift += 1
                print(f"  {name:14s} set {k} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"spread {sp:.4f} (bound {bound}, {sp / bound:.2f} of it) {' '.join(flags)}")
    print(f"\nunresolved {unresolved}, drift {drift}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
