"""Record the digest of every check's output, for every input variant.

    python3 perfbench/record.py

Writes ``expected.json``.  Run it only on a commit whose outputs are known
to be right (it was run at the seed commit): afterwards the benchmark counts
any byte of difference as a failed check.  It refuses to record when an exit
code or a verdict differs from what the paper predicts.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import harness
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    harness.use_checkout_sources()
    recorded = {}
    workdir = tempfile.mkdtemp(prefix=".work-", dir=harness.BENCH_DIR)
    try:
        for workload in WORKLOADS:
            recorded[workload] = {}
            for variant in range(VARIANTS):
                cli, checks = harness.setup(workload, variant, workdir)
                digests = {}
                for outcome in harness.run_pass(cli, checks):
                    why = harness.problem(outcome, None)
                    if why:
                        print(f"{workload} variant {variant} {outcome.check.key}: {why}",
                              file=sys.stderr)
                        return 1
                    digests[outcome.check.key] = harness.digest(outcome)
                recorded[workload][str(variant)] = digests
                print(f"{workload} variant {variant}: {len(digests)} checks", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = {"source_sha256": harness.source_digest(), "commit": harness.run_metadata()["commit"]}
    with open(harness.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"recorded_at": meta, **recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
