"""Shared pieces of the benchmark: loading gsmon from the checkout, set-up,
running one pass of a workload in-process, and checking each outcome."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from workloads import WORKLOADS, Check, variant_of

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def use_checkout_sources():
    """Make `import gsmon` resolve to this checkout's src/, and nothing else."""
    if not (SRC / "gsmon" / "cli.py").is_file():
        raise BenchError(f"no gsmon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # Compile the sources on every import, so that set-up time does not
    # depend on bytecode caches left by earlier runs or by the environment.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(BENCH_DIR / ".work-no-pycache")
    # The program receives only the generated inputs and the --seed values.
    os.environ.pop("GSMON_SEED", None)


def fresh_import():
    """Drop every loaded gsmon module and import the CLI again."""
    for name in [m for m in sys.modules if m == "gsmon" or m.startswith("gsmon.")]:
        del sys.modules[name]
    cli = importlib.import_module("gsmon.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"gsmon imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: str):
    """Everything a pass needs and does not time: import, input generation,
    one instance and square per check, and the classification memo.

    Returns (cli module, checks)."""
    cli = fresh_import()
    monads = sys.modules["gsmon.monads"]
    squares = sys.modules["gsmon.squares"]
    checks = WORKLOADS[workload](seed, workdir)
    parser = cli.build_parser(0)
    for check in checks:
        args = parser.parse_args(check.argv)
        if getattr(args, "monad", None):
            inst = monads.get_instance(args.monad, bound=args.bound)
            if getattr(args, "square", None):
                sizes = [int(v) for v in args.sizes.split(",")]
                squares.build_square(args.square, inst, sizes)
    for monad_id in monads.ALL_MONAD_IDS:
        monads.classification_of(monads.get_instance(monad_id))
    return cli, checks


@dataclass
class Outcome:
    check: Check
    seconds: float
    exit_code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str] = None  # traceback of an uncaught exception


def run_pass(cli, checks, call: Optional[Callable] = None, after=None) -> list:
    """Run every check once through cli.main; time only the call itself.

    `call(main, argv)` replaces the plain call (used for cProfile), and
    `after()` runs after each check, outside the timed region."""
    outcomes = []
    for check in checks:
        argv = list(check.argv)
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = call(cli.main, argv) if call else cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = None
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
        if after:
            after()
        outcomes.append(Outcome(check, seconds, code, out.getvalue(), err.getvalue(), error))
    return outcomes


def digest(outcome: Outcome) -> str:
    """SHA-256 of the check's stdout, with the run-dependent kernel path
    replaced by a placeholder."""
    text = outcome.stdout
    if outcome.check.kernel_path:
        text = text.replace(json.dumps(outcome.check.kernel_path), '"<kernel>"')
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def problem(outcome: Outcome, expected_digest: Optional[str]) -> Optional[str]:
    """Why the outcome is wrong, or None when exit code, verdict and digest
    all match.  `expected_digest` None skips the digest comparison."""
    check = outcome.check
    if outcome.error:
        return "uncaught exception:\n" + outcome.error
    if outcome.exit_code != check.exit_code:
        return f"exit code {outcome.exit_code}, expected {check.exit_code}: {outcome.stderr.strip()}"
    if check.exit_code == 2:
        if not outcome.stderr.startswith("gsmon: error:"):
            return f"rejection without an error message: {outcome.stderr!r}"
    else:
        try:
            ok = check.verdict(json.loads(outcome.stdout))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable report ({exc!r})"
        if not ok:
            return "verdict differs from the paper's"
    if expected_digest is not None and digest(outcome) != expected_digest:
        return f"output digest {digest(outcome)} differs from the recorded {expected_digest}"
    return None


def trials(outcome: Outcome) -> int:
    """Decisions in one report: the `trials` of each randomized check, one
    for an exhaustive or direct check, one for a rejection."""
    try:
        return sum(max(1, c["trials"]) for c in json.loads(outcome.stdout)["checks"])
    except (ValueError, KeyError, TypeError):  # a rejection, or a broken report
        return 1


def expected_digests(workload: str, seed: int) -> dict:
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh)[workload][str(variant_of(seed))]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no recorded digests for {workload} seed {seed}: {exc!r}") from None


def _commit() -> str:
    """HEAD of the checkout if it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over src/gsmon/*.py: names the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gsmon").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_metadata() -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }
