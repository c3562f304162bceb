"""Byte-for-byte golden outputs of seeded CLI runs and kernel encodings.

The files under ``tests/golden/`` were recorded from the code before the
per-monad text and JSON forms moved into the instance classes; they pin
every ``describe`` form and every JSON value form.  The ``pullback-writer-*``
files were recorded from the code before the cone loop and the search solver
became an index-and-join; they pin the first failing cone and its mediator
count.  The kernel path in a ``check ci`` report is replaced by
``<kernel>`` so the files do not depend on where the repository lives.  To
re-record them from the code on the path:
``PYTHONPATH=src:tests python -c "import test_golden; test_golden.record()"``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from gsmon.cli import main
from gsmon.jsonio import dump_json, kernel_from_json, kernel_to_json, load_json

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
KERNELS = ("measure", "F", "subset", "writer", "Id")

RUNS = {
    "classify-all": ("classify", "--all", "--seed", "42"),
    "pullback-P-111": (
        "check", "pullback", "--square", "assoc", "--monad", "P", "--sizes", "1,1,1",
        "--seed", "42",
    ),
    "pullback-M-222-random": (
        "check", "pullback", "--square", "assoc", "--monad", "M", "--sizes", "2,2,2",
        "--mode", "random", "--seed", "42",
    ),
    # The exhaustive cone loop: the first failing cone and its mediator count,
    # and a passing square; then the search solver of an enumerable square.
    "pullback-writer-AND-222": (
        "check", "pullback", "--square", "assoc", "--monad", "writer:AND",
        "--sizes", "2,2,2", "--seed", "42",
    ),
    "pullback-writer-Z2xZ2-222": (
        "check", "pullback", "--square", "assoc", "--monad", "writer:Z2xZ2",
        "--sizes", "2,2,2", "--seed", "42",
    ),
    "pullback-writer-Z2xZ2-222-random": (
        "check", "pullback", "--square", "assoc", "--monad", "writer:Z2xZ2",
        "--sizes", "2,2,2", "--mode", "random", "--trials", "500", "--seed", "42",
    ),
}
for _family in KERNELS:
    RUNS[f"ci-{_family}"] = ("check", "ci", "--kernel", f"<kernel:{_family}>",
                             "--partition", "X|Y", "--seed", "42")
# F is decided by factor search within the enumeration budget; bound 1 keeps
# the recorded search to 9 x 9 factor combinations per column.
RUNS["ci-F"] += ("--bound", "1", "--method", "exhaustive")
CI_RUNS = sorted(name for name in RUNS if name.startswith("ci-"))


def kernel_path(family: str) -> str:
    return os.path.join(GOLDEN, "kernels", f"{family}.json")


def run_cli(argv) -> tuple:
    """Exit code and stdout of one in-process CLI run, kernel path masked."""
    paths = {f"<kernel:{f}>": kernel_path(f) for f in KERNELS}
    argv = [paths.get(a, a) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    for path in paths.values():
        text = text.replace(json.dumps(path)[1:-1], "<kernel>")
    return code, text


def kernel_encodings() -> str:
    """The JSON encoding of each golden kernel after one decode."""
    return dump_json({
        family: kernel_to_json(kernel_from_json(load_json(kernel_path(family)), bound=1)[0])
        for family in KERNELS
    })


def record():
    """Write the golden files from the code that is imported."""
    for name, argv in RUNS.items():
        code, text = run_cli(argv)
        with open(os.path.join(GOLDEN, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(GOLDEN, "kernel-encodings.json"), "w", encoding="utf-8") as fh:
        fh.write(kernel_encodings())


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name):
    code, text = run_cli(RUNS[name])
    assert text == _golden(f"{name}.json")
    assert code == (0 if json.loads(text)["summary"] == "pass" else 1)


# Replays the named runs and prints {"optimize": level, name: [code, text]}.
REPLAY = """
import json, sys
import test_golden
out = {name: test_golden.run_cli(test_golden.RUNS[name]) for name in sys.argv[1:]}
out["optimize"] = sys.flags.optimize
json.dump(out, sys.stdout)
"""


def test_ci_runs_match_golden_under_optimize():
    """The certificate re-verification is control flow, not assert, so the
    CI runs give the same bytes under python -O."""
    import gsmon

    src = os.path.dirname(os.path.dirname(gsmon.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", REPLAY, *CI_RUNS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out.pop("optimize") == 1
    assert sorted(out) == CI_RUNS
    for name, (code, text) in out.items():
        assert text == _golden(f"{name}.json"), name
        assert code == (0 if json.loads(text)["summary"] == "pass" else 1)


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_ci_on_f_is_decided_above_bound_1(bound):
    argv = RUNS["ci-F"][:-4] + ("--bound", str(bound), "--method", "exhaustive")
    code, text = run_cli(argv)
    assert code == 0
    assert text == _golden("ci-F.json").replace("F(B=1)", f"F(B={bound})")


def test_ci_on_f_over_the_enumeration_budget_exits_2(capsys):
    argv = RUNS["ci-F"][:-4] + ("--method", "exhaustive")
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    assert "1185921 factor combinations" in capsys.readouterr().err


def test_kernel_encodings_match_golden():
    assert kernel_encodings() == _golden("kernel-encodings.json")
