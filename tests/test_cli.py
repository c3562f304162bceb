import json
import os
import subprocess
import sys

import pytest

import gsmon
from gsmon.cli import main
from gsmon.jsonio import dump_json, kernel_from_json


KERNEL_CI = {
    "monad": "M*",
    "dom": {"name": "A", "elements": ["a0"]},
    "cod": {
        "factors": [
            {"name": "X", "elements": ["x0", "x1"]},
            {"name": "Y", "elements": ["y0", "y1"]},
        ]
    },
    "columns": {"a0": {"entries": {"x0,y0": "1", "x0,y1": "1", "x1,y0": "2", "x1,y1": "2"}}},
}

KERNEL_NOT_CI = {
    "monad": "M*",
    "dom": {"name": "A", "elements": ["a0"]},
    "cod": {
        "factors": [
            {"name": "X", "elements": ["x0", "x1"]},
            {"name": "Y", "elements": ["y0", "y1"]},
        ]
    },
    "columns": {"a0": {"entries": {"x0,y0": "1", "x1,y1": "1"}}},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_classify_all(capsys):
    code, doc = run_json(capsys, "classify", "--all")
    assert code == 0
    kinds = {c["name"]: c["kind"] for c in doc["checks"]}
    assert kinds["classify[D]"] == "affine"
    assert kinds["classify[M*]"] == "weakly_affine_not_affine"
    assert kinds["classify[M]"] == "not_weakly_affine"
    assert kinds["classify[P*]"] == "affine"
    assert kinds["classify[writer:AND]"] == "not_weakly_affine"
    assert doc["summary"] == "pass"


def test_classify_single_monad(capsys):
    code, doc = run_json(capsys, "classify", "--monad", "M*")
    assert code == 0
    assert doc["checks"][0]["kind"] == "weakly_affine_not_affine"


def test_classify_f_with_bound_1_finds_the_zero_witness(capsys):
    code, doc = run_json(capsys, "classify", "--monad", "F", "--bound", "1")
    assert code == 0
    assert doc["checks"][0]["kind"] == "not_weakly_affine"
    assert doc["checks"][0]["witness"] == "F(B=1){zero}"


def test_classify_unknown_monad_exits_2(capsys):
    assert main(["classify", "--monad", "bogus"]) == 2


@pytest.mark.parametrize("monad_id", ["F(B=banana", "F(B=0)", "F(B=-1)", "F(B=03)", "F(x)"])
def test_malformed_f_id_exits_2(capsys, monad_id):
    assert main(["classify", "--monad", monad_id]) == 2
    assert "unknown monad id" in capsys.readouterr().err


AND_AS_Z2 = '{"elements":["0","1"],"name":"Z2","table":[[0,0],[0,1]],"unit":1}'


def test_classify_a_writer_over_a_spelled_monoid(capsys):
    code, doc = run_json(capsys, "classify", "--monad", f"writer:{AND_AS_Z2}")
    assert code == 0
    assert doc["checks"][0]["name"] == f"classify[writer:{AND_AS_Z2}]"
    assert doc["checks"][0]["kind"] == "not_weakly_affine"


@pytest.mark.parametrize(
    "argv, monad_id",
    [
        (("--monad", " Writer:Z2"), "writer:Z2"),
        (("--monad", "F", "--bound", "3"), "F(B=3)"),
        (("--all", "--bound", "3"), "F(B=3)"),
    ],
    ids=["spaced-and-capitalised", "bounded-F", "all-with-a-bound"],
)
def test_classify_records_the_id_of_each_instance(capsys, argv, monad_id):
    code, doc = run_json(capsys, "classify", *argv)
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert names == [f"classify[{i}]" for i in doc["config"]["monads"]]
    assert monad_id in doc["config"]["monads"]


@pytest.mark.parametrize(
    "spelled",
    [
        '{"elements":["0","1"],"name":"x"',  # not JSON
        '{"elements":["0","1"],"name":"x","table":[[0,1],[1,0.0]],"unit":0}',
        '{"elements":["0","1"],"name":"x","table":[[0,1],[1,0]],"unit":false}',
        '{"elements":[0,1],"name":"x","table":[[0,1],[1,0]],"unit":0}',
        '{"elements":["0","1"],"name":"x","table":[[0,1],[1,1]],"unit":1}',  # no unit
        '{"elements":["0","1"],"name":"x","table":[[0,1]],"unit":0}',
        '{"elements":["0","1"],"name":"x","unit":0}',
        "[1, 2]",
        '{"name":' + "[" * 100000,
    ],
    ids=["not-json", "float", "bool", "int-labels", "not-a-monoid", "not-square",
         "no-table", "a-list", "nested-past-the-recursion-limit"],
)
def test_a_malformed_spelled_writer_id_exits_2(capsys, spelled):
    assert main(["classify", "--monad", f"writer:{spelled}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gsmon: error: ") and "Traceback" not in err


# An M* assoc pullback whose solver returns a wrong middle factor.
BOGUS_SOLVER_RUN = """
import sys
import gsmon.cli as cli
from test_squares import wrong_middle_factor

build = cli.build_square
cli.build_square = lambda *args: wrong_middle_factor(build(*args))
sys.exit(cli.main(["check", "pullback", "--square", "assoc", "--monad", "M*",
                   "--sizes", "1,1,1", "--mode", "random", "--trials", "3"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_broken_invariant_exits_3_also_under_optimize(flags):
    src = os.path.dirname(os.path.dirname(gsmon.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", BOGUS_SOLVER_RUN],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("gsmon: internal error: ")


def test_check_laws(capsys):
    code, doc = run_json(
        capsys, "check", "laws", "--monad", "writer:Z3", "--sizes", "2", "--mode", "exhaustive"
    )
    assert code == 0
    assert doc["checks"][0]["passed"]


def test_check_theorem_m_agreement(capsys):
    code, doc = run_json(
        capsys, "check", "theorem", "--monad", "M", "--mode", "random",
        "--trials", "100", "--seed", "5", "--sizes", "2,2,2",
    )
    assert code == 0  # all three conditions false, but in agreement
    assert "assoc_pullback=False" in doc["checks"][0]["note"]


def test_check_pullback_violation_exits_1(capsys):
    code, doc = run_json(
        capsys, "check", "pullback", "--square", "assoc", "--monad", "M",
        "--sizes", "2,2,2", "--mode", "random", "--trials", "50",
    )
    assert code == 1
    assert doc["summary"] == "fail"


@pytest.mark.parametrize("kind", ["strong-affine", "positivity"])
def test_two_object_square_with_one_size_exits_2(capsys, kind):
    code = main(["check", "pullback", "--square", kind, "--monad", "P", "--sizes", "3"])
    assert code == 2
    assert f"{kind} square needs two sizes" in capsys.readouterr().err


def test_check_pullback_pass(capsys):
    code, doc = run_json(
        capsys, "check", "pullback", "--square", "strong-affine", "--monad", "D",
        "--sizes", "2,2", "--mode", "random", "--trials", "100",
    )
    assert code == 0


def test_check_prop21(capsys):
    code, doc = run_json(capsys, "check", "prop21")
    assert code == 0
    assert doc["checks"][0]["passed"]


def test_check_ci_holds(tmp_path, capsys):
    path = str(tmp_path / "f.json")
    dump_json(KERNEL_CI, path)
    code, doc = run_json(capsys, "check", "ci", "--kernel", path, "--partition", "X|Y")
    assert code == 0
    assert doc["checks"][0]["holds"]


def test_check_ci_fails_with_exit_1(tmp_path, capsys):
    path = str(tmp_path / "f.json")
    dump_json(KERNEL_NOT_CI, path)
    code, doc = run_json(capsys, "check", "ci", "--kernel", path, "--partition", "X|Y")
    assert code == 1
    assert not doc["checks"][0]["holds"]


def test_check_local_independence_in_process(tmp_path, capsys):
    factors = [
        {"name": name, "elements": [f"{name.lower()}0", f"{name.lower()}1"]}
        for name in ("X", "Y", "Z")
    ]
    cells = [f"x{i},y{j},z{k}" for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    doc = {
        "monad": "M*",
        "dom": {"name": "A", "elements": ["a0"]},
        "cod": {"factors": factors},
        "columns": {"a0": {"entries": {c: "1" for c in cells}}},
    }
    path = str(tmp_path / "f.json")
    dump_json(doc, path)
    code, out = run_json(capsys, "check", "local-independence", "--kernel", path)
    assert code == 0
    assert out["config"] == {
        "command": "check local-independence", "kernel": path, "method": "auto"
    }
    (check,) = out["checks"]
    assert check["passed"] and check["note"] == "premises hold"
    assert check["reference"] == "localised independence property"


def test_check_ci_bad_partition_exits_2(tmp_path, capsys):
    path = str(tmp_path / "f.json")
    dump_json(KERNEL_CI, path)
    assert main(["check", "ci", "--kernel", path, "--partition", "X|W"]) == 2


@pytest.mark.parametrize("entry", ["1\n", "3/4\n"])
def test_check_ci_entry_with_trailing_newline_exits_2(tmp_path, capsys, entry):
    doc = json.loads(json.dumps(KERNEL_CI))
    doc["columns"]["a0"]["entries"]["x0,y0"] = entry
    path = str(tmp_path / "f.json")
    dump_json(doc, path)
    assert main(["check", "ci", "--kernel", path, "--partition", "X|Y"]) == 2
    assert "not a rational literal" in capsys.readouterr().err


def test_check_ci_non_ascii_digit_in_partition_exits_2(tmp_path, capsys):
    path = str(tmp_path / "f.json")
    dump_json(KERNEL_CI, path)
    assert main(["check", "ci", "--kernel", path, "--partition", "X|\u00b2"]) == 2
    assert "unknown factor" in capsys.readouterr().err


def test_check_ci_missing_file_exits_2(tmp_path):
    assert main(["check", "ci", "--kernel", str(tmp_path / "no.json"), "--partition", "X|Y"]) == 2


def test_report_merges_documents(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["check", "prop21", "--out", a]) == 0
    assert main(["classify", "--monad", "Id", "--out", b]) == 0
    code, doc = run_json(capsys, "report", "--inputs", a, b)
    assert code == 0
    assert len(doc["checks"]) == 2
    assert "warning" not in doc


def test_report_empty_inputs(capsys):
    code, doc = run_json(capsys, "report")
    assert code == 0
    assert doc["checks"] == []


@pytest.mark.parametrize("fmt", ["json", "markdown"])
@pytest.mark.parametrize(
    "doc",
    [[1, 2], {"tool": "x", "checks": [{"name": "a"}]}, {"checks": "abc"}],
    ids=["not-an-object", "check-without-passed", "checks-not-a-list"],
)
def test_report_refuses_a_malformed_input_with_exit_2(tmp_path, capsys, fmt, doc):
    path = str(tmp_path / "f.json")
    dump_json(doc, path)
    code = main(["report", "--inputs", path, "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("gsmon: error: ") and path in err


def test_markdown_output(capsys):
    code, out = run(capsys, "classify", "--monad", "D", "--format", "markdown")
    assert code == 0
    assert out.startswith("# gsmon")
    assert "| classify[D] | pass |" in out


def test_seed_env_default(monkeypatch, capsys):
    monkeypatch.setenv("GSMON_SEED", "99")
    code, doc = run_json(
        capsys, "check", "theorem", "--monad", "M*", "--mode", "random",
        "--trials", "50", "--sizes", "2,2,2",
    )
    assert code == 0
    assert doc["config"]["seed"] == 99


def test_seed_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("GSMON_SEED", "abc")
    assert main(["classify", "--monad", "Id"]) == 2


def test_reports_are_byte_identical(capsys):
    argv = [
        "check", "pullback", "--square", "assoc", "--monad", "M*",
        "--sizes", "2,2,2", "--mode", "random", "--trials", "100", "--seed", "17",
    ]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# F above bound 1: the bound applies to input, enumeration and sampling only.


@pytest.mark.parametrize("bound", ["2", "3"])
def test_theorem_on_f_is_decided_above_bound_1(capsys, bound):
    code, doc = run_json(capsys, "check", "theorem", "--monad", "F", "--bound", bound)
    assert code == 0
    assert doc["checks"][0]["note"] == "t1_group=False; effect_groups=False; assoc_pullback=False"


@pytest.mark.parametrize("sizes", ["1,1,1", "2,2,2"])
def test_assoc_on_f_bound_2_has_a_cone_without_mediator(capsys, sizes):
    code, doc = run_json(
        capsys, "check", "pullback", "--square", "assoc", "--monad", "F", "--bound", "2",
        "--sizes", sizes,
    )
    assert code == 1
    assert doc["checks"][0]["witness"]["mediators"] == 0


@pytest.mark.parametrize("bound", ["1", "2"])
def test_positivity_on_f_fails(capsys, bound):
    code, doc = run_json(
        capsys, "check", "pullback", "--square", "positivity", "--monad", "F", "--bound", bound,
        "--sizes", "2,2",
    )
    assert code == 1
    assert doc["checks"][0]["witness"]["mediators"] == 0


@pytest.mark.parametrize("bound", ["1", "16"])
def test_strong_affine_on_f_does_not_commute(capsys, bound):
    code, doc = run_json(
        capsys, "check", "pullback", "--square", "strong-affine", "--monad", "F",
        "--bound", bound, "--sizes", "2,2",
    )
    assert code == 1
    assert doc["checks"][0]["note"] == "square does not commute; pullback not evaluated"


@pytest.mark.parametrize("bound,sizes", [("1", "1,2"), ("2", "1"), ("3", "1")])
def test_laws_on_f_pass(capsys, bound, sizes):
    code, doc = run_json(capsys, "check", "laws", "--monad", "F", "--bound", bound, "--sizes", sizes)
    assert code == 0
    assert doc["checks"][0]["passed"]


# One refusal per caller of the enumeration budget, and the law-check budget,
# each in a subprocess so that a run that is not refused fails on the timeout
# instead of hanging.
F_KERNEL = os.path.join(os.path.dirname(__file__), "golden", "kernels", "F.json")
OVER_BUDGET = [
    (("check", "laws", "--monad", "F", "--sizes", "2"), "kernels S2 -> S2"),
    (("check", "theorem", "--monad", "F", "--sizes", "3,3,3"), "kernels X3 -> I"),
    (("check", "pullback", "--square", "assoc", "--monad", "F", "--sizes", "2,2,2"),
     "elements of a square corner"),
    (("check", "pullback", "--square", "assoc", "--monad", "F", "--sizes", "2,2,2",
      "--mode", "random"), "elements of a square corner"),
    (("check", "ci", "--kernel", F_KERNEL, "--partition", "X|Y", "--method", "exhaustive"),
     "factor combinations per column"),
    # Every kernel enumeration fits (19,683 kernels S3 -> S3); the whole check does not.
    (("check", "laws", "--monad", "F", "--bound", "1", "--sizes", "1,2,3"),
     "418425003 kernel pairs of the law check"),
]
# The budget each refusal names, where it is not the enumeration budget.
BUDGET_OF = {"418425003 kernel pairs of the law check": "law-check budget of 10000000"}


@pytest.mark.parametrize("argv,what", OVER_BUDGET)
def test_over_budget_enumeration_is_refused_up_front(argv, what):
    src = os.path.dirname(os.path.dirname(gsmon.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gsmon.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    budget = BUDGET_OF.get(what, "enumeration budget of 20000")
    assert f"{what} exceed the {budget}" in proc.stderr


# Options that no handler of the subcommand reads are not accepted.
UNREAD_OPTIONS = (
    [(("classify",), opt) for opt in ("--mode", "--sizes")]
    + [(cmd, opt) for cmd in (("check", "ci", "--kernel", "k", "--partition", "X"),
                              ("check", "local-independence", "--kernel", "k"))
       for opt in ("--mode", "--trials", "--sizes")]
    + [(cmd, opt) for cmd in (("check", "prop21"), ("report",))
       for opt in ("--mode", "--trials", "--sizes", "--bound")]
)


@pytest.mark.parametrize("argv,option", UNREAD_OPTIONS)
def test_unread_option_is_a_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


# Values are validated where they enter: a bad kernel column is refused on
# decoding, before any kernel is built from it.
def _with_a0_entries(doc, entries):
    doc = json.loads(json.dumps(doc))
    doc["columns"]["a0"]["entries"].update(entries)
    return doc


with open(F_KERNEL, encoding="utf-8") as _fh:
    F_DOC = json.load(_fh)

BAD_COLUMNS = {
    "M*-negative": (KERNEL_CI, {"x0,y0": "-1"}, "negative entry"),
    "M*-zero": (KERNEL_CI, dict.fromkeys(["x0,y0", "x0,y1", "x1,y0", "x1,y1"], "0"),
                "zero table"),
    "D-unnormalised": (dict(KERNEL_CI, monad="D"), {}, "does not sum to 1"),
    "F-over-bound": (F_DOC, {"x0,y0": 17}, "exceeds bound 16"),
    "F-1.5": (F_DOC, {"x0,y0": 1.5}, "not an integer literal"),
    "F-true": (F_DOC, {"x0,y0": True}, "not an integer literal"),
    "F-1/2": (F_DOC, {"x0,y0": "1/2"}, "not an integer literal"),
}


@pytest.mark.parametrize("doc,entries,message", BAD_COLUMNS.values(), ids=BAD_COLUMNS)
def test_kernel_with_a_bad_column_exits_2(tmp_path, capsys, doc, entries, message):
    path = str(tmp_path / "k.json")
    dump_json(_with_a0_entries(doc, entries), path)
    assert main(["check", "ci", "--kernel", path, "--partition", "X|Y"]) == 2
    assert message in capsys.readouterr().err


def test_kernel_with_a_column_outside_its_domain_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(KERNEL_CI))
    doc["columns"]["a9"] = {"entries": {"bogus": "1"}}
    path = str(tmp_path / "k.json")
    dump_json(doc, path)
    assert main(["check", "ci", "--kernel", path, "--partition", "X|Y"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "column 'a9' is not an element of the domain" in captured.err


def test_f_kernel_accepts_integer_and_decimal_string_entries():
    as_text = _with_a0_entries(F_DOC, {"x0,y0": "1", "x1,y0": "-1"})
    assert kernel_from_json(as_text) == kernel_from_json(F_DOC)


# Integer options take ASCII digits only, and counts and bounds are >= 1.
BAD_INTEGERS = [
    ("classify", "--monad", "F", "--bound", "0"),
    ("classify", "--monad", "F", "--bound", "-1"),
    ("check", "theorem", "--monad", "F", "--bound", "0", "--sizes", "1,1,1"),
    ("check", "laws", "--monad", "M*", "--mode", "random", "--trials", "0"),
    ("check", "laws", "--monad", "M*", "--mode", "random", "--trials", "-5"),
    ("check", "laws", "--monad", "M*", "--mode", "random", "--trials", "١٠"),
    ("classify", "--monad", "Id", "--seed", "١"),
    ("classify", "--monad", "Id", "--seed", "+1"),
]


@pytest.mark.parametrize("argv", BAD_INTEGERS, ids=" ".join)
def test_bad_integer_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["١,1,1", "1_0,1,1", "0,1,1", "-1", ","])
def test_bad_sizes_exit_2(capsys, sizes):
    argv = ["check", "laws", "--monad", "M*", "--mode", "random", "--sizes", sizes]
    assert main(argv) == 2
    assert "bad --sizes value" in capsys.readouterr().err


@pytest.mark.parametrize("monad,mode", [("writer:Z3", "exhaustive"), ("M", "random")])
@pytest.mark.parametrize("sizes", [";", " "])
def test_theorem_with_no_size_triples_exits_2(capsys, monad, mode, sizes):
    argv = ["check", "theorem", "--monad", monad, "--mode", mode, "--sizes", sizes]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad --sizes value" in err and "no entries" in err


def test_negative_seed_is_accepted(capsys):
    code, doc = run_json(capsys, "classify", "--monad", "Id", "--seed", "-3")
    assert code == 0
    assert doc["config"]["seed"] == -3


@pytest.mark.parametrize("raw", ["١", " 7", "1_0"])
def test_seed_env_non_ascii_or_padded_exits_2(monkeypatch, raw):
    monkeypatch.setenv("GSMON_SEED", raw)
    assert main(["classify", "--monad", "Id"]) == 2


# ---------------------------------------------------------------------------
# One parser per process: what is read on every call, and what is shared


def test_seed_env_is_read_on_every_call(monkeypatch, capsys):
    argv = ("check", "laws", "--monad", "Id", "--sizes", "1", "--mode", "random", "--trials", "1")
    for raw in ("5", "7"):
        monkeypatch.setenv("GSMON_SEED", raw)
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["config"]["seed"] == int(raw)
    monkeypatch.delenv("GSMON_SEED")
    assert run_json(capsys, *argv)[1]["config"]["seed"] == 42


def test_seed_env_invalid_exits_2_even_with_a_seed_flag(monkeypatch, capsys):
    monkeypatch.setenv("GSMON_SEED", "abc")
    assert main(["classify", "--monad", "Id", "--seed", "3"]) == 2
    assert "GSMON_SEED must be an integer" in capsys.readouterr().err


def test_golden_runs_repeat_byte_for_byte_in_one_process():
    from test_golden import RUNS, run_cli

    names = sorted(RUNS)
    first = {name: run_cli(RUNS[name]) for name in names}
    again = {name: run_cli(RUNS[name]) for name in reversed(names)}
    assert again == first


def test_build_parser_keeps_its_seed_default():
    from gsmon.cli import build_parser

    assert build_parser(0).parse_args(["classify", "--monad", "Id"]).seed == 0
    assert build_parser(0).parse_args(["check", "prop21", "--seed", "4"]).seed == 4


# ---------------------------------------------------------------------------
# An --out that cannot be written is an input error, not a violation


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_unwritable_out_exits_2(tmp_path, capsys, fmt):
    path = str(tmp_path / "f.json")
    dump_json(KERNEL_CI, path)
    for argv in (
        ["check", "ci", "--kernel", path, "--partition", "X|Y"],
        ["report", "--inputs"],
    ):
        code = main(argv + ["--format", fmt, "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"gsmon: error: cannot write {tmp_path}: ")
