"""Where scalars are read: `rational.Table` owns the scalar arithmetic.

Only `rational` and the table monads (`monads`) read a table's numerators
and denominator, and only `rational` uses `fractions`: the text forms read
a table's exact entries through `Table.entries`.  Every other module computes through `Table` methods, and
only through its closed operations: the measure arithmetic (`pivot`, `over`,
`outer_factors`, `normalized`, `scaled`) is called in `monads` alone, where
the instances that need it offer it as their own methods.  No module names
a flag `measure_like` that others read to choose behaviour."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gsmon").glob("*.py"))


def imports_fractions(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            return True
    return False


def table_reads(tree) -> list:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("nums", "den")
    ]


# The Table methods only the table monads call.
MEASURE_ARITHMETIC = ("pivot", "over", "outer_factors", "normalized", "scaled")


def measure_calls(tree) -> list:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in MEASURE_ARITHMETIC
    ]


def names_measure_like(tree) -> list:
    """Every line that names `measure_like`: a name, an attribute, a
    definition, an argument, a keyword or a string that is exactly it."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if "measure_like" in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
            getattr(node, "name", None),
            getattr(node, "arg", None),
            getattr(node, "value", None),
        )
    ]


def test_the_sources_are_found():
    assert {"rational.py", "squares.py", "independence.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_rational_and_report_import_fractions(path):
    # No witness holds a Fraction, so `report` renders none.
    if path.name == "rational.py":
        return
    assert not imports_fractions(ast.parse(path.read_text())), path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_rational_and_monads_read_numerators(path):
    if path.name in ("rational.py", "monads.py"):
        return
    assert table_reads(ast.parse(path.read_text())) == [], path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_rational_and_monads_call_the_measure_arithmetic(path):
    if path.name in ("rational.py", "monads.py"):
        return
    assert measure_calls(ast.parse(path.read_text())) == [], path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_names_measure_like(path):
    assert names_measure_like(ast.parse(path.read_text())) == [], path.name


def test_the_check_sees_an_import_and_a_read():
    tree = ast.parse("from fractions import Fraction\nx = t.payload.nums[0] / t.payload.den\n")
    assert imports_fractions(tree)
    assert table_reads(tree) == [2, 2]
    assert imports_fractions(ast.parse("import fractions"))


def test_the_check_sees_the_measure_arithmetic_and_the_flag():
    tree = ast.parse("p = t.payload.pivot()\nq = t.payload.over(r, u.payload, p)\n")
    assert measure_calls(tree) == [1, 2]
    assert measure_calls(ast.parse("f = Table.outer_factors\ng = x.normalized().scaled(1, 2)")) == [1, 2, 2]
    assert measure_calls(ast.parse("pivot = over(scaled)")) == []
    flagged = "if inst.measure_like:\n    pass\nclass A:\n    measure_like = True\n"
    assert names_measure_like(ast.parse(flagged)) == [1, 4]
    assert names_measure_like(ast.parse("def measure_like(): pass")) == [1]
    assert names_measure_like(ast.parse("getattr(inst, 'measure_like')\nf(measure_like=1)")) == [1, 2]
    assert names_measure_like(ast.parse("x = 'measure-like'")) == []
