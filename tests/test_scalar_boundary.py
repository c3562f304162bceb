"""Where scalars are read: `rational.Table` owns the scalar arithmetic.

Only `rational` and the table monads (`monads`) read a table's numerators
and denominator, and only `rational` and the text forms (`report`) use
`fractions`.  Every other module computes through `Table` methods."""

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


def test_the_sources_are_found():
    assert {"rational.py", "squares.py", "independence.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_rational_and_report_import_fractions(path):
    if path.name in ("rational.py", "report.py"):
        return
    assert not imports_fractions(ast.parse(path.read_text())), path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_rational_and_monads_read_numerators(path):
    if path.name in ("rational.py", "monads.py"):
        return
    assert table_reads(ast.parse(path.read_text())) == [], path.name


def test_the_check_sees_an_import_and_a_read():
    tree = ast.parse("from fractions import Fraction\nx = t.payload.nums[0] / t.payload.den\n")
    assert imports_fractions(tree)
    assert table_reads(tree) == [2, 2]
    assert imports_fractions(ast.parse("import fractions"))
