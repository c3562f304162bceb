"""`classify` decides every instance by one rule.

The differential oracle is the earlier two-route classification, kept here
verbatim: the enumerate-and-invert rule for enumerable instances, with F's
preferred candidate, and the hand-written verdicts of M, M* and D.  Only its
calls of the removed instance hooks became calls of the functions below."""

import ast
import random
from pathlib import Path

import pytest

from gsmon import cli
from gsmon.errors import InvariantViolation
from gsmon.finset import UNIT, FinSet
from gsmon.kernels import Kernel, try_effect_inverse
from gsmon.monads import (
    ALL_MONAD_IDS,
    Classification,
    DistributionMonad,
    FreeAbelianMonad,
    MeasureMonad,
    NonzeroMeasureMonad,
    WriterMonad,
    _MeasureBase,
    classification_of,
    classify,
    get_instance,
)
from gsmon.monoid import MONOID_LIBRARY, get_monoid
from gsmon.rational import Table

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gsmon").glob("*.py"))


# -- the earlier classification, verbatim --------------------------------


def measure_solver_classification(self, trials: int, rng: random.Random) -> "Classification":
    one, zero = self.unit(UNIT, ()), self.zero(UNIT)
    for _ in range(trials):
        if self.lax_c(zero, self.sample(UNIT, rng)) == one:  # pragma: no cover - 0*b = 0
            raise InvariantViolation("zero scalar acquired an inverse")
    return Classification(
        "not_weakly_affine",
        witness=zero,
        evidence="solver-asserted",
        note=f"scalar 0 has no inverse; checked against {trials} samples",
    )


def nonzero_measure_solver_classification(self, trials: int, rng: random.Random) -> "Classification":
    one = self.unit(UNIT, ())
    for _ in range(trials):
        a = self.sample(UNIT, rng)
        b = self.t1_inverse(a)
        if b is None or self.lax_c(a, b) != one:
            raise InvariantViolation("M* reciprocal solver failed")
    return Classification(
        "weakly_affine_not_affine",
        witness=self.make(UNIT, (2,)),
        evidence="solver-asserted",
        note=f"reciprocal inverse verified on {trials} samples; 2 != 1 in T1",
    )


def distribution_solver_classification(self, trials: int, rng: random.Random) -> "Classification":
    one = self.unit(UNIT, ())
    for _ in range(trials):
        if self.sample(UNIT, rng) != one:  # pragma: no cover - D1 is a point
            raise InvariantViolation("D value over 1 differs from the unit")
    return Classification(
        "affine",
        evidence="solver-asserted",
        note=f"all {trials} sampled elements of T1 equal the unit",
    )


def solver_classification(inst, trials, rng):
    return {
        MeasureMonad: measure_solver_classification,
        NonzeroMeasureMonad: nonzero_measure_solver_classification,
        DistributionMonad: distribution_solver_classification,
    }[type(inst)](inst, trials, rng)


def noninvertible_t1_candidate(self):
    if isinstance(self, FreeAbelianMonad):
        return None if self.bound < 2 else self.make(UNIT, (2,))
    return None


def oracle_classify(inst, trials: int = 200, seed: int = 42) -> Classification:
    if inst.enumerable:
        one = inst.unit(UNIT, ())
        carrier = list(inst.enumerate_values(UNIT))
        preferred = noninvertible_t1_candidate(inst)
        for t in ([] if preferred is None else [preferred]) + carrier:
            if inst.t1_inverse(t) is None:
                return Classification(
                    "not_weakly_affine",
                    witness=t,
                    note=f"element of T1 with no inverse among {len(carrier)} values",
                )
        if len(carrier) == 1:
            return Classification("affine", note="T1 has exactly one element")
        non_unit = next(t for t in carrier if t != one)
        return Classification(
            "weakly_affine_not_affine",
            witness=non_unit,
            note=f"|T1| = {len(carrier)}, every element invertible",
        )

    return solver_classification(inst, trials, random.Random(seed))


# -- the rule against the oracle -------------------------------------------

INSTANCES = (
    ALL_MONAD_IDS
    + [f"writer:{name}" for name in MONOID_LIBRARY]
    + [f"F(B={bound})" for bound in (1, 2, 3, 4)]
)


@pytest.mark.parametrize("monad_id", INSTANCES)
@pytest.mark.parametrize("trials", [1, 2, 7, 200])
def test_the_rule_classifies_as_the_earlier_code(monad_id, trials):
    inst = get_instance(monad_id)
    for seed in (0, 1, 42, -3):
        expected = oracle_classify(inst, trials, seed).to_json()
        assert classify(inst, trials, seed).to_json() == expected, (monad_id, trials, seed)


def test_the_oracle_covers_every_verdict_and_evidence():
    seen = {
        (c["kind"], c["evidence"])
        for c in (oracle_classify(get_instance(i)).to_json() for i in INSTANCES)
    }
    assert seen == {
        (kind, evidence)
        for kind in ("affine", "weakly_affine_not_affine", "not_weakly_affine")
        for evidence in ("exhaustive", "solver-asserted")
    }


# -- instances with no classification code of their own -------------------


class _RationalMeasure(_MeasureBase):
    """Non-negative rational tables with a zero: M under another name, with
    nothing of its own but the id."""

    id = "Q"
    has_zero = True


def test_an_instance_without_classification_code_is_classified():
    inst = _RationalMeasure()
    cls = classify(inst, trials=7, seed=0)
    assert (cls.kind, inst.value_text(cls.witness), cls.evidence) == (
        "not_weakly_affine",
        "Q{zero}",
        "solver-asserted",
    )
    assert cls.note == "scalar 0 has no inverse; checked against 7 samples"
    assert cls.witness.describe() == "Q{zero}"


class _SampledF(FreeAbelianMonad):
    """F(B=2), classified from samples instead of its enumeration."""

    enumerable = False


def test_a_sampled_free_abelian_monad_is_not_weakly_affine():
    cls = classify(_SampledF(2), trials=7, seed=1)
    assert (cls.kind, cls.witness.describe(), cls.evidence) == (
        "not_weakly_affine",
        "F(B=2){*:2}",
        "solver-asserted",
    )
    assert cls.note == "scalar 2 has no inverse; checked against 7 samples"


def test_one_plus_one_is_a_candidate_where_it_is_a_value():
    assert [t.describe() for t in get_instance("F(B=1)").t1_candidates()] == [
        "F(B=1){*:2}",
        "F(B=1){zero}",
    ]
    assert [t.describe() for t in get_instance("M*").t1_candidates()] == ["M*{*:2}"]
    assert get_instance("D").t1_candidates() == []
    assert [t.describe() for t in get_instance("P").t1_candidates()] == ["P{}"]
    assert get_instance("writer:AND").t1_candidates() == []


# -- the solver's answers are re-checked -----------------------------------


class _WrongInverse(_MeasureBase):
    """A measure monad whose T1 solver returns its argument as the inverse."""

    id = "W"

    def t1_inverse(self, t):
        return t


class _UnitInverseWriter(WriterMonad):
    """The writer monad over AND, whose T1 solver answers the unit for every
    element: 0 has no inverse, and 0 AND 1 is 0."""

    def __init__(self):
        super().__init__(get_monoid("AND"))
        self.id = "writer:AND/unit-inverse"  # not the memoized writer:AND

    def t1_inverse(self, t):
        return self.unit(UNIT, ())


class _LibraryIdUnitInverseWriter(WriterMonad):
    """The writer monad over AND under its library id writer:AND, with the
    T1 solver of _UnitInverseWriter."""

    t1_inverse = _UnitInverseWriter.t1_inverse


class _MissedInverse(NonzeroMeasureMonad):
    """M* with a T1 solver that finds no inverse of anything."""

    def t1_inverse(self, t):
        return None


def test_a_wrong_inverse_is_an_invariant_violation():
    with pytest.raises(InvariantViolation, match=r"W: wrong inverse of W\{\*:2\}"):
        classify(_WrongInverse(), trials=3, seed=0)


def test_a_wrong_inverse_of_an_enumerated_element_is_an_invariant_violation():
    inst = _UnitInverseWriter()
    assert inst.enumerable
    with pytest.raises(InvariantViolation, match=r"writer:AND/unit-inverse: wrong inverse of"):
        classify(inst)


def test_a_memoized_verdict_is_not_served_to_another_class_of_the_same_id():
    assert classification_of(get_instance("writer:AND")).kind == "not_weakly_affine"
    inst = _LibraryIdUnitInverseWriter(get_monoid("AND"))
    assert inst.id == "writer:AND"
    with pytest.raises(InvariantViolation, match=r"writer:AND: wrong inverse of"):
        classification_of(inst)


def test_a_wrong_inverse_of_an_effect_column_is_an_invariant_violation():
    inst = _UnitInverseWriter()
    zero = next(t for t in inst.enumerate_values(UNIT) if t != inst.unit(UNIT, ()))
    one_point = FinSet.of("X1", ["x1"])
    with pytest.raises(InvariantViolation, match=r"writer:AND/unit-inverse: wrong inverse of"):
        try_effect_inverse(Kernel(inst, one_point, UNIT, [zero]))
    # The lawful writer over AND finds no inverse of the same column.
    lawful = get_instance("writer:AND")
    column = lawful.make(UNIT, zero.payload)
    assert try_effect_inverse(Kernel(lawful, one_point, UNIT, [column])) == (None, ("x1",))


def test_check_theorem_on_a_wrong_inverse_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "get_instance", lambda *args, **kwargs: _UnitInverseWriter())
    argv = ["check", "theorem", "--monad", "writer:AND", "--sizes", "1,1,1"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("gsmon: internal error: writer:AND/unit-inverse: wrong inverse of")


def test_a_witness_with_a_sampled_inverse_is_an_invariant_violation():
    # 1/2 is among the 200 samples of seed 42, and 2 * 1/2 = 1.
    half = _MissedInverse().make(UNIT, Table((1,), 2))
    rng = random.Random(42)
    assert half in [_MissedInverse().sample(UNIT, rng) for _ in range(200)]
    with pytest.raises(InvariantViolation, match=r"M\*: a sample inverts M\*\{\*:2\}"):
        classify(_MissedInverse(), trials=200, seed=42)


# -- where classification code may live (tooling) --------------------------


def classification_sites(path: Path) -> tuple:
    """(methods named like the removed hooks, the functions that call
    `Classification(`) in one source file."""
    tree = ast.parse(path.read_text())
    hooks, callers = [], []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name in ("solver_classification", "noninvertible_t1_candidate"):
            hooks.append(fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Classification":
                callers.append(f"{path.stem}.{fn.name}")
    return hooks, callers


def test_no_per_monad_classification_code():
    hooks, callers = [], []
    for path in SOURCES:
        h, c = classification_sites(path)
        hooks += h
        callers += c
    assert hooks == []
    assert callers == ["monads.classify"]


def test_the_site_check_sees_a_hook_and_a_call(tmp_path):
    path = tmp_path / "demo.py"
    path.write_text(
        "class A:\n"
        "    def solver_classification(self):\n"
        "        return Classification('affine')\n"
    )
    assert classification_sites(path) == (["solver_classification"], ["demo.solver_classification"])
