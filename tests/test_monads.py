import copy
import dataclasses
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from gsmon import kernels, monads
from gsmon.errors import MalformedInput, NotEnumerable, OutOfBound, PayloadInvalid, UnknownMonad
from gsmon.finset import (
    FinFun,
    FinSet,
    UNIT,
    enumerate_functions,
    identity_fun,
    pair_fun,
    product,
    swap_fun,
)
from gsmon.kernels import Kernel, enumerate_kernels
from gsmon.monads import (
    ALL_MONAD_IDS,
    FreeAbelianMonad,
    WriterMonad,
    ENUMERATION_BUDGET,
    LAW_PAIR_BUDGET,
    TValue,
    budgeted_product,
    check_monad_laws,
    classify,
    get_instance,
)
from gsmon.monoid import MONOID_LIBRARY, FiniteMonoid, get_monoid
from gsmon.rational import Table
from gsmon.report import CheckReport

X = FinSet.of("X", ["x0", "x1"])
Y = FinSet.of("Y", ["y0", "y1"])

ENUMERABLE = ["Id", "P", "P*", "writer:Z2", "writer:Z3", "writer:AND"]
SAMPLED = ["M", "M*", "D", "F"]


@pytest.mark.parametrize("monad_id", ENUMERABLE)
def test_laws_exhaustive(monad_id):
    report = check_monad_laws(get_instance(monad_id), [1, 2, 3], mode="exhaustive")
    assert report.passed, report.witness


@pytest.mark.parametrize("monad_id", SAMPLED)
def test_laws_randomized(monad_id):
    report = check_monad_laws(
        get_instance(monad_id), [1, 2, 3], mode="randomized", trials=150, seed=7
    )
    assert report.passed, report.witness


def test_exhaustive_mode_requires_enumerator():
    with pytest.raises(NotEnumerable):
        check_monad_laws(get_instance("M"), [2], mode="exhaustive")


class _BrokenWriter(WriterMonad):
    """Writer monad with a corrupted unit: tags with a non-identity label."""

    def unit(self, base, x):
        self._check_x(base, x)
        return self.make(base, (self.monoid.label(1), x))


def test_law_suite_detects_a_broken_unit():
    broken = _BrokenWriter(get_monoid("Z2"))
    report = check_monad_laws(broken, [1, 2], mode="exhaustive")
    assert not report.passed
    assert report.witness["law"] in ("kleisli_left_unit", "kleisli_right_unit")


class _NonAssociativeWriter(WriterMonad):
    """Writer monad whose extend drops col(x)'s label at x = s2_1 when t's
    own label is not the unit: deterministic, both unit laws hold, but
    Kleisli composition is not associative."""

    def extend(self, col, cod, t):
        a, x = t.payload
        b, y = col(x).payload
        if x == ("s2_1",) and a != self.monoid.label(self.monoid.unit):
            b = self.monoid.label(self.monoid.unit)
        return self.make(cod, (self._mul(a, b), y))


def unmemoized_assoc_failure(inst, sizes):
    """The t of the first (t, k, h) that fails Kleisli associativity, with
    every extension computed afresh, in the order of the exhaustive law check."""
    sets = [FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(1, n + 1)]) for n in sorted(set(sizes))]
    for X, Y, Z in itertools.product(sets, repeat=3):
        for t in inst.enumerate_values(X):
            for k in enumerate_kernels(inst, X, Y):
                for h in enumerate_kernels(inst, Y, Z):
                    lhs = inst.extend(h, Z, inst.extend(k, Y, t))
                    rhs = inst.extend(lambda e: inst.extend(h, Z, k(e)), Z, t)
                    if lhs != rhs:
                        return t
    return None


def test_exhaustive_law_check_finds_the_first_assoc_witness():
    broken = _NonAssociativeWriter(get_monoid("Z3"))
    report = check_monad_laws(broken, [1, 2], mode="exhaustive")
    assert not report.passed
    assert report.witness == {
        "law": "kleisli_assoc",
        "inputs": [unmemoized_assoc_failure(broken, [1, 2])],
    }


def law_sets(sizes):
    return [FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(1, n + 1)]) for n in sorted(set(sizes))]


def oracle_law_failure(inst, sizes):
    """The first failing law and its witness inputs, by an ordered scan of
    all ten laws with every term computed afresh; None when all hold."""
    unit, ext, fmap, c = inst.unit, inst.extend, inst.map, inst.lax_c
    for X, Y, Z in itertools.product(law_sets(sizes), repeat=3):
        tx, ty, tz = (list(inst.enumerate_values(S)) for S in (X, Y, Z))
        fs, gs = list(enumerate_functions(X, Y)), list(enumerate_functions(Y, Z))
        ks, hs = list(enumerate_kernels(inst, X, Y)), list(enumerate_kernels(inst, Y, Z))
        scans = (
            ("kleisli_left_unit", ((x,) for x, k in itertools.product(X.elements, ks)
                                   if ext(k, Y, unit(X, x)) != k(x))),
            ("kleisli_right_unit", ((u,) for u in ty
                                    if ext(lambda e: unit(Y, e), Y, u) != u)),
            ("kleisli_assoc", ((t,) for t, k, h in itertools.product(tx, ks, hs)
                               if ext(h, Z, ext(k, Y, t))
                               != ext(lambda e: ext(h, Z, k(e)), Z, t))),
            ("functor_identity", ((t,) for t in tx if fmap(identity_fun(X), t) != t)),
            ("functor_composition", ((t,) for t, f, g in itertools.product(tx, fs, gs)
                                     if fmap(g.compose(f), t) != fmap(g, fmap(f, t)))),
            ("unit_naturality", ((x,) for x, f in itertools.product(X.elements, fs)
                                 if fmap(f, unit(X, x)) != unit(Y, f(x)))),
            ("c_naturality", ((t, u) for t, u, f, g in itertools.product(tx, ty, fs, gs)
                              if fmap(pair_fun(f, g), c(t, u)) != c(fmap(f, t), fmap(g, u)))),
            ("c_symmetry", ((t, u) for t, u in itertools.product(tx, ty)
                            if fmap(swap_fun(X, Y), c(t, u)) != c(u, t))),
            ("c_associativity", ((t, u, v) for t, u, v in itertools.product(tx, ty, tz)
                                 if c(t, c(u, v)) != c(c(t, u), v))),
            ("map_is_unit_extension", ((t,) for t, f in itertools.product(tx, fs)
                                       if fmap(f, t) != ext(lambda e: unit(Y, f(e)), Y, t))),
        )
        for law, failures in scans:
            inputs = next(failures, None)
            if inputs is not None:
                return {"law": law, "inputs": list(inputs)}
    return None


def oracle_law_report(inst, sizes) -> dict:
    witness = oracle_law_failure(inst, sizes)
    return CheckReport(f"monad_laws[{inst.id}]", passed=witness is None, witness=witness).to_json()


DIFFERENTIAL = [f"writer:{name}" for name in MONOID_LIBRARY] + ["P", "P*", "Id", "F(B=1)"]


@pytest.mark.parametrize("monad_id", DIFFERENTIAL)
def test_exhaustive_law_check_matches_the_unmemoized_scan(monad_id):
    inst = get_instance(monad_id)
    assert check_monad_laws(inst, [1, 2]).to_json() == oracle_law_report(inst, [1, 2])


class _LeakyWriter(WriterMonad):
    """Writer monad whose extend, at x = s2_2 with a non-unit label on both t
    and col(x), writes a label outside the monoid (unchecked, as a closed
    operation would), and any product with that label is that label again.
    Both unit laws hold; Kleisli associativity meets values outside every
    pool, and fails."""

    LEAK = "leak"

    def extend(self, col, cod, t):
        a, x = t.payload
        b, y = col(x).payload
        unit = self.monoid.label(self.monoid.unit)
        if x == ("s2_2",) and a != unit and b != unit:
            return self._value(cod, (self.LEAK, y))
        return self._value(cod, (self._mul(a, b), y))

    def _mul(self, a, b):
        return self._times.get((a, b), self.LEAK)


class _LabelDroppingWriter(WriterMonad):
    """Writer monad whose lax_c drops t's label at the pair (s2_1, s2_2):
    every law before c-naturality holds, and c-naturality fails."""

    def lax_c(self, t, u):
        a, x = t.payload
        b, y = u.payload
        label = b if (x, y) == (("s2_1",), ("s2_2",)) else self._mul(a, b)
        return self._value(product([t.base, u.base]), (label, x + y))


class _MisplacedWriter(WriterMonad):
    """Writer monad whose extend, along a column function that is not a
    kernel, puts its value over t's base instead of the codomain.  Both unit
    laws hold; Kleisli associativity fails where X != Z, on values that carry
    the payloads of pool values over another base."""

    def extend(self, col, cod, t):
        out = super().extend(col, cod, t)
        return out if isinstance(col, Kernel) else self._value(t.base, out.payload)


class _MapDroppingWriter(WriterMonad):
    """Writer monad whose map drops the label along the functions `drops`
    picks (the laws' sets are named S1, S2 and their products S2xS2 ...)."""

    def __init__(self, monoid, drops):
        super().__init__(monoid)
        self.drops = drops

    def map(self, f, t):
        out = super().map(f, t)
        if self.drops(f):
            return self._value(out.base, (self.monoid.label(self.monoid.unit), out.payload[1]))
        return out


# Drops the label along one function, the constant S2 -> S2 onto s2_1.  It is
# the composite of S2 -> S1 -> S2, whose factors keep the label, so functor
# composition fails; no law before it maps along that function.
_BROKEN_COMPOSITE = _MapDroppingWriter(
    get_monoid("Z2"), lambda f: f.dom.name == f.cod.name == "S2" and f.mapping == (0, 0)
)

# Drops the label along f x g for the last f and g of the last table at sizes
# 1, 2 (both constant onto s2_2), so c-naturality fails only at that (f, g).
_LATE_NATURALITY = _MapDroppingWriter(
    get_monoid("Z3"), lambda f: f.dom.name == "S2xS2" and f.mapping == (3, 3, 3, 3)
)


class _SkewLaxWriter(WriterMonad):
    """Writer monad over Z3 whose lax_c writes the label 1, not 2, for the
    labels 1 and 1.  That product is commutative with the unit 0, so every
    law before c-associativity holds; c-associativity fails, and only when
    the middle value's label is not the unit: 1 * (1 * 2) = 1 * 0 = 1, but
    (1 * 1) * 2 = 1 * 2 = 0."""

    def lax_c(self, t, u):
        out = super().lax_c(t, u)
        if t.payload[0] == u.payload[0] == "1":
            return self._value(out.base, ("1", out.payload[1]))
        return out


class _NonLocalWriter(WriterMonad):
    """Writer monad whose extend, on a value whose label is not the unit,
    also multiplies in the label of the column at the first element of the
    value's base, a column the value does not name.  Both unit laws hold (a
    unit has the unit label, and a unit column carries it); Kleisli
    associativity fails."""

    def extend(self, col, cod, t):
        a, x = t.payload
        b, y = col(x).payload
        if a != self.monoid.label(self.monoid.unit):
            b = self._mul(b, col(t.base.elements[0]).payload[0])
        return self._value(cod, (self._mul(a, b), y))


@pytest.mark.parametrize(
    "broken,law",
    [(_LeakyWriter(get_monoid("Z2")), "kleisli_assoc"),
     (_MisplacedWriter(get_monoid("Z2")), "kleisli_assoc"),
     (_LabelDroppingWriter(get_monoid("Z3")), "c_naturality"),
     (_BROKEN_COMPOSITE, "functor_composition"),
     (_LATE_NATURALITY, "c_naturality"),
     (_SkewLaxWriter(get_monoid("Z3")), "c_associativity"),
     (_NonLocalWriter(get_monoid("Z2")), "kleisli_assoc")],
)
def test_fast_paths_report_the_unmemoized_witness(broken, law):
    report = check_monad_laws(broken, [1, 2])
    assert report.witness["law"] == law
    assert report.to_json() == oracle_law_report(broken, [1, 2])


class _UnitLaxWriter(WriterMonad):
    """Writer monad whose lax_c writes the unit label: every law holds on
    the one set S2."""

    def lax_c(self, t, u):
        out = super().lax_c(t, u)
        return self._value(out.base, (self.monoid.label(self.monoid.unit), out.payload[1]))


class _ForgetfulMapWriter(_UnitLaxWriter):
    """_UnitLaxWriter whose map drops the label along every function that is
    not injective (with the writer's lax_c, c-naturality would see the
    dropped labels first).  On the one set S2 that is still a functor, since
    a composite of maps S2 -> S2 is injective exactly when both maps are,
    and natural for this lax_c, with the writer's own unit and extend; so
    the first nine laws hold, and mapping along a constant is not extending
    along the unit after it."""

    def map(self, f, t):
        out = super().map(f, t)
        if len(set(f.mapping)) == len(f.mapping):
            return out
        return self._value(out.base, (self.monoid.label(self.monoid.unit), out.payload[1]))


def test_a_map_that_drops_its_label_fails_only_map_is_unit_extension():
    broken = _ForgetfulMapWriter(get_monoid("Z2"))
    report = check_monad_laws(broken, [2])
    (S2,) = law_sets([2])
    first_labelled = broken.make(S2, ("1", ("s2_1",)))
    assert report.witness == {"law": "map_is_unit_extension", "inputs": [first_labelled]}
    assert report.to_json() == oracle_law_report(broken, [2])
    # With the writer's own map, every law holds.
    assert check_monad_laws(_UnitLaxWriter(get_monoid("Z2")), [2]).passed


@pytest.fixture
def scan_free(monkeypatch):
    """_law_table with the equation of every law that has a decision replaced
    by pytest.fail: a check that passes never scanned those laws."""
    law_table = monads._law_table

    def table(*args):
        return tuple(
            (law, variables, holds if decision is None else
             (lambda *a, law=law: pytest.fail(f"{law} was scanned")), witness, decision)
            for law, variables, holds, witness, decision in law_table(*args)
        )

    monkeypatch.setattr(monads, "_law_table", table)


@pytest.mark.parametrize("monad_id", DIFFERENTIAL)
def test_decisions_hold_without_the_scan(scan_free, monad_id):
    assert check_monad_laws(get_instance(monad_id), [1, 2]).passed


@pytest.mark.parametrize("monad_id", ["writer:Z3", "P", "writer:Z2xZ2"])
def test_decisions_hold_without_the_scan_at_sizes_1_2_3(scan_free, monad_id):
    assert check_monad_laws(get_instance(monad_id), [1, 2, 3]).passed


def rows_assoc_holds(inst, X, Y, Z, pools):
    """Kleisli associativity for every (t, k, h) of the pools, by a row
    comparison per kernel pair (k, h): per k, the row ext(k, t) over t in TX
    and k's column row; per h, the table ext(h, s) over every listed s in TY.
    The left row is h's table read at k's extension row, and the right row
    extend(h . k, t) over t is memoized per composite."""
    tx = pools["t"]
    ty, tz = monads._Listing(pools["u"]), monads._Listing(pools["v"])

    def right_row(cols):
        col = dict(zip(X.elements, (tz[i] for i in cols))).__getitem__
        return tuple(tz(inst.extend(col, Z, t)) for t in tx)

    k_rows = [
        (tuple(ty(inst.extend(k, Y, t)) for t in tx), tuple(map(ty, k.columns)))
        for k in pools["k"]
    ]
    h_tables = [tuple(tz(inst.extend(h, Z, s)) for s in ty) for h in pools["h"]]
    rights = monads._Memo(right_row)
    for ext_row, col_row in k_rows:
        lefts = list(map(monads._row_reader(ext_row), h_tables))
        if lefts != list(map(rights.__getitem__, map(monads._row_reader(col_row), h_tables))):
            return False
    return True


def kleisli_assoc_decision(inst, X, Y, Z):
    return {law[0]: law[4] for law in monads._law_table(inst, X, Y, Z)}["kleisli_assoc"]


BROKEN_WRITERS = {
    "broken-unit": _BrokenWriter(get_monoid("Z2")),
    "non-associative": _NonAssociativeWriter(get_monoid("Z3")),
    "leaky": _LeakyWriter(get_monoid("Z2")),
    "label-dropping": _LabelDroppingWriter(get_monoid("Z3")),
    "misplaced": _MisplacedWriter(get_monoid("Z2")),
    "broken-composite": _BROKEN_COMPOSITE,
    "late-naturality": _LATE_NATURALITY,
    "skew-lax": _SkewLaxWriter(get_monoid("Z3")),
    "non-local": _NonLocalWriter(get_monoid("Z2")),
}
# The broken writers on which Kleisli associativity fails, or its decision
# meets a value it cannot name and says False.
KLEISLI_BROKEN = {"non-associative", "leaky", "misplaced", "non-local"}
PATTERN_CASES = (
    [(monad_id, [1, 2]) for monad_id in DIFFERENTIAL]
    + [("writer:Z3", [1, 2, 3]), ("P", [1, 2, 3])]
    + [(name, [1, 2]) for name in BROKEN_WRITERS]
)


@pytest.mark.parametrize(
    "name,sizes", PATTERN_CASES, ids=[f"{n}-{''.join(map(str, s))}" for n, s in PATTERN_CASES]
)
def test_pattern_decision_agrees_with_the_row_oracle(name, sizes):
    inst = BROKEN_WRITERS.get(name) or get_instance(name)
    new, old = [], []
    for (X, Y, Z), pools in monads.law_pools(inst, law_sets(sizes)).items():
        new.append(monads._decides(kleisli_assoc_decision(inst, X, Y, Z), pools))
        old.append(monads._decides(lambda p: rows_assoc_holds(inst, X, Y, Z, p), pools))
    assert new == old
    assert all(new) == (name not in KLEISLI_BROKEN)


def test_read_coordinates_of_a_function_over_a_product():
    radices = (2, 3, 2)
    cells = list(itertools.product(*map(range, radices)))

    def read(f):
        return monads._read_coordinates([f(*c) for c in cells], radices)

    assert read(lambda a, b, c: 0) == ()
    assert read(lambda a, b, c: a + 10 * c) == (0, 2)
    assert read(lambda a, b, c: b if a else 0) == (0, 1)  # b is read only where a = 1
    assert read(lambda a, b, c: c if b == 2 else 0) == (1, 2)
    assert monads._read_coordinates([], (0, 3)) == ()
    assert monads._first_per_pattern(cells, (0, 2)) == [0, 1, 6, 7]
    assert monads._first_per_pattern(cells, ()) == [0]


def test_kleisli_assoc_compares_one_h_column_per_pattern(monkeypatch):
    inst = get_instance("writer:Z2")
    (S3,) = law_sets([3])
    patterns, first = [], monads._first_per_pattern
    monkeypatch.setattr(
        monads, "_first_per_pattern", lambda *args: patterns.append(first(*args)) or patterns[-1]
    )
    pools = monads.law_pools(inst, [S3])[S3, S3, S3]
    assert kleisli_assoc_decision(inst, S3, S3, S3)(pools)
    # writer:Z2 has 6 values over S3, so 216 kernels k and 216 kernels h,
    # 46,656 pairs (k, h).  An extension of (a, x) reads the column at x
    # alone, so each of the 6 values t meets 6 patterns of k, and each
    # pattern is compared over the 216 h.
    assert (len(pools["k"]), len(pools["h"])) == (216, 216)
    assert [len(p) for p in patterns] == [6] * 6
    assert sum(map(len, patterns)) * len(pools["h"]) == 7776


@pytest.mark.parametrize("monad_id", ["F(B=1)", "F(B=2)", "writer:Z3"])
def test_kleisli_assoc_without_measuring_extends_as_often_as_the_rows(monkeypatch, monad_id):
    inst = get_instance(monad_id)
    S1, S2 = law_sets([1, 2])
    X, Y, Z = S2, S1, S2
    pools = monads.law_pools(inst, [S1, S2])[X, Y, Z]
    # |M|^|X| * |TX| exceeds the pairs (k, h) on this table, so M^X is not
    # listed: every k is its own representative.
    monkeypatch.setattr(monads, "_first_per_pattern", lambda *args: pytest.fail("measured"))
    calls, extend = Counter(), type(inst).extend

    def counted(self, *args):
        calls[side] += 1
        return extend(self, *args)

    monkeypatch.setattr(type(inst), "extend", counted)
    side = "decision"
    assert kleisli_assoc_decision(inst, X, Y, Z)(pools)
    side = "rows"
    assert rows_assoc_holds(inst, X, Y, Z, pools)
    assert calls["decision"] == calls["rows"]


@pytest.fixture
def equation_calls(monkeypatch):
    """A Counter of the equation calls per law, filled as the law check runs."""
    calls, law_table = Counter(), monads._law_table

    def counted(law, holds):
        def equation(*args):
            calls[law] += 1
            return holds(*args)
        return equation

    def table(*args):
        return tuple(
            (law, variables, counted(law, holds), witness, decision)
            for law, variables, holds, witness, decision in law_table(*args)
        )

    monkeypatch.setattr(monads, "_law_table", table)
    return calls


def test_laws_that_do_not_name_z_are_scanned_once_per_x_and_y(equation_calls):
    assert check_monad_laws(get_instance("writer:Z3"), [1, 2]).passed
    # writer:Z3 has 3|S| values over S, |S|^|X| functions and (3|Y|)^|X| kernels.
    sizes = list(itertools.product((1, 2), repeat=2))
    assert dict(equation_calls) == {
        "kleisli_left_unit": sum(x * (3 * y) ** x for x, y in sizes),
        "kleisli_right_unit": sum(3 * y for y in (1, 2)),
        "functor_identity": sum(3 * x for x in (1, 2)),
        "unit_naturality": sum(x * y**x for x, y in sizes),
        "c_symmetry": sum(3 * x * 3 * y for x, y in sizes),
        "map_is_unit_extension": sum(3 * x * y**x for x, y in sizes),
    }


@pytest.fixture
def refused_pairs(monkeypatch):
    """The kernel-pair figure with which check_monad_laws refuses a law check,
    with no law run and LAW_PAIR_BUDGET at 0."""
    monkeypatch.setattr(monads, "_law_table", lambda *a: pytest.fail("a law ran"))
    monkeypatch.setattr(monads, "LAW_PAIR_BUDGET", 0)

    def pairs(monad_id, sizes):
        with pytest.raises(NotEnumerable) as refusal:
            check_monad_laws(get_instance(monad_id), sizes)
        match = re.fullmatch(
            rf"{re.escape(monad_id)}: (\d+) kernel pairs of the law check"
            " exceed the law-check budget of 0",
            str(refusal.value),
        )
        assert match, str(refusal.value)
        return int(match.group(1))

    return pairs


def test_law_check_refusals_count_kernel_pairs_per_table(refused_pairs):
    # |K(X, Y)| = |TY|^|X|; writer:Z3 has 3 |S| values over S.
    k = {(x, y): (3 * y) ** x for x in (1, 2) for y in (1, 2)}
    expected = sum(k[x, y] * k[y, z] for x, y, z in itertools.product((1, 2), repeat=3))
    assert refused_pairs("writer:Z3", [1, 2]) == expected
    assert refused_pairs("writer:Z3", [1, 2, 3]) == 829278
    assert refused_pairs("writer:Z2xZ2", [1, 2, 3]) == 4473568
    # A kernel enumeration over its own budget is refused by budgeted_product,
    # before the pairs are counted.
    with pytest.raises(NotEnumerable, match="at least 1185921 kernels S2 -> S2 exceed"):
        check_monad_laws(get_instance("F"), [2])


def test_law_check_over_a_budget_is_refused_before_any_law(monkeypatch):
    monkeypatch.setattr(monads, "_law_table", lambda *a: pytest.fail("a law ran"))
    # The kernels S1 -> S3 of F (35,937 of them) are the second pool listed,
    # after the kernels S1 -> S1.
    with pytest.raises(NotEnumerable, match="at least 20001 kernels S1 -> S3 exceed"):
        check_monad_laws(get_instance("F"), [1, 3])
    monkeypatch.setattr(monads, "LAW_PAIR_BUDGET", 100)
    # writer:Z2 has 2 |S| values over S, so |K(X, Y)| = (2 |Y|)^|X|.
    k = {(x, y): (2 * y) ** x for x in (1, 2) for y in (1, 2)}
    pairs = sum(k[x, y] * k[y, z] for x, y, z in itertools.product((1, 2), repeat=3))
    with pytest.raises(NotEnumerable, match=f"{pairs} kernel pairs of the law check exceed"
                                            " the law-check budget of 100"):
        check_monad_laws(get_instance("writer:Z2"), [1, 2])
    assert LAW_PAIR_BUDGET == 10**7


def test_each_kernel_pool_is_listed_once_per_ordered_pair_of_sets(monkeypatch):
    calls, enumerate_kernels = [], kernels.enumerate_kernels

    def counted(inst, dom, cod):
        calls.append((dom.name, cod.name))
        return enumerate_kernels(inst, dom, cod)

    monkeypatch.setattr(kernels, "enumerate_kernels", counted)
    assert check_monad_laws(get_instance("writer:Z2"), [1, 2, 3]).passed
    names = [f"S{n}" for n in (1, 2, 3)]
    assert calls == list(itertools.product(names, repeat=2))


def test_every_table_shares_the_pools_of_its_objects():
    S1, S2 = law_sets([1, 2])
    tables = monads.law_pools(get_instance("writer:Z2"), [S1, S2])
    assert list(tables) == list(itertools.product([S1, S2], repeat=3))
    a, b = tables[S1, S2, S1], tables[S2, S1, S2]
    assert a["t"] is a["v"] is b["u"] and a["u"] is b["t"]
    assert a["k"] is not a["h"] and a["k"] is tables[S1, S2, S2]["k"]
    assert a["h"] is b["k"] and a["g"] is b["f"] and a["g"] is not a["h"]
    assert a["x"] is S1.elements


def test_randomized_law_check_finds_the_broken_assoc():
    broken = _NonAssociativeWriter(get_monoid("Z3"))
    report = check_monad_laws(broken, [1, 2], mode="randomized", trials=200, seed=1)
    assert not report.passed
    assert (report.trials, report.seed) == (200, 1)
    assert report.witness["law"] == "kleisli_assoc"
    # The witness t breaks associativity for some exhaustively listed k and h.
    (t,) = report.witness["inputs"]
    sets = [FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(1, n + 1)]) for n in (1, 2)]
    assert any(
        broken.extend(h, w, broken.extend(k, v, t))
        != broken.extend(lambda e: broken.extend(h, w, k(e)), w, t)
        for v, w in itertools.product(sets, repeat=2)
        for k in enumerate_kernels(broken, t.base, v)
        for h in enumerate_kernels(broken, v, w)
    )


def test_measure_extend_is_matrix_composition():
    m = get_instance("M")
    t = m.make(X, (Fraction(1, 2), Fraction(1, 3)))
    cols = {
        ("x0",): m.make(Y, (Fraction(1), Fraction(2))),
        ("x1",): m.make(Y, (Fraction(0), Fraction(4))),
    }
    out = m.extend(cols.__getitem__, Y, t)
    assert out.payload.entries() == (Fraction(1, 2), Fraction(7, 3))


def test_lax_c_is_the_outer_product():
    m = get_instance("M")
    t = m.make(X, (Fraction(2), Fraction(3)))
    u = m.make(Y, (Fraction(1, 2), Fraction(0)))
    tu = m.lax_c(t, u)
    assert tu.base == product([X, Y])
    assert tu.payload.entries() == (Fraction(1), Fraction(0), Fraction(3, 2), Fraction(0))


def test_strength_pins_the_first_coordinate():
    d = get_instance("D")
    u = d.make(Y, (Fraction(1, 4), Fraction(3, 4)))
    s = d.strength(X, ("x1",), u)
    assert s.payload.entries() == (Fraction(0), Fraction(0), Fraction(1, 4), Fraction(3, 4))


def test_writer_extend_multiplies_labels():
    w = get_instance("writer:Z2")
    t = w.make(X, ("1", ("x0",)))
    col = lambda e: w.make(Y, ("1", ("y1",)))
    assert w.extend(col, Y, t).payload == ("0", ("y1",))


def test_powerset_extend_is_relation_composition():
    p = get_instance("P")
    t = p.make(X, frozenset({("x0",), ("x1",)}))
    cols = {
        ("x0",): p.make(Y, frozenset({("y0",)})),
        ("x1",): p.make(Y, frozenset()),
    }
    assert p.extend(cols.__getitem__, Y, t).payload == frozenset({("y0",)})


@dataclasses.dataclass(frozen=True)
class DataclassTValue:
    """TValue as the frozen dataclass it was: the oracle of its equality,
    hash and repr."""

    monad: str
    base: FinSet
    payload: object


def _values_to_compare() -> list:
    """Every value of each enumerable library instance over sets of sizes 0
    to 2, and seeded M, M* and D samples over sets of sizes 1 and 2.  Each
    size has three bases: a set "S<n>", a second object built with the same
    name and elements, and an equal set named "R<n>"."""
    rng = random.Random(5)
    values = []
    for n in (0, 1, 2):
        labels = [f"e{i}" for i in range(n)]
        for base in (FinSet.of(f"S{n}", labels), FinSet.of(f"S{n}", labels),
                     FinSet.of(f"R{n}", labels)):
            for monad_id in ALL_MONAD_IDS:
                inst = get_instance(monad_id)
                if inst.enumerable:
                    values += inst.enumerate_values(base)
                elif n:
                    values += (inst.sample(base, rng) for _ in range(10))
    return values


def test_tvalue_equality_and_hash_are_the_frozen_dataclass_ones():
    pairs = [(v, DataclassTValue(v.monad.id, v.base, v.payload)) for v in _values_to_compare()]
    assert {v.monad.id for v, _ in pairs} == set(ALL_MONAD_IDS)
    for v, o in pairs:
        assert hash(v) == hash(o)
        assert repr(v) == repr(o).replace("DataclassTValue", "TValue", 1)
        assert v != o and not v == (v.monad.id, v.base, v.payload)
    # Values are equal only with equal payloads, so the pairs that can be
    # equal meet in the payload groups; the values over sets of size <= 1
    # are also compared all against all, across payloads and monads.
    groups = {}
    for pair in pairs:
        groups.setdefault(pair[0].payload, []).append(pair)
    small = [pair for pair in pairs if len(pair[0].base) <= 1]
    assert max(map(len, groups.values())) > 3  # equal payloads over other monads
    for group in [*groups.values(), small]:
        for (v, o), (w, p) in itertools.product(group, repeat=2):
            assert (v == w) == (o == p)
            assert (v != w) == (o != p)


def test_tvalue_is_immutable_and_copies_to_an_equal_value():
    t = get_instance("M").make(X, (1, Fraction(1, 2)))
    for field in ("monad", "base", "payload", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, field, None)
    for field in ("monad", "base", "payload"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(t, field)
    for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert copied == t and hash(copied) == hash(t)
        assert copied.base._uid == X._uid


def _map_by_elements(inst, f: FinFun, t: TValue) -> TValue:
    """The pushforward summed element by element: each element of t's base
    is looked up in f's domain, and its image in f's codomain."""
    nums = [0] * len(f.cod)
    for e, n in zip(t.base.elements, t.payload.nums):
        nums[f.cod.index(f(e))] += n
    return TValue(inst, f.cod, Table(tuple(nums), t.payload.den))


@pytest.mark.parametrize("monad_id", ["M", "D", "F(B=2)"])
def test_table_map_is_the_element_by_element_sum(monad_id):
    inst = get_instance(monad_id)
    rng = random.Random(7)
    sets = [FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(n)]) for n in (1, 2, 3)]
    for dom in sets:
        if inst.enumerable:
            values = list(inst.enumerate_values(dom))
        else:
            values = [inst.sample(dom, rng) for _ in range(20)]
        for cod in sets:
            for f in enumerate_functions(dom, cod):
                for t in values:
                    out = inst.map(f, t)
                    assert out == _map_by_elements(inst, f, t)
                    assert out.base is f.cod


@pytest.mark.parametrize("monad_id", ["M", "D", "F(B=2)"])
def test_table_map_refuses_a_value_off_the_domain(monad_id):
    inst = get_instance(monad_id)
    f = swap_fun(X, Y)
    xy = product([X, Y])
    renamed = FinSet("XY", xy.elements)
    reordered = FinSet("XY", xy.elements[::-1])
    table = (1, 0, 0, 0)
    assert inst.map(f, inst.make(renamed, table)) == inst.map(f, inst.make(xy, table))
    for base in (reordered, product([Y, X])):
        with pytest.raises(MalformedInput):
            inst.map(f, inst.make(base, table))


def test_payload_validation():
    with pytest.raises(PayloadInvalid):
        get_instance("M").make(X, (Fraction(-1), Fraction(0)))
    with pytest.raises(PayloadInvalid):
        get_instance("M*").make(X, (Fraction(0), Fraction(0)))
    with pytest.raises(PayloadInvalid):
        get_instance("D").make(X, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(PayloadInvalid):
        get_instance("P*").make(X, frozenset())
    with pytest.raises(OutOfBound):
        get_instance("F").value_from_json(X, {"entries": {"x0": 17}})


@pytest.mark.parametrize(
    "payload", [(1.5, True), (1, True), (False, 0), (1.0, 0), (Fraction(1), 0), ("1", 0)]
)
def test_free_abelian_make_takes_integers_only(payload):
    with pytest.raises(PayloadInvalid):
        get_instance("F").make(X, payload)


@pytest.mark.parametrize("monad_id", ["M", "M*", "D"])
@pytest.mark.parametrize(
    "payload",
    [(0.1, 0.9), (0.5, 0.5), (True, False), ("1e-1", " 1/2 "), ("1", 0), (Fraction(1), None)],
)
def test_measure_make_takes_ints_and_fractions_only(monad_id, payload):
    # A float is not taken as the binary fraction it stores, a bool not as
    # 0 or 1, and a string not as the rational it spells; JSON text is
    # decoded by parse_rat before it gets here.
    with pytest.raises(PayloadInvalid):
        get_instance(monad_id).make(X, payload)


def test_free_abelian_bound_applies_only_where_values_enter():
    f = get_instance("F", bound=2)
    assert f.value_from_json(X, {"entries": {"x0": -2}}).payload.entries() == (-2, 0)
    with pytest.raises(OutOfBound):
        f.value_from_json(X, {"entries": {"x1": -3}})
    # Inside the program arithmetic is exact: products leave the bound.
    t = f.make(X, (2, -2))
    assert f.lax_c(t, t).payload.entries() == (4, -4, -4, 4)
    assert f.make(X, (17, 0)).payload.entries() == (17, 0)
    rng = random.Random(5)
    assert all(abs(v) <= 1 for _ in range(20) for v in f.sample(X, rng).payload.entries())


def test_free_abelian_enumeration_respects_bound():
    f = FreeAbelianMonad(bound=2)
    values = list(f.enumerate_values(UNIT))
    assert len(values) == 5  # multiplicities -2..2
    assert f.id == "F(B=2)"


def test_budgeted_product_is_the_product_within_the_budget():
    pools = [iter("ab"), ["x"], range(3)]
    assert list(budgeted_product(pools, "t", "things")) == list(
        itertools.product("ab", ["x"], range(3))
    )
    assert list(budgeted_product([], "t", "things")) == [()]


def test_budgeted_product_refuses_before_reading_a_pool_past_the_budget():
    # An endless pool is read ENUMERATION_BUDGET + 1 deep, then refused.
    endless = itertools.count()
    with pytest.raises(NotEnumerable, match=f"t: at least {ENUMERATION_BUDGET + 1} things"):
        budgeted_product([endless], "t", "things")
    assert next(endless) == ENUMERATION_BUDGET + 1
    # The refusal comes as soon as the running product passes the budget,
    # before a later pool is touched.
    later = itertools.count()
    with pytest.raises(NotEnumerable, match="at least 20100 things"):
        budgeted_product([range(201), range(100), later], "t", "things")
    assert next(later) == 0


def test_enumeration_counts():
    assert len(list(get_instance("Id").enumerate_values(X))) == 2
    assert len(list(get_instance("P").enumerate_values(X))) == 4
    assert len(list(get_instance("P*").enumerate_values(X))) == 3
    assert len(list(get_instance("writer:Z3").enumerate_values(X))) == 6


EXPECTED_KIND = {
    "Id": "affine",
    "D": "affine",
    "P*": "affine",
    "M*": "weakly_affine_not_affine",
    "writer:Z2": "weakly_affine_not_affine",
    "writer:Z3": "weakly_affine_not_affine",
    "M": "not_weakly_affine",
    "P": "not_weakly_affine",
    "writer:AND": "not_weakly_affine",
    "F": "not_weakly_affine",
}


@pytest.mark.parametrize("monad_id", ALL_MONAD_IDS)
def test_classification_table(monad_id):
    cls = classify(get_instance(monad_id))
    assert cls.kind == EXPECTED_KIND[monad_id]


def test_classification_witnesses():
    m_cls = classify(get_instance("M"))
    assert m_cls.witness.payload.entries() == (Fraction(0),)  # the scalar 0
    f_cls = classify(get_instance("F"))
    assert f_cls.witness.payload.entries() == (2,)  # 2 has no inverse within the bound
    assert classify(get_instance("F", bound=1)).witness.payload.entries() == (0,)
    assert classify(get_instance("P")).witness.payload == frozenset()  # enumerated first
    and_cls = classify(get_instance("writer:AND"))
    assert and_cls.witness.payload[0] == "0"


def test_sampling_is_deterministic_and_valid():
    for monad_id in ALL_MONAD_IDS:
        inst = get_instance(monad_id)
        rng_a, rng_b = random.Random(3), random.Random(3)
        a = [inst.sample(X, rng_a) for _ in range(5)]
        b = [inst.sample(X, rng_b) for _ in range(5)]
        assert a == b


def test_registry_rejects_unknown_ids():
    with pytest.raises(UnknownMonad):
        get_instance("bogus")
    with pytest.raises(UnknownMonad):
        get_instance("writer:nope")


def test_value_of_an_unregistered_instance_still_describes():
    custom = dataclasses.replace(get_monoid("Z2"), name="custom")
    t = WriterMonad(custom).unit(X, ("x1",))
    spelled = '{"elements":["0","1"],"name":"custom","table":[[0,1],[1,0]],"unit":0}'
    assert t.describe() == f"writer:{spelled}(0, x1)"


# Sampling over the empty set where no value exists there.  Each run is a
# subprocess, so that a sampler that draws forever fails on the timeout
# instead of hanging the suite.
EMPTY_SAMPLE = """
import random, sys
from gsmon.errors import PayloadInvalid
from gsmon.finset import FinSet
from gsmon.monads import get_instance
try:
    get_instance(sys.argv[1]).sample(FinSet.of("E", []), random.Random(1))
except PayloadInvalid as exc:
    print(exc)
"""


@pytest.mark.parametrize("monad_id", ["M*", "D", "P*"])
def test_a_retrying_sampler_refuses_the_empty_set(monad_id):
    src = os.path.dirname(os.path.dirname(monads.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", EMPTY_SAMPLE, monad_id],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{monad_id}: no value over the empty set E\n"


def test_samplers_over_the_empty_set():
    E = FinSet.of("E", [])
    for monad_id in ALL_MONAD_IDS:
        inst = get_instance(monad_id)
        if inst.has_zero:
            assert inst.sample(E, random.Random(1)) == inst.zero(E)
        elif monad_id not in ("M*", "D", "P*"):  # the retrying ones run above
            with pytest.raises(PayloadInvalid, match="no value over the empty set E"):
                inst.sample(E, random.Random(1))


@pytest.mark.parametrize("bound", [0, -1])
def test_free_abelian_bound_below_1_is_refused(bound):
    with pytest.raises(UnknownMonad):
        FreeAbelianMonad(bound)
    with pytest.raises(UnknownMonad):
        get_instance("F", bound=bound)
