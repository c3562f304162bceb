import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gsmon.errors import MalformedInput, UnknownMonad
from gsmon.finset import FinSet, product
from gsmon.jsonio import (
    dump_json,
    finset_from_json,
    finset_to_json,
    kernel_from_json,
    kernel_to_json,
    load_json,
    tvalue_from_json,
    tvalue_to_json,
)
from gsmon.kernels import Kernel, sample_kernel
from gsmon.monads import (
    ALL_MONAD_IDS,
    FreeAbelianMonad,
    MeasureMonad,
    WriterMonad,
    classify,
    get_instance,
)
from gsmon.monoid import MONOID_LIBRARY, FiniteMonoid, get_monoid

X = FinSet.of("X", ["x0", "x1"])
Y = FinSet.of("Y", ["y0", "y1"])


def test_finset_round_trip():
    data = finset_to_json(X)
    assert data == {"name": "X", "elements": ["x0", "x1"]}
    assert finset_from_json(data) == X


def test_monoid_round_trip():
    m = get_monoid("Z2xZ2")
    data = json.loads(json.dumps(m.to_json()))
    assert data["name"] == "Z2xZ2"
    assert FiniteMonoid.from_json(data) == m


@pytest.mark.parametrize(
    "monad_id,payload",
    [
        ("M", (Fraction(0), Fraction(5, 3))),
        ("M*", (Fraction(1, 2), Fraction(2))),
        ("D", (Fraction(1, 4), Fraction(3, 4))),
        ("F", (-2, 3)),
        ("P", frozenset({("x0",)})),
        ("P", frozenset()),
        ("P*", frozenset({("x0",), ("x1",)})),
        ("writer:Z2", ("1", ("x1",))),
        ("Id", ("x0",)),
        ("F(B=3)", (-3, 1)),
    ],
)
def test_tvalue_round_trip(monad_id, payload):
    inst = get_instance(monad_id)
    t = inst.make(X, payload)
    data = tvalue_to_json(t)
    assert data["monad"] == inst.id == monad_id
    assert tvalue_from_json(data, inst=inst, base=X) == t
    assert tvalue_from_json(data, base=X) == t


def test_measure_json_omits_zeros():
    m = get_instance("M")
    t = m.make(X, (Fraction(0), Fraction(2)))
    assert tvalue_to_json(t)["entries"] == {"x1": "2"}


def test_kernel_round_trip():
    mstar = get_instance("M*")
    cod = product([X, Y])
    k = Kernel(
        mstar,
        FinSet.of("A", ["a0"]),
        cod,
        [mstar.make(cod, (Fraction(1), Fraction(2), Fraction(0), Fraction(3)))],
    )
    again, factors = kernel_from_json(kernel_to_json(k))
    assert again == k
    assert factors is None


# Every instance: the registry's, a writer monad per library monoid, and F
# with any bound.
instances = st.sampled_from(
    ALL_MONAD_IDS + [f"writer:{name}" for name in sorted(MONOID_LIBRARY)]
).map(get_instance) | st.integers(min_value=1, max_value=1000).map(FreeAbelianMonad)


@given(instances)
def test_instance_id_round_trip(inst):
    again = get_instance(inst.id)
    assert again.id == inst.id
    assert getattr(again, "bound", None) == getattr(inst, "bound", None)


@given(
    instances,
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32),
)
def test_kernel_json_round_trip(inst, dom_size, cod_size, seed):
    dom = FinSet.of("A", [f"a{i}" for i in range(dom_size)])
    cod = FinSet.of("B", [f"b{i}" for i in range(cod_size)])
    k = sample_kernel(inst, dom, cod, random.Random(seed))
    again, _ = kernel_from_json(kernel_to_json(k))
    assert again == k
    assert getattr(again.inst, "bound", None) == getattr(inst, "bound", None)


def test_bounded_f_kernel_keeps_its_bound():
    f3 = get_instance("F", bound=3)
    k = Kernel(f3, FinSet.of("A", ["a0"]), X, [f3.make(X, (3, -2))])
    data = kernel_to_json(k)
    assert data["monad"] == "F(B=3)"
    again, _ = kernel_from_json(data)
    assert again == k
    assert again.inst.bound == 3


def test_writers_round_trip_a_writer_over_a_renamed_monoid():
    # AND renamed Z2 keeps AND's table and verdict, instead of reading back
    # as the library Z2 group writer; Z3 renamed C3, outside the library,
    # reads back too.
    and_z2 = WriterMonad(dataclasses.replace(get_monoid("AND"), name="Z2"))
    c3 = WriterMonad(dataclasses.replace(get_monoid("Z3"), name="C3"))
    for inst in (and_z2, c3):
        assert inst.id.startswith("writer:{") and inst.id != "writer:Z2"
        k = Kernel(inst, X, Y, [inst.make(Y, ("0", ("y0",))), inst.make(Y, ("1", ("y1",)))])
        data = json.loads(json.dumps(kernel_to_json(k)))
        assert data["monad"] == inst.id
        again, _ = kernel_from_json(data)
        assert again == k and again.inst.monoid == inst.monoid
        value = tvalue_from_json(json.loads(json.dumps(tvalue_to_json(k.columns[0]))), base=Y)
        assert value == k.columns[0] and value.monad.monoid == inst.monoid
        assert classify(again.inst).kind == classify(inst).kind
    assert classify(and_z2).kind == "not_weakly_affine"
    assert classify(get_instance("writer:Z2")).kind == "weakly_affine_not_affine"


def test_writers_refuse_an_id_that_does_not_read_back():
    class Q(MeasureMonad):
        id = "Q"

    inst = Q()
    t = inst.make(X, (Fraction(1), Fraction(0)))
    with pytest.raises(UnknownMonad, match="Q does not read back"):
        tvalue_to_json(t)
    with pytest.raises(UnknownMonad, match="Q does not read back"):
        kernel_to_json(Kernel(inst, X, X, [t, t]))


def test_kernel_with_factor_codomain():
    data = {
        "monad": "M",
        "dom": {"name": "A", "elements": ["a0"]},
        "cod": {
            "factors": [
                {"name": "X", "elements": ["x0", "x1"]},
                {"name": "Y", "elements": ["y0", "y1"]},
            ]
        },
        "columns": {"a0": {"entries": {"x0,y0": "1/2", "x1,y1": "1/2"}}},
    }
    k, factors = kernel_from_json(data)
    assert [f.name for f in factors] == ["X", "Y"]
    assert k.cod == product([X, Y])
    assert k(("a0",)).payload.entries()[0] == Fraction(1, 2)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("columns"),
        lambda d: d["columns"].pop("a0"),
        lambda d: d["columns"]["a0"]["entries"].update({"zz": "1"}),
        lambda d: d["columns"]["a0"]["entries"].update({"x0,y0": "1.5"}),
        lambda d: d.update({"monad": "bogus"}),
    ],
)
def test_malformed_kernels_rejected(mutate):
    data = {
        "monad": "M",
        "dom": {"name": "A", "elements": ["a0"]},
        "cod": {
            "factors": [
                {"name": "X", "elements": ["x0", "x1"]},
                {"name": "Y", "elements": ["y0", "y1"]},
            ]
        },
        "columns": {"a0": {"entries": {"x0,y0": "1/2"}}},
    }
    mutate(data)
    with pytest.raises(Exception):
        kernel_from_json(data)


def test_a_column_outside_the_domain_is_refused_by_its_key():
    data = {
        "monad": "M*",
        "dom": {"name": "A", "elements": ["a0"]},
        "cod": {"name": "X", "elements": ["x0", "x1"]},
        "columns": {
            "a0": {"entries": {"x0": "1"}},
            "a9": {"entries": {"bogus": "1"}},
            "a8": {"entries": {"x0": "1"}},
        },
    }
    with pytest.raises(MalformedInput, match=r"^column 'a9' is not an element of the domain$"):
        kernel_from_json(data)
    del data["columns"]["a9"], data["columns"]["a8"]
    assert kernel_from_json(data)[0].columns[0].payload.entries()[0] == 1


def test_dump_and_load(tmp_path):
    path = str(tmp_path / "doc.json")
    text = dump_json({"b": 1, "a": [True, None]}, path)
    assert text.endswith("\n")
    assert load_json(path) == json.loads(text)
    with pytest.raises(MalformedInput):
        load_json(str(tmp_path / "missing.json"))


def test_dump_is_key_sorted():
    assert dump_json({"b": 1, "a": 2}).index('"a"') < dump_json({"b": 1, "a": 2}).index('"b"')


# Every commutative monoid of order <= 4, as a Cayley table on 0..n-1 with
# unit 0: the 106 tables, each under a library name of its order (Z<n>),
# under a name outside the library (C) and under the name of another
# library monoid (AND).


def commutative_tables(n: int):
    """Every commutative, associative table on 0..n-1 with unit 0."""
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    for values in itertools.product(range(n), repeat=len(cells)):
        t = [[i if j == 0 else j if i == 0 else None for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, values):
            t[i][j] = t[j][i] = v
        if all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)):
            yield tuple(map(tuple, t))


ALL_SMALL_MONOIDS = [
    FiniteMonoid(name, tuple(str(i) for i in range(n)), 0, table)
    for n in range(1, 5)
    for table in commutative_tables(n)
    for name in (f"Z{n}", "C", "AND")
]


def test_there_are_106_commutative_monoid_tables_of_order_at_most_4():
    assert len(ALL_SMALL_MONOIDS) == 3 * 106


def test_every_writer_over_a_small_monoid_round_trips():
    A = FinSet.of("A", ["a0", "a1"])
    named = set()
    for m in ALL_SMALL_MONOIDS:
        inst = WriterMonad(m)
        if "{" not in inst.id:
            named.add(inst.id)
        again = get_instance(inst.id)
        assert again.id == inst.id and again.monoid == m
        assert (inst.id == f"writer:{m.name}") == (MONOID_LIBRARY.get(m.name) == m)
        labels = m.elements
        k = Kernel(inst, A, Y, [inst.make(Y, (labels[-1], ("y1",))), inst.make(Y, (labels[0], ("y0",)))])
        read, _ = kernel_from_json(json.loads(json.dumps(kernel_to_json(k))))
        assert read == k and read.inst.monoid == m
        t = k.columns[0]
        assert tvalue_from_json(json.loads(json.dumps(tvalue_to_json(t))), base=Y) == t
    assert named == {"writer:Z1", "writer:Z2", "writer:Z3", "writer:Z4"}

