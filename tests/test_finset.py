import pytest

from gsmon import finset
from gsmon.cli import main
from gsmon.errors import EmptyCodomain, MalformedInput
from gsmon.finset import (
    FinFun,
    FinSet,
    UNIT,
    elem_from_str,
    elem_to_str,
    enumerate_functions,
    identity_fun,
    pair_fun,
    product,
    projection_fun,
    swap_fun,
)

X = FinSet.of("X", ["x0", "x1"])
Y = FinSet.of("Y", ["y0", "y1", "y2"])


def fun_from_callable(dom, cod, fn):
    """The FinFun of a Python function on elements, one index lookup per
    element: the oracle for the maps built by index arithmetic."""
    return FinFun(dom, cod, tuple(cod.index(fn(e)) for e in dom))


def test_product_is_strictly_unital():
    assert product([X, UNIT]) == X
    assert product([UNIT, X]) == X
    assert product([UNIT, UNIT]) == UNIT
    assert product([]) == UNIT


def test_product_is_strictly_associative():
    assert product([product([X, Y]), X]) == product([X, product([Y, X])])
    assert product([X, Y, X]) == product([product([X, Y]), X])


def test_product_order_is_lexicographic():
    xy = product([X, Y])
    assert xy.elements[0] == ("x0", "y0")
    assert xy.elements[1] == ("x0", "y1")
    assert len(xy) == 6


def test_set_equality_ignores_name():
    assert FinSet.of("A", ["x0", "x1"]) == X
    assert hash(FinSet.of("A", ["x0", "x1"])) == hash(X)


def test_products_of_equal_sets_keep_their_names():
    a = FinSet.of("A", ["p", "q"])
    b = FinSet.of("B", ["p", "q"])
    assert a == b and hash(a) == hash(b)
    assert product([a, a]).name == "AxA"
    assert product([b, b]).name == "BxB"
    assert product([a, b]).name == "AxB"
    assert product([a, b]) is product([FinSet.of("A", ["p", "q"]), b])
    c, d = FinSet.of("C", ["p", "q"]), FinSet.of("D", ["p", "q"])
    assert product([c, d]).name == "CxD"
    assert product([c, d]) == product([a, b]) and product([c, d]) is not product([a, b])


def test_rebuilding_equal_sets_adds_no_product_or_number():
    a = FinSet.of("A", ["p", "q"])
    b = FinSet.of("B", ["p", "q", "r"])
    ab = product([a, b])
    sizes = len(finset._products), len(finset._uids)
    for _ in range(100):
        fresh_a = FinSet.of("A", ["p", "q"])
        fresh_b = FinSet.of("B", ["p", "q", "r"])
        assert fresh_a is not a and fresh_a._uid == a._uid
        assert product([fresh_a, fresh_b]) is ab
    assert (len(finset._products), len(finset._uids)) == sizes


def test_a_repeated_cli_check_adds_no_product_or_number(capsys):
    argv = ["check", "pullback", "--square", "assoc", "--monad", "M*", "--sizes", "2,2,2",
            "--mode", "random", "--trials", "20", "--seed", "1"]
    assert main(argv) == 0
    sizes = len(finset._products), len(finset._uids)
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert (len(finset._products), len(finset._uids)) == sizes


def test_duplicate_and_mixed_arity_rejected():
    with pytest.raises(MalformedInput):
        FinSet.of("bad", ["a", "a"])
    with pytest.raises(MalformedInput):
        FinSet("bad", (("a",), ("b", "c")))


def test_swap_fun_exchanges_blocks():
    s = swap_fun(X, Y)
    assert s(("x1", "y2")) == ("y2", "x1")


def test_pair_fun_acts_componentwise():
    f = identity_fun(X)
    g = fun_from_callable(Y, X, lambda e: ("x0",))
    fg = pair_fun(f, g)
    assert fg(("x1", "y1")) == ("x1", "x0")


def test_pair_fun_by_index_arithmetic_is_the_componentwise_function():
    sets = [FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(n)]) for n in (1, 2, 3)]
    funs = [f for a in sets for b in sets for f in enumerate_functions(a, b)]
    for f in funs:
        cut = f.dom.arity
        for g in funs:
            expected = fun_from_callable(
                product([f.dom, g.dom]), product([f.cod, g.cod]),
                lambda e: f(e[:cut]) + g(e[cut:]),
            )
            assert pair_fun(f, g) == expected


def test_projection_keeps_requested_factors():
    p = projection_fun([X, Y, X], [0, 2])
    assert p(("x0", "y1", "x1")) == ("x0", "x1")
    q = projection_fun([X, Y], [1])
    assert q(("x0", "y2")) == ("y2",)


def test_enumerate_functions_count_and_error():
    assert len(list(enumerate_functions(X, Y))) == 9
    empty = FinSet("E", ())
    with pytest.raises(EmptyCodomain):
        list(enumerate_functions(X, empty))
    assert list(enumerate_functions(empty, X)) != []  # the unique empty map


def test_a_function_refuses_an_argument_outside_its_domain():
    f = identity_fun(X)
    assert [f(e) for e in X] == list(X.elements)
    with pytest.raises(MalformedInput, match=r"\('y0',\) is not an element of X"):
        f(("y0",))


def test_compose_and_identity():
    f = fun_from_callable(X, Y, lambda e: ("y1",))
    g = fun_from_callable(Y, X, lambda e: ("x0",))
    assert g.compose(f)(("x0",)) == ("x0",)
    assert identity_fun(X).compose(identity_fun(X)).mapping == (0, 1)


def test_elem_str_round_trip():
    assert elem_from_str(elem_to_str(("x0", "y1"))) == ("x0", "y1")
    assert elem_to_str(()) == "*"
    assert elem_from_str("*") == ()
