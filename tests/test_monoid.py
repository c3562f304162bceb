import pytest

from gsmon.errors import InvalidMonoid
from gsmon.monoid import (
    MONOID_LIBRARY,
    FiniteMonoid,
    assoc_square_is_pullback,
    get_monoid,
    group_pullback_agreement,
    is_group,
    mediators,
)

GROUPS = {"Z1", "Z2", "Z3", "Z4", "Z2xZ2"}
NON_GROUPS = {"AND", "Z4mult", "MAX3"}


def test_library_has_at_least_eight_small_monoids():
    assert len(MONOID_LIBRARY) >= 8
    assert all(len(m.elements) <= 4 for m in MONOID_LIBRARY.values())


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_groups_are_groups(name):
    ok, witness = is_group(get_monoid(name))
    assert ok and witness is None


@pytest.mark.parametrize("name", sorted(NON_GROUPS))
def test_non_groups_have_a_witness(name):
    ok, witness = is_group(get_monoid(name))
    assert not ok
    assert witness in get_monoid(name).elements


def test_pullback_oracle_agrees_with_group_test():
    report = group_pullback_agreement(list(MONOID_LIBRARY.values()))
    assert report.passed, report.witness


def test_and_monoid_cone_0110_has_no_mediator():
    m = get_monoid("AND")
    a, g, h, c = m.index("0"), m.index("1"), m.index("1"), m.index("0")
    # the cone (0,1,1,0): 0*1 == 1*0, but no b satisfies 1 = b*0 and 1 = 0*b
    assert m.mul(a, g) == m.mul(h, c)
    assert mediators(m, a, g, h, c) == []
    ok, witness = assoc_square_is_pullback(m)
    assert not ok
    assert witness["cone"] is not None


def test_pullback_failure_witness_is_a_real_cone():
    m = get_monoid("MAX3")
    ok, witness = assoc_square_is_pullback(m)
    assert not ok
    a, g, h, c = (m.index(x) for x in witness["cone"])
    assert m.mul(a, g) == m.mul(h, c)
    assert len(mediators(m, a, g, h, c)) != 1


def test_invalid_tables_rejected():
    with pytest.raises(InvalidMonoid):
        FiniteMonoid("no_unit", ("a", "b"), 0, ((1, 1), (1, 1)))
    with pytest.raises(InvalidMonoid):
        # left-zero semigroup with a fake unit row: not commutative
        FiniteMonoid("noncomm", ("e", "a", "b"), 0, ((0, 1, 2), (1, 1, 1), (2, 2, 2)))
    with pytest.raises(InvalidMonoid):
        FiniteMonoid("unclosed", ("e", "a"), 0, ((0, 1), (1, 5)))
    with pytest.raises(InvalidMonoid):
        get_monoid("nope")


def test_json_round_trip():
    m = get_monoid("Z4mult")
    again = FiniteMonoid.from_json(m.to_json())
    assert again == m
    assert m.to_json()["name"] == "Z4mult"


# The reader takes only what `to_json` writes: labels that are distinct
# strings, and a unit and table entries that are ints, not bools or floats.
GOOD = {"name": "x", "elements": ["0", "1"], "unit": 0, "table": [[0, 1], [1, 0]]}


@pytest.mark.parametrize(
    "change",
    [
        {"table": [[0, 1.9], ["1", True]]},
        {"table": [[0, 1], [1, 0.0]]},
        {"table": [[0, 1], [1, False]]},
        {"table": [[0, "1"], [1, 0]]},
        {"unit": False},
        {"unit": 0.0},
        {"unit": "0"},
        {"elements": [0, 1]},
        {"elements": ["0", "0"]},
        {"elements": "01"},
        {"table": [[0, 1], 5]},
        {"table": [[0, 1], [1, 2]]},
        {"table": [[0, 1], [0, 0]]},
        {"name": 5},
    ],
)
def test_the_monoid_reader_refuses_what_to_json_does_not_write(change):
    assert FiniteMonoid.from_json(GOOD).to_json() == GOOD
    with pytest.raises(InvalidMonoid):
        FiniteMonoid.from_json(dict(GOOD, **change))


@pytest.mark.parametrize("data", [None, [], "x", {"elements": ["0"], "unit": 0, "table": [[0]]}])
def test_the_monoid_reader_refuses_a_document_of_another_shape(data):
    with pytest.raises(InvalidMonoid):
        FiniteMonoid.from_json(data)


def test_a_monoid_refuses_labels_that_are_not_strings():
    # Int labels once passed, and the writer's unit label '0' then failed
    # its own `make` with a raw KeyError in the law check.
    with pytest.raises(InvalidMonoid, match="must be strings"):
        FiniteMonoid("Y2", (0, 1), 0, ((0, 1), (1, 0)))
    with pytest.raises(InvalidMonoid, match="must be integers"):
        FiniteMonoid("Y2", ("0", "1"), True, ((0, 1), (1, 0)))
