from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gsmon.errors import MalformedInput
from gsmon.rational import Rat, format_rat, parse_rat

rats = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rats, rats)
def test_addition_cancels(a, b):
    assert (a + b) - b == a


@given(rats, rats)
def test_multiplication_cancels(a, b):
    if b != 0:
        assert (a * b) / b == a


@given(rats)
def test_round_trip(a):
    assert parse_rat(format_rat(a)) == a


def test_format_integer_drops_denominator():
    assert format_rat(Fraction(6, 3)) == "2"
    assert format_rat(Fraction(-7)) == "-7"
    assert format_rat(Fraction(1, 2)) == "1/2"


def test_parse_plain_and_fraction():
    assert parse_rat("5") == Fraction(5)
    assert parse_rat("-3/9") == Fraction(-1, 3)


@pytest.mark.parametrize(
    "bad", ["", "1/0", "1.5", "a/b", "1/-2", "--3", " 1", "1\n", "3/4\n", "\u0661/\u0662"]
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(MalformedInput):
        parse_rat(bad)


def test_rat_is_exact():
    assert Rat is Fraction
    third = parse_rat("1/3")
    assert third + third + third == 1
