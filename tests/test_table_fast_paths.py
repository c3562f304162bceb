"""The table monads' fast paths against the slower code they replaced, and
the checks of the public `Table` constructor that they rely on.

`lax_c` reduces its outer product from the factors' gcds, the measure
samplers build their canonical table straight from the draws, and `scaled`
reduces in place.  The oracles below are the code they replaced: one gcd
over the whole outer product (`old_reduced`), and a list of (numerator,
denominator) draws read through `old_of_ratios`.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from gsmon.errors import PayloadInvalid
from gsmon.finset import FinSet, product
from gsmon.monads import SAMPLE_DEN_MAX, SAMPLE_NUM_MAX, TValue, get_instance
from gsmon.rational import Table

F = Fraction
SETS = [FinSet.of(f"T{n}", [f"t{n}_{i}" for i in range(n)]) for n in range(4)]
TABLE_MONADS = ["M", "M*", "D", "F"]


# -- the oracles ---------------------------------------------------------------


def old_reduced(nums, den):
    """The table nums / den for ints `nums` and a positive int `den`, by one
    gcd over every entry (the former `Table.reduced`)."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(n // g for n in nums), den // g
    return tuple(nums), den


def old_lax_c(a: Table, b: Table):
    return old_reduced([m * n for m in a.nums for n in b.nums], a.den * b.den)


def old_scaled(table: Table, p: int, q: int):
    if q < 0:
        p, q = -p, -q
    return old_reduced([n * p for n in table.nums], table.den * q)


def old_sampled_ratios(base, rng):
    """One (numerator, denominator) draw per element of `base`, in order."""
    return [(rng.randint(0, SAMPLE_NUM_MAX), rng.randint(1, SAMPLE_DEN_MAX)) for _ in base]


def old_of_ratios(ratios):
    den = lcm(*(d for _, d in ratios))
    return old_reduced([n * (den // d) for n, d in ratios], den)


def old_sample(monad_id, base, rng):
    """The payload the sampler of `monad_id` drew, as (nums, den), and the
    number of attempts it took."""
    attempts = 0
    while True:
        attempts += 1
        nums, den = old_of_ratios(old_sampled_ratios(base, rng))
        if monad_id == "M" or any(nums):
            break
    if monad_id == "D":
        nums, den = old_reduced(nums, sum(nums))
    return (nums, den), attempts


def pair(table: Table):
    return table.nums, table.den


# -- the public constructor -----------------------------------------------------


# A payload whose entries are (1, 2) up to a scalar each monad accepts.
ONE_TWO = {"M": (1, 2), "M*": (1, 2), "D": (F(1, 3), F(2, 3)), "F": (1, 2)}


@pytest.mark.parametrize("monad_id", TABLE_MONADS)
def test_a_table_is_reduced_when_built(monad_id):
    inst = get_instance(monad_id)
    X = SETS[2]
    plain = inst.make(X, ONE_TWO[monad_id])
    den = plain.payload.den
    unreduced = Table((2, 4), 2 * den)
    assert pair(unreduced) == ((1, 2), den)
    assert inst.make(X, unreduced) == plain and hash(inst.make(X, unreduced)) == hash(plain)


@pytest.mark.parametrize(
    "nums, den, error",
    [
        ((1, 2), -1, ValueError),  # a negative denominator: for M, a negative measure
        ((1, 2), 0, ValueError),
        ((1.0, 2), 1, TypeError),
        ((True, 2), 1, TypeError),
        ((F(1), 2), 1, TypeError),
        ([1, 2], 1, TypeError),  # unhashable numerators
        ((1, 2), 1.0, TypeError),
        ((1, 2), True, TypeError),
    ],
)
def test_no_malformed_table_is_built(nums, den, error):
    # `make` of M, M*, D and F takes a Table as it is, so the constructor is
    # where a malformed one is refused.
    with pytest.raises(error):
        Table(nums, den)


def test_a_table_survives_copy_and_pickle():
    t = Table((3, 6), 9)
    for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert copied == t and pair(copied) == ((1, 2), 3)


# -- lax_c: reduced from its factors --------------------------------------------


# Entries of the enumerated tables of sizes 0-3: signed ones for F, and for
# the measures the zero table and denominators 1 to 3.
LAX_POOLS = {
    "M": [F(0), F(1, 3), F(1, 2), F(2, 3), F(3)],
    "M*": [F(0), F(1, 3), F(1, 2), F(2, 3), F(3)],
    "D": [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)],
    "F": [-2, -1, 0, 1, 3],
}


def enumerated_values(monad_id):
    inst = get_instance(monad_id)
    out = []
    for base in SETS:
        for entries in itertools.product(LAX_POOLS[monad_id], repeat=len(base)):
            try:
                out.append(inst.make(base, entries))
            except PayloadInvalid:
                continue
    return out


@pytest.mark.parametrize("monad_id", TABLE_MONADS)
def test_lax_c_is_the_reduced_outer_product(monad_id):
    inst = get_instance(monad_id)
    values = enumerated_values(monad_id)
    assert {len(v.base) for v in values} >= {1, 2, 3}
    for t, u in itertools.product(values, repeat=2):
        out = inst.lax_c(t, u)
        assert pair(out.payload) == old_lax_c(t.payload, u.payload), (t, u)
        assert out.base is product([t.base, u.base])


SIGNED_TABLES = st.integers(0, 3).flatmap(
    lambda n: st.builds(
        Table,
        st.tuples(*[st.integers(-40, 40)] * n),
        st.integers(1, 36),
    )
)


@settings(max_examples=300, deadline=None)
@given(SIGNED_TABLES, SIGNED_TABLES)
def test_lax_c_of_drawn_tables_is_the_reduced_outer_product(a, b):
    # lax_c is the same arithmetic for every table monad; signed entries and
    # any denominator exercise the gcd identity on all canonical tables.
    inst = get_instance("M")
    t, u = (TValue(inst.id, SETS[len(x.nums)], x) for x in (a, b))
    assert pair(inst.lax_c(t, u).payload) == old_lax_c(a, b)


# -- the samplers: straight from the draws --------------------------------------


@pytest.mark.parametrize(
    "monad_id, sizes", [("M", range(5)), ("M*", range(1, 5)), ("D", range(1, 5))]
)
def test_a_sample_is_the_table_of_its_draws(monad_id, sizes):
    # M* and D never accept a sample over the empty set.
    inst = get_instance(monad_id)
    for n, seed in itertools.product(sizes, range(6)):
        base = FinSet.of(f"B{n}", [f"b{i}" for i in range(n)])
        rng, replay = random.Random(seed), random.Random(seed)
        for _ in range(20):
            drawn = inst.sample(base, rng)
            expected, _ = old_sample(monad_id, base, replay)
            assert pair(drawn.payload) == expected
            assert rng.getstate() == replay.getstate()


def test_each_sampler_attempt_draws_two_values_per_element(monkeypatch):
    """`perfbench/tracer.py` counts `random.Random.randint` calls inside a D
    sample and reads its rejects as draws // (2 * |base|) - 1: each attempt
    of M, M* and D draws a numerator and a denominator per element, all
    through `randint`."""
    draws = []
    randint = random.Random.randint

    def counted(rng, a, b):
        draws.append((a, b))
        return randint(rng, a, b)

    retried = set()
    for monad_id in ("M", "M*", "D"):
        inst = get_instance(monad_id)
        for n, seed in itertools.product(range(1, 4), range(30)):
            base = SETS[n]
            rng, replay = random.Random(seed), random.Random(seed)
            _, attempts = old_sample(monad_id, base, replay)
            draws.clear()
            with monkeypatch.context() as patch:
                patch.setattr(random.Random, "randint", counted)
                inst.sample(base, rng)
            per_attempt = [(0, SAMPLE_NUM_MAX), (1, SAMPLE_DEN_MAX)] * n
            assert draws == per_attempt * attempts, (monad_id, n, seed)
            if attempts > 1:
                retried.add(monad_id)
    assert retried == {"M*", "D"}  # the seeds above meet rejects


# -- scaled: reduced in place ---------------------------------------------------


# Scalars p / q as (p, q) pairs, unreduced and with negative q included.
FACTORS = [(1, 1), (1, 2), (3, 1), (2, 3), (0, 1), (4, 6), (-1, -2), (1, -2), (6, -4), (-3, 9)]


def test_scaled_is_the_reduced_product():
    pool = [F(0), F(1), F(-1, 2), F(2, 3), F(-4)]
    for n in range(4):
        for entries in itertools.product(pool, repeat=n):
            table = Table.of_entries(entries)
            for p, q in FACTORS:
                assert pair(table.scaled(p, q)) == old_scaled(table, p, q), (entries, p, q)
