"""The table monads' integer arithmetic against the Fraction arithmetic it
replaced.

M, M*, D and F store a value as integer numerators over one denominator
(`gsmon.rational.Table`).  The oracle below is the arithmetic they used
before: a payload is a tuple of scalars (Fractions, or F's ints), every sum
starts from the scalar zero, and `_scale` multiplies each entry.  Each
closed operation and `squares._scale` must give the oracle's entries, as
the canonical value `make` builds from them, on every input drawn from small
pools over sets of size 1 and 2, and on hypothesis-drawn tables.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gsmon.errors import PayloadInvalid
from gsmon.finset import FinSet, enumerate_functions, product
from gsmon.kernels import Kernel
from gsmon.monads import get_instance
from gsmon.rational import Table
from gsmon.squares import _scale

SETS = [FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(1, n + 1)]) for n in (1, 2, 3)]
MONADS = ["M", "M*", "D", "F(B=2)"]
F = Fraction
# Entries of the enumerated tables: every table over S1 and S2 with entries
# from the pool that its monad accepts.
POOLS = {
    "M": [F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)],
    "M*": [F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)],
    "D": [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)],
    "F(B=2)": [-2, -1, 0, 1, 2],
}
FACTORS = [F(1), F(1, 2), F(3), F(2, 3), F(0)]


# -- the oracle: tables as tuples of scalars ---------------------------------


def scalars(monad_id):
    """The scalar zero and one of the monad's tables."""
    return (0, 1) if monad_id.startswith("F") else (F(0), F(1))


def oracle_unit(monad_id, base, x):
    zero, one = scalars(monad_id)
    out = [zero] * len(base)
    out[base.index(x)] = one
    return tuple(out)


def oracle_map(monad_id, f, base, payload):
    out = [scalars(monad_id)[0]] * len(f.cod)
    for e, v in zip(base.elements, payload):
        out[f.cod.index(f(e))] += v
    return tuple(out)


def oracle_extend(monad_id, columns, base, cod, payload):
    out = [scalars(monad_id)[0]] * len(cod)
    for e, v in zip(base.elements, payload):
        if v == 0:
            continue
        for j, w in enumerate(columns[e]):
            out[j] += v * w
    return tuple(out)


def oracle_lax_c(payload_t, payload_u):
    return tuple(v * w for v in payload_t for w in payload_u)


def oracle_zero(monad_id, base):
    return (scalars(monad_id)[0],) * len(base)


def oracle_scale(inst, base, payload, factor):
    return inst.make(base, tuple(v * factor for v in payload))


# -- agreement ----------------------------------------------------------------


def agrees(inst, value, base, entries):
    """`value` has the oracle's base and entries, in the canonical form."""
    assert value.base == base
    assert tuple(value.payload) == entries, (inst.id, value, entries)
    made = inst.make(base, entries)
    assert value == made and hash(value) == hash(made)


def tables(monad_id, base):
    inst = get_instance(monad_id)
    out = []
    for entries in itertools.product(POOLS[monad_id], repeat=len(base)):
        try:
            out.append((entries, inst.make(base, entries)))
        except PayloadInvalid:
            continue
    return out


def check_all_operations(inst, X, Y, tx, ty, kernels, factors):
    """Every closed operation (and `_scale` of a measure) on the given inputs:
    `tx`, `ty` lists of (entries, value); `kernels` lists of columns, one
    (entries, value) per element of X."""
    monad_id = inst.id
    for x in X:
        agrees(inst, inst.unit(X, x), X, oracle_unit(monad_id, X, x))
    if inst.has_zero:
        agrees(inst, inst.zero(X), X, oracle_zero(monad_id, X))
    for f in enumerate_functions(X, Y):
        for entries, t in tx:
            agrees(inst, inst.map(f, t), Y, oracle_map(monad_id, f, X, entries))
    for columns in kernels:
        k = Kernel(inst, X, Y, [value for _, value in columns])
        raw = {e: entries for e, (entries, _) in zip(X.elements, columns)}
        for entries, t in tx:
            agrees(inst, inst.extend(k, Y, t), Y, oracle_extend(monad_id, raw, X, Y, entries))
    for entries_t, t in tx:
        for entries_u, u in ty:
            agrees(inst, inst.lax_c(t, u), product([X, Y]), oracle_lax_c(entries_t, entries_u))
    if inst.measure_like:
        for entries, t in tx:
            for factor in factors:
                try:
                    expected = oracle_scale(inst, X, entries, factor)
                except PayloadInvalid:
                    with pytest.raises(PayloadInvalid):
                        _scale(inst, t, factor)
                    continue
                assert _scale(inst, t, factor) == expected


@pytest.mark.parametrize("monad_id", MONADS)
@pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_enumerated_tables_agree_with_the_oracle(monad_id, sizes):
    inst = get_instance(monad_id)
    X, Y = (SETS[n - 1] for n in sizes)
    tx, ty = tables(monad_id, X), tables(monad_id, Y)
    # Kernel columns from at most 8 tables keep the kernel count small.
    kernels = list(itertools.product(ty[:8], repeat=len(X)))
    assert tx and ty and kernels
    check_all_operations(inst, X, Y, tx, ty, kernels, FACTORS)


def entries_of(monad_id, size):
    """A hypothesis strategy for the entries of one value over a set of `size`."""
    if monad_id.startswith("F"):
        return st.tuples(*[st.integers(-2, 2)] * size)
    raw = st.tuples(*[st.fractions(min_value=0, max_value=20, max_denominator=12)] * size)
    if monad_id == "M*":
        return raw.filter(any)
    if monad_id == "D":
        return raw.filter(any).map(lambda t: tuple(v / sum(t) for v in t))
    return raw


@st.composite
def drawn_inputs(draw):
    monad_id = draw(st.sampled_from(MONADS))
    X, Y = draw(st.sampled_from(SETS)), draw(st.sampled_from(SETS))
    inst = get_instance(monad_id)
    made = lambda base, entries: (entries, inst.make(base, entries))
    tx = [made(X, draw(entries_of(monad_id, len(X)))) for _ in range(2)]
    ty = [made(Y, draw(entries_of(monad_id, len(Y)))) for _ in range(2)]
    columns = [made(Y, draw(entries_of(monad_id, len(Y)))) for _ in X]
    factor = draw(st.fractions(min_value=0, max_value=9, max_denominator=9))
    return inst, X, Y, tx, ty, [columns], [factor]


@settings(max_examples=150, deadline=None)
@given(drawn_inputs())
def test_drawn_tables_agree_with_the_oracle(inputs):
    check_all_operations(*inputs)


# -- canonical form -----------------------------------------------------------


X2 = SETS[1]


def equal_with_equal_hashes(values):
    first = values[0]
    for v in values[1:]:
        assert v == first and hash(v) == hash(first), (v, first)


def test_equal_rationals_give_one_value():
    m = get_instance("M")
    half = m.make(X2, (F(1, 2), F(1, 2)))
    equal_with_equal_hashes([
        half,
        m.make(X2, (F(2, 4), F(3, 6))),
        m.make(X2, Table.reduced((3, 3), 6)),
        m.make(X2, m.make(X2, (1, 1)).payload.scaled(F(1, 2))),
        m.value_from_json(X2, {"entries": {"s2_1": "2/4", "s2_2": "3/6"}}),
    ])
    assert half.payload.nums == (1, 1) and half.payload.den == 2
    # The payload alone, as the memo and row keys of the law check read it.
    quarter_times_two = m.lax_c(m.make(SETS[0], (F(1, 4),)), m.make(X2, (2, 2)))
    equal_with_equal_hashes([half.payload, quarter_times_two.payload])
    equal_with_equal_hashes([m.make(X2, (0, 1)), m.make(X2, (F(0), F(1))), m.unit(X2, ("s2_2",))])


def test_a_whole_sum_is_stored_over_one():
    m = get_instance("M")
    one = SETS[0]
    halves = m.make(X2, (F(1, 2), F(1, 2)))
    to_one = next(iter(enumerate_functions(X2, one)))
    pushed = m.map(to_one, halves)
    equal_with_equal_hashes([pushed, m.unit(one, ("s1_1",)), m.make(one, (F(2, 2),))])
    assert pushed.payload.den == 1
    assert m.lax_c(m.make(one, (F(1, 2),)), m.make(one, (2,))).payload == Table((1,), 1)


@pytest.mark.parametrize("monad_id", ["M", "F"])
def test_the_zero_table_built_in_several_ways(monad_id):
    inst = get_instance(monad_id)
    one = SETS[0]
    zero = inst.zero(X2)
    some = inst.make(X2, (1, 2))
    k = Kernel(inst, X2, X2, [inst.unit(X2, e) for e in X2])
    ways = [
        zero,
        inst.make(X2, (0, 0)),
        inst.extend(k, X2, zero),
        inst.map(next(iter(enumerate_functions(X2, X2))), zero),
        inst.value_from_json(X2, {"entries": {}}),
    ]
    if monad_id == "M":
        ways += [
            inst.make(X2, (F(0), F(0, 7))),
            inst.make(X2, some.payload.scaled(F(0))),
            inst.make(X2, Table.reduced((0, 0), 6)),
        ]
    equal_with_equal_hashes(ways)
    assert zero.payload == Table((0, 0), 1)
    assert inst.lax_c(inst.zero(one), some) == inst.zero(product([one, X2]))
