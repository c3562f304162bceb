"""The table monads' integer arithmetic against the Fraction arithmetic it
replaced.

M, M*, D and F store a value as integer numerators over one denominator
(`gsmon.rational.Table`).  The oracle below is the arithmetic they used
before: a payload is a tuple of scalars (Fractions, or F's ints), every sum
starts from the scalar zero, and `_scale` multiplies each entry.  Each
closed operation and `monads._scale` must give the oracle's entries, as
the canonical value `make` builds from them, on every input drawn from small
pools over sets of size 1 and 2, and on hypothesis-drawn tables.  The same
holds for the scalar readers of `Table` and for their callers (the measure
solver, the rank-one CI test and the T1 inverse), against the `Fraction`
code they replaced.
"""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from gsmon.errors import PayloadInvalid
from gsmon.finset import UNIT, FinSet, enumerate_functions, product
from gsmon.independence import CIResult, _in_block_order, check_ci
from gsmon.kernels import Kernel
from gsmon.monads import _scale, classification_of, get_instance
from gsmon.rational import Table
from gsmon.squares import assoc_square

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
# Scalars p / q as (p, q) pairs, unreduced and with negative q included.
FACTORS = [(1, 1), (1, 2), (3, 1), (2, 3), (0, 1), (4, 6), (-1, -2), (1, -2)]


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


def oracle_scale(inst, base, payload, p, q):
    return inst.make(base, tuple(v * F(p, q) for v in payload))


# -- agreement ----------------------------------------------------------------


def agrees(inst, value, base, entries):
    """`value` has the oracle's base and entries, in the canonical form."""
    assert value.base == base
    assert value.payload.entries() == entries, (inst.id, value, entries)
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
    if monad_id in ("M", "M*", "D"):
        for entries, t in tx:
            for p, q in factors:
                try:
                    expected = oracle_scale(inst, X, entries, p, q)
                except PayloadInvalid:
                    with pytest.raises(PayloadInvalid):
                        _scale(inst, t, p, q)
                    continue
                assert _scale(inst, t, p, q) == expected


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
    factor = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9).filter(bool)))
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
        m.make(X2, Table((3, 3), 6)),
        m.make(X2, m.make(X2, (1, 1)).payload.scaled(1, 2)),
        m.value_from_json(X2, {"entries": {"s2_1": "2/4", "s2_2": "3/6"}}),
    ])
    assert half.payload.nums == (1, 1) and half.payload.den == 2
    # The payload alone, as the row keys of the law check read it.
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
            inst.make(X2, some.payload.scaled(0, 1)),
            inst.make(X2, Table((0, 0), 6)),
        ]
    equal_with_equal_hashes(ways)
    assert zero.payload == Table((0, 0), 1)
    assert inst.lax_c(inst.zero(one), some) == inst.zero(product([one, X2]))


# -- the scalar readers: the Fraction code they replaced ----------------------
#
# The measure solver of the associativity square, the rank-one CI test and
# the T1 inverse of the measures once read `Fraction` entries and divided
# them; they now call `Table.pivot`, `over`, `outer_factors`, `normalized`
# and `scaled`.  The oracles below are that Fraction code; the per-column
# part of the rank-one test is split out as `oracle_outer_factors`, so that
# the table method is compared with it directly.


def oracle_pivot(entries):
    return next((i for i, v in enumerate(entries) if v != 0), None)


def oracle_outer_factors(entries, sizes):
    """(factor vectors, None) or (None, first failing multi-index)."""
    n = len(sizes)
    table_order = list(itertools.product(*(range(s) for s in sizes)))
    t = dict(zip(table_order, entries))
    pivot = next((j for j in table_order if t[j] != 0), None)
    if pivot is None:
        vecs = [[F(0)] * sizes[0]]
        for k in range(1, n):
            vecs.append([F(1 if i == 0 else 0) for i in range(sizes[k])])
        return vecs, None
    s = t[pivot]
    for j in table_order:
        prod = F(1)
        for k in range(n):
            swapped = pivot[:k] + (j[k],) + pivot[k + 1:]
            prod *= t[swapped]
        if t[j] * s ** (n - 1) != prod:
            return None, j
    vecs = [[t[pivot[:k] + (i,) + pivot[k + 1:]] for i in range(sizes[k])] for k in range(n)]
    scale = s ** (n - 1)
    vecs[0] = [v / scale for v in vecs[0]]
    return vecs, None


def oracle_ci_rank1(f, factors, partition):
    inst = f.inst
    blocks, columns = _in_block_order(f, factors, partition)
    n = len(blocks)
    sizes = [len(b) for b in blocks]
    factor_columns = [[] for _ in range(n)]
    for col in columns:
        vecs, j = oracle_outer_factors(col.payload.entries(), sizes)
        if j is not None:
            return CIResult(
                False,
                "rank1",
                witness={
                    "column": "outer-product identity fails",
                    "index": [blocks[k].elements[j[k]] for k in range(n)],
                },
            )
        if oracle_pivot(col.payload.entries()) is not None and classification_of(inst).kind == "affine":
            vecs = [[v / sum(vec) for v in vec] for vec in vecs]
        for k in range(n):
            factor_columns[k].append(inst.make(blocks[k], tuple(vecs[k])))
    cert = [Kernel(inst, f.dom, blocks[k], factor_columns[k]) for k in range(n)]
    return CIResult(True, "rank1", certificate=cert)


def oracle_measure_solver(inst, x, y, z, u, v):
    yz, xy = product([y, z]), product([x, y])
    t_x, t_yz = u
    t_xy, t_z = v
    z0 = oracle_pivot(t_z.payload.entries())
    if z0 is not None:
        zc = t_z.payload.entries()[z0]
        z_elem = z.elements[z0]
        by_vals = tuple(t_yz.payload.entries()[yz.index(ye + z_elem)] / zc for ye in y.elements)
    else:
        x0 = oracle_pivot(t_x.payload.entries())
        if x0 is None:
            return None
        xc = t_x.payload.entries()[x0]
        x_elem = x.elements[x0]
        by_vals = tuple(t_xy.payload.entries()[xy.index(x_elem + ye)] / xc for ye in y.elements)
    try:
        by = inst.make(y, by_vals)
    except PayloadInvalid:
        return None
    if (t_x, inst.lax_c(by, t_z)) == u and (inst.lax_c(t_x, by), t_z) == v:
        return (t_x, by, t_z)
    return None


def oracle_t1_inverse(inst, t):
    v = t.payload.entries()[0]
    return None if v == 0 else inst.make(UNIT, (1 / v,))


def readers_agree(entries, sizes):
    """Every scalar reader of the table of `entries`, read as a table over a
    product of sets of `sizes`, gives the oracle's entries."""
    table = Table.of_entries(entries)
    assert table.pivot() == oracle_pivot(entries)
    total = sum(entries)
    if total != 0:
        assert table.normalized().entries() == tuple(v / total for v in entries)
    for p, q in FACTORS:
        assert table.scaled(p, q).entries() == tuple(v * F(p, q) for v in entries)
    for i, d in enumerate(entries):
        if d != 0:
            pivot = Table.of_entries((F(1, 7), d))
            indices = range(i, len(entries))
            got = table.over(indices, pivot, 1)
            assert got.entries() == tuple(entries[j] / d for j in indices)
            assert got == Table.of_entries(got.entries())  # canonical form
    factors, failure = table.outer_factors(sizes)
    vecs, j = oracle_outer_factors(entries, sizes)
    assert failure == j
    if j is None:
        assert [t.entries() for t in factors] == [tuple(vec) for vec in vecs]
        assert all(t == Table.of_entries(t.entries()) for t in factors)


# Signed entries: the readers are the scalar interface of every table.
SIGNED_POOL = [F(0), F(1), F(-1, 2), F(2, 3)]


@pytest.mark.parametrize("sizes", [(1,), (3,), (2, 2), (1, 2), (3, 1), (2, 1, 2)])
def test_enumerated_tables_read_as_the_oracle_reads(sizes):
    for entries in itertools.product(SIGNED_POOL, repeat=prod(sizes)):
        readers_agree(entries, sizes)


@st.composite
def drawn_tables(draw):
    """Sizes of one to three factors, and a table over their product: an
    outer product of drawn vectors (the identity holds), or drawn entries."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    scalar = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    vectors = [draw(st.lists(scalar, min_size=s, max_size=s)) for s in sizes]
    if draw(st.booleans()):
        entries = tuple(prod(c) for c in itertools.product(*vectors))
    else:
        count = prod(sizes)
        entries = tuple(draw(st.lists(scalar, min_size=count, max_size=count)))
    return entries, sizes


@settings(max_examples=300, deadline=None)
@given(drawn_tables())
def test_drawn_tables_read_as_the_oracle_reads(drawn):
    readers_agree(*drawn)


# Entries of the states of the rank-one CI test: four at 2x2, three at 2x2x2.
CI_POOLS = {2: [F(0), F(1, 2), F(1), F(2)], 3: [F(0), F(1, 2), F(1)]}


_STATES = {}


def states(monad_id, factors):
    """Every value of M, or of D, over the product of `factors` from entries
    in their CI pool (for D, each non-zero M value divided by its mass).
    Built once per monad and factors: the partitions of one arity share them."""
    key = (monad_id, tuple(factors))
    if key not in _STATES:
        _STATES[key] = _build_states(monad_id, factors)
    return _STATES[key]


def _build_states(monad_id, factors):
    inst = get_instance(monad_id)
    cod = product(factors)
    out = {}
    for entries in itertools.product(CI_POOLS[len(factors)], repeat=len(cod)):
        total = sum(entries)
        if monad_id == "D":
            if total == 0:
                continue
            entries = tuple(v / total for v in entries)
        out.setdefault(entries, inst.make(cod, entries))
    return inst, cod, list(out.values())


@pytest.mark.parametrize("monad_id", ["M", "D"])
@pytest.mark.parametrize("partition", [[[0], [1]], [[0], [1], [2]], [[0, 2], [1]]])
def test_rank1_ci_reports_as_the_oracle_reports(monad_id, partition):
    n = max(i for block in partition for i in block) + 1
    factors = [FinSet.of(f"B{k}", [f"b{k}_0", f"b{k}_1"]) for k in range(n)]
    inst, cod, values = states(monad_id, factors)
    verdicts = set()
    for t in values:
        f = Kernel(inst, SETS[0], cod, [t])
        got = check_ci(f, factors, partition, method="rank1")
        assert got.to_json() == oracle_ci_rank1(f, factors, partition).to_json()
        verdicts.add(got.holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize("monad_id", ["M", "D"])
def test_rank1_ci_on_two_columns_reports_as_the_oracle_reports(monad_id):
    # A failing column after a holding one, and (in M) zero columns.
    factors = [SETS[1], FinSet.of("T2", ["t1", "t2"])]
    inst, cod, values = states(monad_id, factors)
    for first, second in itertools.product(values[::7], values[::5]):
        f = Kernel(inst, SETS[1], cod, [first, second])
        got = check_ci(f, factors, [[0], [1]], method="rank1")
        assert got.to_json() == oracle_ci_rank1(f, factors, [[0], [1]]).to_json()


@pytest.mark.parametrize("monad_id", ["M", "M*", "D"])
@pytest.mark.parametrize("sizes", [(2, 2, 2), (1, 2, 3), (3, 1, 2)])
def test_measure_solver_finds_the_oracle_mediator(monad_id, sizes):
    inst = get_instance(monad_id)
    x, y, z = (SETS[n - 1] for n in sizes)
    square = assoc_square(inst, x, y, z)
    rng = random.Random(sum(sizes))
    cones = list(square.degenerate_cones)
    cones += [square.cone_sampler(rng) for _ in range(300)]
    # Cones whose legs disagree: swap the Y parts of two sampled cones.
    cones += [(u, v2) for (u, _), (_, v2) in zip(cones[1::2], cones[2::2])]
    mediated = 0
    for u, v in cones:
        got = square.solver(u, v)
        assert got == oracle_measure_solver(inst, x, y, z, u, v)
        mediated += got is not None
    assert 0 < mediated < len(cones)


@pytest.mark.parametrize("monad_id", ["M", "M*", "D"])
def test_t1_inverse_is_the_oracle_inverse(monad_id):
    inst = get_instance(monad_id)
    for v in POOLS[monad_id] + [F(7, 3), F(5)]:
        try:
            t = inst.make(UNIT, (v,))
        except PayloadInvalid:
            continue
        assert inst.t1_inverse(t) == oracle_t1_inverse(inst, t)
