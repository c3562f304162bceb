"""The closed monad operations build their results without validation.

Each result of `unit`, `map`, `extend`, `lax_c` and `zero` must be exactly
the value the validating constructor `make` builds from the same payload
(a table monad's: from its exact entries): equal, and with every payload
leaf of the same type (a table's numerators and denominator ints, in the
canonical form `make` builds).  Enumerable instances are checked on every input
over sets of size 1 and 2; the table monads without a small enumerator on
seeded samples.
"""

import itertools
import random

import pytest

from gsmon.finset import FinSet, enumerate_functions
from gsmon.kernels import enumerate_kernels, sample_kernel
from gsmon.monads import ALL_MONAD_IDS, FreeAbelianMonad, WriterMonad, get_instance
from gsmon.monoid import MONOID_LIBRARY
from gsmon.rational import Table

SETS = [FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(1, n + 1)]) for n in (1, 2)]
SAMPLED = {"M", "M*", "D", "F"}  # no enumerator, or too many values to list
SAMPLES = 12

INSTANCES = {
    inst.id: inst
    for inst in [get_instance(i) for i in ALL_MONAD_IDS]
    + [WriterMonad(m) for m in MONOID_LIBRARY.values()]
    + [FreeAbelianMonad(2)]
}.values()


def typed(payload):
    """The payload with every leaf paired with its type."""
    if isinstance(payload, Table):
        return Table, typed(payload.nums), typed(payload.den)
    if isinstance(payload, frozenset):
        return frozenset(typed(e) for e in payload)
    if isinstance(payload, tuple):
        return tuple(typed(v) for v in payload)
    return type(payload), payload


def entries(payload):
    """The payload as `make` takes it from outside: a table as its exact
    entries, whole ones as ints (F takes nothing else)."""
    if isinstance(payload, Table):
        return tuple(int(v) if v.denominator == 1 else v for v in payload.entries())
    return payload


def assert_as_made(inst, r):
    rebuilt = inst.make(r.base, entries(r.payload))
    assert rebuilt == r
    assert typed(r.payload) == typed(rebuilt.payload), (inst.id, r)


def values(inst, base, rng):
    if inst.id in SAMPLED:
        return [inst.sample(base, rng) for _ in range(SAMPLES)]
    return list(inst.enumerate_values(base))


def kernels(inst, dom, cod, rng):
    if inst.id in SAMPLED:
        return [sample_kernel(inst, dom, cod, rng) for _ in range(SAMPLES)]
    return list(enumerate_kernels(inst, dom, cod))


def closed_results(inst, seed=0):
    """Every result of the closed operations on the inputs over SETS."""
    rng = random.Random(seed)
    for X, Y in itertools.product(SETS, repeat=2):
        tx, ty = values(inst, X, rng), values(inst, Y, rng)
        for x in X:
            yield inst.unit(X, x)
        if inst.has_zero:
            yield inst.zero(X)
        for f in enumerate_functions(X, Y):
            for t in tx:
                yield inst.map(f, t)
        for k in kernels(inst, X, Y, rng):
            for t in tx:
                yield inst.extend(k, Y, t)
        for t in tx:
            for u in ty:
                yield inst.lax_c(t, u)


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.id)
def test_closed_operations_build_what_make_builds(inst):
    count = 0
    for r in closed_results(inst):
        assert_as_made(inst, r)
        count += 1
    assert count > 0


def test_a_map_onto_an_untouched_entry_keeps_the_scalar_type():
    # Pushing S1 forward into S2 leaves one entry with no mass; the table
    # must still be the canonical one `make` builds.
    one, two = SETS
    for monad_id in ("M", "M*", "D"):
        inst = get_instance(monad_id)
        t = inst.sample(one, random.Random(1))
        for f in enumerate_functions(one, two):
            assert_as_made(inst, inst.map(f, t))


@pytest.mark.parametrize("monoid", MONOID_LIBRARY.values(), ids=lambda m: m.name)
def test_writer_product_table_agrees_with_the_cayley_table(monoid):
    w = WriterMonad(monoid)
    labels = monoid.elements
    assert len(w._times) == len(labels) ** 2
    for a, b in itertools.product(labels, repeat=2):
        assert w._mul(a, b) == monoid.label(monoid.mul(monoid.index(a), monoid.index(b)))
