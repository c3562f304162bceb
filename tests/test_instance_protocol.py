"""An instance says what it can do by its methods.

The assoc square asks the instance for its mediator solver
(`assoc_solver`) and for its rescaled cones (`rescaled_cone`), and the
rank-one CI test asks it for the factors of each column
(`rank_one_factors`).  The base class offers none of them, so an instance
outside the library gets a randomized assoc check or the rank-one method by
defining the method, and no flag is read elsewhere.

An instance is its id: two instances are equal exactly when their ids are,
and hash as their id, so values and kernels of two objects of one id are
equal and hash alike.
"""

import dataclasses
import itertools
import random

import pytest

from gsmon.errors import MethodInapplicable, NoSolverForRandomized
from gsmon.finset import FinSet, product
from gsmon.independence import check_ci
from gsmon.kernels import Kernel
from gsmon.monads import ALL_MONAD_IDS, MonadInstance, TValue, WriterMonad, get_instance
from gsmon.monoid import get_monoid
from gsmon.report import show
from gsmon.squares import build_square, check_pullback

A = FinSet.of("A", ["a0", "a1"])
X = FinSet.of("X", ["x0", "x1"])
Y = FinSet.of("Y", ["y0", "y1"])


class Delegating(MonadInstance):
    """The monad structure of a library instance under another id, and not
    enumerable: each operation unwraps its values to the inner instance's
    and wraps the result.  No solver and no rank-one factors."""

    def __init__(self, inner_id: str):
        self.inner = get_instance(inner_id)
        self.id = f"{type(self).__name__}({inner_id})"
        self.has_zero = self.inner.has_zero

    def _in(self, t: TValue) -> TValue:
        return TValue(self.inner, t.base, t.payload)

    def _out(self, t: TValue) -> TValue:
        return TValue(self, t.base, t.payload)

    def validate(self, base, payload):
        return self.inner.validate(base, payload)

    def value_text(self, t):
        return self.inner.value_text(self._in(t))

    def unit(self, base, x):
        return self._out(self.inner.unit(base, x))

    def map(self, f, t):
        return self._out(self.inner.map(f, self._in(t)))

    def extend(self, col, cod, t):
        return self._out(self.inner.extend(lambda e: self._in(col(e)), cod, self._in(t)))

    def lax_c(self, t, u):
        return self._out(self.inner.lax_c(self._in(t), self._in(u)))

    def sample(self, base, rng):
        return self._out(self.inner.sample(base, rng))

    def zero(self, base):
        return self._out(self.inner.zero(base))

    def t1_inverse(self, t):
        inverse = self.inner.t1_inverse(self._in(t))
        return None if inverse is None else self._out(inverse)


class WithSolver(Delegating):
    def assoc_solver(self, y, z):
        solve = self.inner.assoc_solver(y, z)

        def solver(u, v):
            t = solve(tuple(map(self._in, u)), tuple(map(self._in, v)))
            return None if t is None else tuple(map(self._out, t))

        return solver


class WithRankOne(Delegating):
    def rank_one_factors(self, columns, blocks):
        factors, failure = self.inner.rank_one_factors([self._in(c) for c in columns], blocks)
        if failure is not None:
            return None, failure
        return [[self._out(t) for t in column] for column in factors], None


def test_an_instance_with_a_solver_gets_a_randomized_assoc_check():
    square = build_square("assoc", WithSolver("M*"), [2, 2, 2])
    report = check_pullback(square, mode="randomized", trials=200, seed=1)
    assert report.passed
    assert report.note == "no counterexample found in 200 solver-verified cones"


def test_an_instance_without_a_solver_is_refused_a_randomized_assoc_check():
    square = build_square("assoc", Delegating("M*"), [2, 2, 2])
    assert square.solver is None
    with pytest.raises(NoSolverForRandomized):
        check_pullback(square, mode="randomized", trials=200, seed=1)


def a_kernel(inst, rows):
    cod = product([X, Y])
    return Kernel(inst, A, cod, [inst.make(cod, row) for row in rows])


# An outer product in its first column; the second is not one.
ROWS = {True: [(1, 2, 3, 6), (0, 0, 0, 0)], False: [(1, 2, 3, 6), (1, 0, 0, 1)]}


@pytest.mark.parametrize("holds", [True, False])
def test_an_instance_with_rank_one_factors_gets_rank1_from_auto(holds):
    inst = WithRankOne("M")
    got = check_ci(a_kernel(inst, ROWS[holds]), [X, Y], [[0], [1]])
    want = check_ci(a_kernel(get_instance("M"), ROWS[holds]), [X, Y], [[0], [1]])
    assert (got.method, got.holds, got.witness) == ("rank1", holds, want.witness)
    assert [[t.payload.entries() for t in k.columns] for k in got.certificate] == [
        [t.payload.entries() for t in k.columns] for k in want.certificate
    ]


def test_an_instance_without_rank_one_factors_is_refused_by_auto():
    # Not weakly affine and not enumerable: auto picks rank1, which refuses.
    f = a_kernel(Delegating("M"), ROWS[True])
    with pytest.raises(MethodInapplicable, match="rank1 method needs"):
        check_ci(f, [X, Y], [[0], [1]])


def test_rank1_refuses_a_writer_kernel_with_an_empty_domain():
    w = get_instance("writer:Z2")
    f = Kernel(w, FinSet.of("E", []), X, [])
    with pytest.raises(MethodInapplicable, match="rank1 method needs"):
        check_ci(f, [X], [[0]], method="rank1")


AUTO_METHOD = {"M": "rank1", "P": "exhaustive_search", "writer:AND": "exhaustive_search",
               "F": "exhaustive_search"}


@pytest.mark.parametrize("monad_id", ALL_MONAD_IDS)
def test_auto_picks_the_method_of_each_library_instance(monad_id):
    inst = get_instance(monad_id)
    x1, y1 = FinSet.of("X1", ["x0"]), FinSet.of("Y1", ["y0"])
    cod = product([x1, y1])
    f = Kernel(inst, A, cod, [inst.unit(cod, ("x0", "y0"))] * len(A))
    result = check_ci(f, [x1, y1], [[0], [1]])
    assert (result.method, result.holds) == (AUTO_METHOD.get(monad_id, "equivalence"), True)


SPELLED_C2 = 'writer:{"elements":["0","1"],"name":"C2","table":[[0,1],[1,0]],"unit":0}'
IDS = [*ALL_MONAD_IDS, "writer:Z2xZ2", SPELLED_C2, "F(B=1)", "F(B=3)"]


@pytest.mark.parametrize("monad_id", IDS)
def test_two_instances_of_one_id_are_equal_and_hash_as_the_id(monad_id):
    a, b = get_instance(monad_id), get_instance(monad_id)
    assert a is not b and a.id == b.id == monad_id
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(monad_id)


def test_instances_of_different_ids_are_unequal():
    # AND renamed Z2 has the labels of the library Z2 writer, and its own id.
    and_z2 = WriterMonad(dataclasses.replace(get_monoid("AND"), name="Z2"))
    z2 = get_instance("writer:Z2")
    assert and_z2 != z2 and not and_z2 == z2
    instances = [get_instance(monad_id) for monad_id in IDS] + [and_z2, Delegating("M")]
    for a, b in itertools.product(instances, repeat=2):
        assert (a == b) == (a is b) == (a.id == b.id)
        assert (a != b) == (a is not b)


@pytest.mark.parametrize("monad_id", IDS)
def test_an_instance_never_equals_its_id(monad_id):
    inst = get_instance(monad_id)
    assert inst != monad_id and not inst == monad_id
    assert monad_id != inst and not monad_id == inst


@pytest.mark.parametrize("monad_id", IDS)
def test_values_and_kernels_of_two_instances_of_one_id_are_equal(monad_id):
    a, b = get_instance(monad_id), get_instance(monad_id)
    for x in X:
        assert a.unit(X, x) == b.unit(X, x) and hash(a.unit(X, x)) == hash(b.unit(X, x))
    t, u = (inst.sample(X, random.Random(3)) for inst in (a, b))
    assert t.monad is a and u.monad is b
    assert t == u and hash(t) == hash(u)
    assert TValue(a, X, t.payload) == TValue(b, X, t.payload) == t
    k, h = (Kernel(inst, X, X, [inst.unit(X, x) for x in reversed(X.elements)]) for inst in (a, b))
    assert k == h and hash(k) == hash(h)


def test_show_renders_values_and_kernels_by_describe():
    inst = get_instance("writer:Z2")
    t, u = (inst.unit(X, x) for x in X)
    k = Kernel(inst, X, X, [u, t])
    assert show(t) == t.describe() == "writer:Z2(0, x0)"
    assert show(k) == k.describe()
    assert show((t, u)) == [t.describe(), u.describe()]
    assert show([k, (u,)]) == [k.describe(), [u.describe()]]
