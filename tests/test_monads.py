import itertools
import random
from fractions import Fraction

import pytest

from gsmon.errors import NotEnumerable, OutOfBound, PayloadInvalid, UnknownMonad
from gsmon.finset import FinSet, UNIT, product
from gsmon.kernels import enumerate_kernels
from gsmon.monads import (
    ALL_MONAD_IDS,
    FreeAbelianMonad,
    WriterMonad,
    ENUMERATION_BUDGET,
    budgeted_product,
    check_monad_laws,
    classify,
    get_instance,
)
from gsmon.monoid import FiniteMonoid, get_monoid

X = FinSet.of("X", ["x0", "x1"])
Y = FinSet.of("Y", ["y0", "y1"])

ENUMERABLE = ["Id", "P", "P*", "writer:Z2", "writer:Z3", "writer:AND"]
SAMPLED = ["M", "M*", "D", "F"]


@pytest.mark.parametrize("monad_id", ENUMERABLE)
def test_laws_exhaustive(monad_id):
    report = check_monad_laws(get_instance(monad_id), [1, 2], mode="exhaustive")
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


def test_memoized_law_table_finds_the_unmemoized_assoc_witness():
    broken = _NonAssociativeWriter(get_monoid("Z3"))
    report = check_monad_laws(broken, [1, 2], mode="exhaustive")
    assert not report.passed
    assert report.witness == {
        "law": "kleisli_assoc",
        "inputs": [unmemoized_assoc_failure(broken, [1, 2])],
    }


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
    assert out.payload == (Fraction(1, 2), Fraction(7, 3))


def test_lax_c_is_the_outer_product():
    m = get_instance("M")
    t = m.make(X, (Fraction(2), Fraction(3)))
    u = m.make(Y, (Fraction(1, 2), Fraction(0)))
    tu = m.lax_c(t, u)
    assert tu.base == product([X, Y])
    assert tu.payload == (Fraction(1), Fraction(0), Fraction(3, 2), Fraction(0))


def test_strength_pins_the_first_coordinate():
    d = get_instance("D")
    u = d.make(Y, (Fraction(1, 4), Fraction(3, 4)))
    s = d.strength(X, ("x1",), u)
    assert s.payload == (Fraction(0), Fraction(0), Fraction(1, 4), Fraction(3, 4))


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


def test_free_abelian_bound_applies_only_where_values_enter():
    f = get_instance("F", bound=2)
    assert f.value_from_json(X, {"entries": {"x0": -2}}).payload == (-2, 0)
    with pytest.raises(OutOfBound):
        f.value_from_json(X, {"entries": {"x1": -3}})
    # Inside the program arithmetic is exact: products leave the bound.
    t = f.make(X, (2, -2))
    assert f.lax_c(t, t).payload == (4, -4, -4, 4)
    assert f.make(X, (17, 0)).payload == (17, 0)
    rng = random.Random(5)
    assert all(abs(v) <= 1 for _ in range(20) for v in f.sample(X, rng).payload)


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
    assert m_cls.witness.payload == (Fraction(0),)  # the scalar 0
    f_cls = classify(get_instance("F"))
    assert f_cls.witness.payload == (2,)  # 2 has no inverse within the bound
    assert classify(get_instance("F", bound=1)).witness.payload == (0,)
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
    custom = FiniteMonoid.from_json(get_monoid("Z2").to_json(), name="custom")
    t = WriterMonad(custom).unit(X, ("x1",))
    assert t.describe().startswith("writer:custom(")


@pytest.mark.parametrize("bound", [0, -1])
def test_free_abelian_bound_below_1_is_refused(bound):
    with pytest.raises(UnknownMonad):
        FreeAbelianMonad(bound)
    with pytest.raises(UnknownMonad):
        get_instance("F", bound=bound)
