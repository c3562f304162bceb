import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from gsmon.errors import NotNormalizable, TypeMismatch
from gsmon.finset import FinSet, UNIT, product
from gsmon.kernels import (
    Kernel,
    compose,
    copy_k,
    discard_k,
    effect_mul,
    enumerate_kernels,
    equivalent,
    gs_law_report,
    identity,
    is_copyable,
    is_discardable,
    mass,
    normalize,
    pairing,
    sample_kernel,
    scalar_action,
    swap_k,
    tensor,
    try_effect_inverse,
)
from gsmon.monads import ALL_MONAD_IDS, WriterMonad, get_instance
from gsmon.monoid import get_monoid

A = FinSet.of("A", ["a0"])
X = FinSet.of("X", ["x0", "x1"])
Y = FinSet.of("Y", ["y0", "y1"])

M = get_instance("M")
MSTAR = get_instance("M*")


def m_kernel(inst, dom, cod, rows):
    return Kernel(
        inst, dom, cod, [inst.make(cod, tuple(Fraction(v) for v in row)) for row in rows]
    )


def test_compose_is_matrix_product():
    f = m_kernel(M, A, X, [["1/2", "1/3"]])
    g = m_kernel(M, X, Y, [[1, 2], [0, 4]])
    h = compose(g, f)
    assert tuple(h(("a0",)).payload) == (Fraction(1, 2), Fraction(7, 3))


def test_tensor_is_kronecker_product():
    f = m_kernel(M, A, X, [[2, 3]])
    g = m_kernel(M, A, Y, [["1/2", 0]])
    fg = tensor(f, g)
    assert fg.dom == product([A, A])
    assert tuple(fg(("a0", "a0")).payload) == (Fraction(1), Fraction(0), Fraction(3, 2), Fraction(0))


def test_type_mismatch_raises():
    f = m_kernel(M, A, X, [[1, 0]])
    g = m_kernel(M, A, Y, [[1, 0]])
    with pytest.raises(TypeMismatch):
        compose(g, f)
    with pytest.raises(TypeMismatch):
        tensor(f, m_kernel(MSTAR, A, Y, [[1, 0]]))


def test_kernel_validates_columns_per_instance():
    with pytest.raises(Exception):
        m_kernel(MSTAR, A, X, [[0, 0]])
    with pytest.raises(Exception):
        m_kernel(get_instance("D"), A, X, [["1/2", "1/3"]])


def test_structural_kernels():
    cp = copy_k(M, X)
    assert cp(("x1",)).payload[product([X, X]).index(("x1", "x1"))] == 1
    assert discard_k(M, X) == Kernel(M, X, UNIT, [M.unit(UNIT, ())] * len(X))
    sw = swap_k(M, X, Y)
    assert sw(("x0", "y1")) == M.unit(product([Y, X]), ("y1", "x0"))


def test_lifted_functions_are_copyable_and_discardable():
    for monad_id in ALL_MONAD_IDS:
        inst = get_instance(monad_id)
        ident = identity(inst, X)
        assert is_copyable(ident)
        assert is_discardable(ident)


def test_random_measure_kernel_is_rarely_deterministic():
    f = m_kernel(M, A, X, [["1/2", "1/2"]])
    assert not is_copyable(f)
    assert is_discardable(f)
    g = m_kernel(M, A, X, [[1, 1]])
    assert not is_discardable(g)


@pytest.mark.parametrize("monad_id", ALL_MONAD_IDS)
def test_gs_laws_all_instances(monad_id):
    objs = [FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(1, n + 1)]) for n in (1, 2, 3)]
    report = gs_law_report(get_instance(monad_id), objs)
    assert report.passed, report.witness


def test_mass_and_effects():
    f = m_kernel(M, A, X, [[2, 3]])
    assert tuple(mass(f)(("a0",)).payload) == (Fraction(5),)
    a = m_kernel(M, A, UNIT, [[2]])
    b = m_kernel(M, A, UNIT, [["1/2"]])
    assert tuple(effect_mul(a, b)(("a0",)).payload) == (Fraction(1),)
    with pytest.raises(TypeMismatch):
        effect_mul(a, f)


def test_effect_inverse():
    a = m_kernel(M, A, UNIT, [[4]])
    inv, witness = try_effect_inverse(a)
    assert witness is None
    assert tuple(inv(("a0",)).payload) == (Fraction(1, 4),)
    zero = m_kernel(M, A, UNIT, [[0]])
    inv, witness = try_effect_inverse(zero)
    assert inv is None and witness == ("a0",)


def test_normalize_splits_mass_and_normalization():
    f = m_kernel(MSTAR, A, X, [[1, 3]])
    m, n = normalize(f)
    assert tuple(m(("a0",)).payload) == (Fraction(4),)
    assert tuple(n(("a0",)).payload) == (Fraction(1, 4), Fraction(3, 4))
    assert is_discardable(n)
    assert scalar_action(m, n) == f


def test_normalize_raises_on_zero_column():
    f = m_kernel(M, A, X, [[0, 0]])
    with pytest.raises(NotNormalizable) as exc:
        normalize(f)
    assert exc.value.witness == ("a0",)


def test_equivalence_finds_the_unique_scalar():
    f = m_kernel(MSTAR, A, X, [[1, 2]])
    g = m_kernel(MSTAR, A, X, [[3, 6]])
    a = equivalent(f, g)
    assert a is not None
    assert tuple(a(("a0",)).payload) == (Fraction(3),)
    assert scalar_action(a, f) == g
    h = m_kernel(MSTAR, A, X, [[1, 3]])
    assert equivalent(f, h) is None


def test_pairing_is_copy_then_tensor():
    w = get_instance("writer:Z3")
    ident = identity(w, X)
    assert pairing(ident, ident) == compose(tensor(ident, ident), copy_k(w, X))
    with pytest.raises(TypeMismatch):
        pairing(ident, identity(w, Y))


def test_ternary_pairing_equals_nested_binary_pairings():
    rng = random.Random(3)
    f, g, h = (sample_kernel(M, X, cod, rng) for cod in (Y, X, Y))
    assert pairing(f, g, h) == pairing(pairing(f, g), h) == pairing(f, pairing(g, h))


def tensor_then_copy(kernels):
    """The oracle: the pairing as (f_1 (x) ... (x) f_n) . copy, building the
    whole |X|^n-column tensor first."""
    dom = kernels[0].dom
    if any(k.dom != dom for k in kernels):
        raise TypeMismatch("pairing requires a common domain")
    result = kernels[0]
    for k in kernels[1:]:
        result = tensor(result, k)
    return compose(result, copy_k(kernels[0].inst, dom, len(kernels)))


def kernel_pool(inst, dom, cod, rng, cap=16):
    """Every kernel dom -> cod when there are at most `cap`, else `cap`
    seeded samples (always for M, M* and D, which have no enumerator)."""
    if inst.enumerable and sum(1 for _ in inst.enumerate_values(cod)) ** len(dom) <= cap:
        return list(enumerate_kernels(inst, dom, cod))
    return [sample_kernel(inst, dom, cod, rng) for _ in range(cap)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("monad_id", ALL_MONAD_IDS + ["writer:Z2xZ2", "F(B=2)"])
def test_columnwise_pairing_equals_tensor_then_copy(monad_id, n):
    inst = get_instance(monad_id)
    rng = random.Random(f"{monad_id}/{n}")
    for dom in (A, X):
        pools = [kernel_pool(inst, dom, cod, rng) for cod in (Y, A, X)[:n]]
        tuples = list(itertools.product(*pools))
        for ks in rng.sample(tuples, min(len(tuples), 60)):
            got, want = pairing(*ks), tensor_then_copy(ks)
            assert got == want
            assert got.cod.name == want.cod.name


def test_pairing_refuses_what_tensor_then_copy_refused():
    p, p_star = get_instance("P"), get_instance("P*")
    cases = [
        ((identity(p, X), identity(p, Y)), "pairing requires a common domain"),
        ((identity(p, X), identity(p_star, X)), r"instance mismatch: P vs P\*"),
        ((identity(p, X), identity(p_star, Y)), "pairing requires a common domain"),
        ((identity(p, X), identity(p, X), identity(p_star, X)), r"instance mismatch: P vs P\*"),
    ]
    for kernels, message in cases:
        for build in (pairing, lambda *ks: tensor_then_copy(ks)):
            with pytest.raises(TypeMismatch, match=message):
                build(*kernels)


def test_copy_k_degenerates_to_discard():
    k = copy_k(M, X, 0)
    assert k.cod.elements == ((),)
    assert copy_k(M, X, 1) == identity(M, X)
    k3 = copy_k(M, X, 3)
    assert k3(("x1",)).payload[k3.cod.index(("x1", "x1", "x1"))] == 1


def test_enumerate_and_sample_kernels():
    w = get_instance("writer:Z2")
    ks = list(enumerate_kernels(w, X, Y))
    assert len(ks) == 16  # (2 labels x 2 elements)^|X|
    rng = random.Random(5)
    k = sample_kernel(M, X, Y, rng)
    assert k.dom == X and k.cod == Y


def test_kernels_over_two_writers_of_one_name_are_told_apart():
    # AND renamed Z2 has the labels of the library Z2 writer, and its own id.
    and_z2 = WriterMonad(dataclasses.replace(get_monoid("AND"), name="Z2"))
    z2 = get_instance("writer:Z2")
    assert and_z2.id != z2.id == "writer:Z2"
    a, b = (Kernel(inst, A, A, [inst.make(A, ("0", ("a0",)))]) for inst in (and_z2, z2))
    assert a != b
    assert a == Kernel(and_z2, A, A, a.columns) and hash(a) == hash(Kernel(and_z2, A, A, a.columns))
    for build in (compose, tensor, pairing):
        with pytest.raises(TypeMismatch, match="instance mismatch") as caught:
            build(a, b)
        sides = set(str(caught.value).removeprefix("instance mismatch: ").split(" vs "))
        assert sides == {and_z2.id, z2.id}
    with pytest.raises(TypeMismatch):
        equivalent(a, b)


def test_a_kernel_refuses_a_column_of_another_writer_of_its_name():
    and_z2 = WriterMonad(dataclasses.replace(get_monoid("AND"), name="Z2"))
    z2 = get_instance("writer:Z2")
    column = z2.make(A, ("1", ("a0",)))
    assert column != and_z2.make(A, ("1", ("a0",)))
    with pytest.raises(TypeMismatch, match="instance mismatch") as caught:
        Kernel(and_z2, A, A, [column])
    assert str(caught.value) == f"instance mismatch: {z2.id} vs {and_z2.id}"
    # Another object with the same id is the same instance.
    assert Kernel(get_instance("writer:Z2"), A, A, [column]).columns == (column,)
