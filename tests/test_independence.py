import dataclasses
import functools
import random
from fractions import Fraction

import pytest

from gsmon.errors import InvalidBlock, MethodInapplicable, TypeMismatch
from gsmon.finset import FinSet, product
from gsmon.independence import (
    CIResult,
    _ci_exhaustive,
    _in_block_order,
    check_ci,
    check_ci_n2_equation,
    check_local_independence,
    marginal,
    product_of_factors,
    product_of_marginals,
)
from gsmon.kernels import Kernel, enumerate_kernels, sample_kernel, scalar_action
from gsmon.monads import WriterMonad, budgeted_product, classification_of, get_instance
from gsmon.monoid import get_monoid

A = FinSet.of("A", ["a0"])
A2 = FinSet.of("A", ["a0", "a1"])
X = FinSet.of("X", ["x0", "x1"])
Y = FinSet.of("Y", ["y0", "y1"])
Z = FinSet.of("Z", ["z0", "z1"])

M = get_instance("M")
MSTAR = get_instance("M*")


def measure_kernel(inst, dom, cod, rows):
    return Kernel(
        inst, dom, cod, [inst.make(cod, tuple(Fraction(v) for v in row)) for row in rows]
    )


def test_marginal_sums_out_discarded_coordinates():
    cod = product([X, Y])
    f = measure_kernel(M, A, cod, [[1, 2, 3, 4]])
    fx = marginal(f, [X, Y], [0])
    fy = marginal(f, [X, Y], [1])
    assert tuple(fx(("a0",)).payload) == (Fraction(3), Fraction(7))
    assert tuple(fy(("a0",)).payload) == (Fraction(4), Fraction(6))


def test_marginal_validates_blocks():
    cod = product([X, Y])
    f = measure_kernel(M, A, cod, [[1, 0, 0, 1]])
    with pytest.raises(InvalidBlock):
        marginal(f, [X, Y], [2])
    with pytest.raises(InvalidBlock):
        marginal(f, [X, Y], [0, 0])
    with pytest.raises(InvalidBlock):
        marginal(f, [X], [0])  # factors do not multiply to the codomain


def test_check_ci_validates_partitions():
    cod = product([X, Y])
    f = measure_kernel(M, A, cod, [[1, 0, 0, 1]])
    with pytest.raises(InvalidBlock):
        check_ci(f, [X, Y], [[0]])
    with pytest.raises(InvalidBlock):
        check_ci(f, [X, Y], [[0, 1], [1]])


def test_outer_product_kernel_is_ci():
    rng = random.Random(12)
    cod = product([X, Y])
    # In D (affine) rank1 must renormalize its factors into distributions.
    for inst in (MSTAR, get_instance("D")):
        gx = sample_kernel(inst, A2, X, rng)
        gy = sample_kernel(inst, A2, Y, rng)
        f = product_of_factors([X, Y], [gx, gy], [[0], [1]])
        for method in ("equivalence", "rank1"):
            result = check_ci(f, [X, Y], [[0], [1]], method=method)
            assert result.holds, (inst.id, method, result.witness)


def test_diagonal_measure_is_not_ci():
    cod = product([X, Y])
    diag = measure_kernel(M, A, cod, [[1, 0, 0, 1]])
    result = check_ci(diag, [X, Y], [[0], [1]])
    assert result.method == "rank1"
    assert not result.holds


def test_zero_kernel_is_ci_in_measures():
    for factors in ([X, Y], [X, Y, Z]):
        cod = product(factors)
        f = Kernel(M, A, cod, [M.zero(cod)])
        result = check_ci(f, factors, [[i] for i in range(len(factors))])
        assert result.holds
        # certificate must rebuild the kernel exactly (checked internally too)
        rebuilt = product_of_factors(factors, result.certificate, [[i] for i in range(len(factors))])
        assert rebuilt == f


def test_noncontiguous_partition_reorders_correctly():
    rng = random.Random(9)
    gxz = sample_kernel(MSTAR, A, product([X, Z]), rng)
    gy = sample_kernel(MSTAR, A, Y, rng)
    # assemble with blocks ((X,Z), Y): coordinates must come back as X,Y,Z
    f = product_of_factors([X, Y, Z], [gxz, gy], [[0, 2], [1]])
    table = f(("a0",))
    for xe, ye, ze in ((0, 0, 1), (1, 1, 0)):
        got = table.payload[f.cod.index((f"x{xe}", f"y{ye}", f"z{ze}"))]
        want = (
            gxz(("a0",)).payload[product([X, Z]).index((f"x{xe}", f"z{ze}"))]
            * gy(("a0",)).payload[ye]
        )
        assert got == want
    result = check_ci(f, [X, Y, Z], [[0, 2], [1]], method="rank1")
    assert result.holds


def test_product_of_marginals_of_ci_kernel_is_equivalent():
    rng = random.Random(21)
    gx = sample_kernel(MSTAR, A, X, rng)
    gy = sample_kernel(MSTAR, A, Y, rng)
    f = product_of_factors([X, Y], [gx, gy], [[0], [1]])
    result = check_ci(f, [X, Y], [[0], [1]], method="equivalence")
    assert result.holds
    assert result.scalar is not None
    p = product_of_marginals(f, [X, Y], [[0], [1]])
    assert scalar_action(result.scalar, p) == f


def test_writer_exhaustive_agrees_with_equivalence():
    w = get_instance("writer:Z2")
    cod = product([X, Y])
    both = []
    for f in enumerate_kernels(w, A2, cod):
        a = check_ci(f, [X, Y], [[0], [1]], method="exhaustive")
        b = check_ci(f, [X, Y], [[0], [1]], method="equivalence")
        assert a.holds == b.holds, f
        both.append(a.holds)
    # every writer kernel is CI: each column (a, (x, y)) splits columnwise
    # into (a, x) and (unit, y), so the interesting content is the agreement
    assert all(both)


def test_n2_equation_matches_equivalence_method():
    rng = random.Random(4)
    cod = product([X, Y])
    for _ in range(100):
        f = sample_kernel(MSTAR, A2, cod, rng)
        via_eq = check_ci(f, [X, Y], [[0], [1]], method="equivalence").holds
        via_n2 = check_ci_n2_equation(f, [X, Y])
        assert via_eq == via_n2


def test_n2_equation_requires_binary_codomain():
    f = measure_kernel(M, A, X, [[1, 2]])
    with pytest.raises(TypeMismatch):
        check_ci_n2_equation(f, [X])


def test_method_applicability():
    w = get_instance("writer:AND")
    f = Kernel(w, A, X, [w.unit(X, ("x0",))])
    with pytest.raises(MethodInapplicable):
        check_ci(f, [X], [[0]], method="rank1")
    with pytest.raises(MethodInapplicable):
        check_ci(f, [X], [[0]], method="equivalence")  # not weakly Markov
    with pytest.raises(MethodInapplicable):
        check_ci(f, [X], [[0]], method="nonsense")


def test_local_independence_constructive():
    rng = random.Random(33)
    factors = [X, Y, Z]
    gs = [sample_kernel(MSTAR, A, s, rng) for s in factors]
    f = product_of_factors(factors, gs, [[0], [1], [2]])
    report = check_local_independence(f, factors)
    assert report.passed
    assert report.note == "premises hold"


def test_classification_is_kept_per_writer_monoid():
    # Two writer monads named alike: over a group (Z2) and over AND, which
    # is not a group.  Each keeps its own verdict, so check_ci picks the
    # exhaustive search for the second instead of the equivalence method.
    over_z2 = WriterMonad(dataclasses.replace(get_monoid("Z2"), name="M2"))
    over_and = WriterMonad(dataclasses.replace(get_monoid("AND"), name="M2"))
    assert over_z2.id != over_and.id
    assert {over_z2.id[:8], over_and.id[:8]} == {"writer:{"}
    assert classification_of(over_z2).kind == "weakly_affine_not_affine"
    assert classification_of(over_and).kind == "not_weakly_affine"
    cod = product([X, Y])
    f = Kernel(over_and, A, cod, [over_and.make(cod, ("0", ("x0", "y0")))])
    assert check_ci(f, [X, Y], [[0], [1]]).method == "exhaustive_search"
    # Instances resolved from one id share it, so a verdict found once
    # serves every later instance.
    assert classification_of(get_instance("writer:Z2")) is classification_of(
        get_instance("writer:Z2")
    )


def test_local_independence_vacuous_case():
    factors = [X, Y, Z]
    cod = product(factors)
    diag = [Fraction(0)] * len(cod)
    diag[cod.index(("x0", "y0", "z0"))] = Fraction(1)
    diag[cod.index(("x1", "y1", "z1"))] = Fraction(1)
    f = Kernel(M, A, cod, [M.make(cod, tuple(diag))])
    report = check_local_independence(f, factors)
    assert report.passed
    assert "vacuous" in report.note


def diagonal_subset_kernel(inst):
    """A -> X x Y with the one column {(x0, y0), (x1, y1)}: not a product."""
    cod = product([X, Y])
    return Kernel(inst, A, cod, [inst.make(cod, [("x0", "y0"), ("x1", "y1")])])


def test_exhaustive_search_refutes_a_diagonal_subset():
    f = diagonal_subset_kernel(get_instance("P*"))
    result = check_ci(f, [X, Y], [[0], [1]], method="exhaustive")
    assert (result.holds, result.method) == (False, "exhaustive_search")
    assert result.witness == {"column": ("a0",)}


def test_auto_picks_exhaustive_search_for_the_powerset():
    f = diagonal_subset_kernel(get_instance("P"))
    result = check_ci(f, [X, Y], [[0], [1]])
    assert (result.holds, result.method) == (False, "exhaustive_search")
    assert result.witness == {"column": ("a0",)}


# ---------------------------------------------------------------------------
# The indexed factor search against the scan it replaced


def scan_exhaustive(f, factors, partition):
    """The oracle: scan every factor combination, from the first, for every
    column."""
    inst = f.inst
    blocks, targets = _in_block_order(f, factors, partition)
    combos = list(budgeted_product(
        (inst.enumerate_values(b) for b in blocks), inst.id, "factor combinations per column"
    ))
    found = []
    for x, target in zip(f.dom.elements, targets):
        combo = next((c for c in combos if functools.reduce(inst.lax_c, c) == target), None)
        if combo is None:
            return CIResult(False, "exhaustive_search", witness={"column": x})
        found.append(combo)
    cert = [
        Kernel(inst, f.dom, block, [combo[k] for combo in found])
        for k, block in enumerate(blocks)
    ]
    return CIResult(True, "exhaustive_search", certificate=cert)


PARTITIONS = {
    2: [[[0], [1]], [[1], [0]]],
    3: [[[0], [1], [2]], [[0, 1], [2]], [[0], [1, 2]], [[0, 2], [1]]],
}


def assert_index_matches_scan(inst, factors):
    """Every state over the product of `factors`, alone and paired with
    another, decided by the indexed search and by the scan."""
    cod = product(list(factors))
    states = list(inst.enumerate_values(cod))
    columns = [[s] for s in states] + [[s, t] for s, t in zip(reversed(states), states)]
    for cols in columns:
        f = Kernel(inst, A if len(cols) == 1 else A2, cod, cols)
        for partition in PARTITIONS[len(factors)]:
            got = _ci_exhaustive(f, factors, partition).to_json()
            assert got == scan_exhaustive(f, factors, partition).to_json()


@pytest.mark.parametrize(
    "monad_id, factors",
    [pytest.param(m, (X, Y), id=f"{m}-2,2")
     for m in ("P", "P*", "Id", "writer:Z2", "writer:AND", "F(B=1)")]
    + [pytest.param(m, (X, Y, Z), id=f"{m}-2,2,2") for m in ("P", "writer:Z2")],
)
def test_indexed_factor_search_matches_the_scan(monad_id, factors):
    assert_index_matches_scan(get_instance(monad_id), factors)


def counting_lax_c(inst, fail_at=None):
    """Replace inst.lax_c by a counting copy that raises on call `fail_at`."""
    calls = []

    def lax_c(t, u):
        calls.append(1)
        if len(calls) == fail_at:
            raise RuntimeError("lax_c failed")
        return type(inst).lax_c(inst, t, u)

    inst.lax_c = lax_c
    return calls


def test_a_fold_that_raises_leaves_no_stale_index():
    # The search after the failed one must not start from a part-grown index.
    cod = product([X, Y])
    target = [("x1", "y1")]  # only {x1} x {y1} folds to it
    probe = get_instance("P")
    needed = counting_lax_c(probe)
    _ci_exhaustive(Kernel(probe, A, cod, [probe.make(cod, target)]), [X, Y], [[0], [1]])

    inst = get_instance("P")
    f = Kernel(inst, A, cod, [inst.make(cod, target)])
    counting_lax_c(inst, fail_at=len(needed))  # raise on the target's own combination
    with pytest.raises(RuntimeError):
        _ci_exhaustive(f, [X, Y], [[0], [1]])
    del inst.lax_c
    result = _ci_exhaustive(f, [X, Y], [[0], [1]])
    assert result.holds
    assert result.to_json() == scan_exhaustive(f, [X, Y], [[0], [1]]).to_json()


def test_the_index_computes_fewer_folds_than_the_scan():
    inst, oracle = get_instance("writer:Z2"), get_instance("writer:Z2")
    cod = product([X, Y])
    states = list(inst.enumerate_values(cod))
    dom = FinSet.of("A", [f"a{i}" for i in range(2 * len(states))])
    columns = states + states[::-1]
    indexed, scanned = counting_lax_c(inst), counting_lax_c(oracle)
    got = _ci_exhaustive(Kernel(inst, dom, cod, columns), [X, Y], [[0], [1]])
    want = scan_exhaustive(Kernel(oracle, dom, cod, columns), [X, Y], [[0], [1]])
    assert got.to_json() == want.to_json()
    # Two blocks: one lax_c per combination, and no combination folded twice.
    combinations = len(list(inst.enumerate_values(X))) * len(list(inst.enumerate_values(Y)))
    assert 0 < len(indexed) <= combinations < len(scanned)
