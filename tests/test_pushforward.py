"""Pushforwards and index-built regroupings against the code they replaced.

Marginals, block reorders and mass push a kernel forward along a base
function (`kernels.pushforward`) instead of composing it with the lifted
function, and the regrouping functions of `projection_fun`, `swap_fun` and
the CI layer are built by mixed-radix index arithmetic (`regroup_fun`)
instead of one element-level call per domain element.  The oracles below
are the replaced code: the composite `compose(lift(inst, phi), f)`, the
element-level `regroup` read through `fun_from_callable`, and mass as
`compose(discard, f)`.
"""

import itertools
import random

import pytest

from gsmon import independence, kernels
from gsmon.errors import TypeMismatch
from gsmon.finset import (
    FinSet,
    UNIT,
    product,
    projection_fun,
    regroup_fun,
    swap_fun,
    terminal_fun,
)
from gsmon.independence import (
    check_ci,
    check_ci_n2_equation,
    check_local_independence,
    marginal,
    product_of_factors,
)
from gsmon.kernels import (
    compose,
    discard_k,
    lift,
    mass,
    pushforward,
    sample_kernel,
)
from gsmon.monads import ALL_MONAD_IDS, get_instance
from test_finset import fun_from_callable

AND_AS_Z2 = '{"elements":["0","1"],"name":"Z2","table":[[0,0],[0,1]],"unit":1}'
PUSHED = ALL_MONAD_IDS + ["writer:Z2xZ2", "F(B=2)", f"writer:{AND_AS_Z2}"]

A2 = FinSet.of("A", ["a0", "a1"])
X = FinSet.of("X", ["x0", "x1"])
Y = FinSet.of("Y", ["y0", "y1", "y2"])
Z = FinSet.of("Z", ["z0", "z1"])


# -- the oracles ---------------------------------------------------------------


def regroup(factors, order):
    """The map sending an element of product(factors) to its coordinates in
    the factors listed in `order`, concatenated in that order (the former
    `finset.regroup`)."""
    spans = []
    pos = 0
    for f in factors:
        spans.append(slice(pos, pos + f.arity))
        pos += f.arity
    picked = [spans[i] for i in order]
    return lambda e: sum((e[s] for s in picked), ())


def regroup_oracle(dom, cod, factors, order):
    return fun_from_callable(dom, cod, regroup(factors, order))


def lifted_composite(phi, f):
    return compose(lift(f.inst, phi), f)


def composite_mass(f):
    return compose(discard_k(f.inst, f.cod), f)


def outcome(run, *args):
    """run(*args) as JSON, or the type and text of what it raised."""
    try:
        out = run(*args)
    except Exception as exc:  # the slow path must raise alike
        return type(exc).__name__, str(exc)
    return out if isinstance(out, bool) else out.to_json()


def on_slow_paths(monkeypatch, run, *args):
    """run(*args) with the CI layer and mass on the replaced code."""
    with monkeypatch.context() as m:
        m.setattr(independence, "pushforward", lifted_composite)
        m.setattr(independence, "regroup_fun", regroup_oracle)
        m.setattr(independence, "mass", composite_mass)
        m.setattr(kernels, "mass", composite_mass)
        return outcome(run, *args)


# -- index regrouping ------------------------------------------------------------

PAIRS = FinSet("P", [("p0", "q0"), ("p0", "q1"), ("p1", "q0"), ("p1", "q1"), ("p2", "q0")])
REGROUP_SETS = [FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(n)]) for n in range(4)]
REGROUP_SETS += [PAIRS, UNIT]


def test_regroup_by_index_is_the_element_level_regroup():
    # Up to 3 factors, repeats allowed, of sizes 0-3, an arity-2 set and
    # UNIT; every sequence of factor indices, so every subset in every
    # order, every permutation, and orders that name a factor twice.
    checked = 0
    for n in range(4):
        for factors in itertools.product(REGROUP_SETS, repeat=n):
            dom = product(factors)
            for k in range(n + 1):
                for order in itertools.product(range(n), repeat=k):
                    cod = product([factors[i] for i in order])
                    fast = regroup_fun(dom, cod, factors, order)
                    assert fast == regroup_oracle(dom, cod, factors, order)
                    assert fast.dom is dom and fast.cod is cod
                    checked += 1
    assert checked == 1 + 6 * 2 + 36 * 7 + 216 * 40


def test_projection_swap_and_terminal_maps_match_the_element_level_maps():
    for n in range(4):
        for factors in itertools.product(REGROUP_SETS, repeat=n):
            for k in range(n + 1):
                for keep in itertools.permutations(range(n), k):
                    kept = product([factors[i] for i in keep])
                    assert projection_fun(factors, keep) == regroup_oracle(
                        product(factors), kept, factors, keep
                    )
    for x, y in itertools.product(REGROUP_SETS, repeat=2):
        xy, yx = product([x, y]), product([y, x])
        assert swap_fun(x, y) == fun_from_callable(xy, yx, lambda e: e[x.arity:] + e[:x.arity])
    for x in REGROUP_SETS:
        assert terminal_fun(x) == fun_from_callable(x, UNIT, lambda e: ())


# -- pushforward -------------------------------------------------------------------


@pytest.mark.parametrize("monad_id", PUSHED)
def test_pushforward_is_the_composite_with_the_lifted_map(monad_id):
    inst = get_instance(monad_id)
    rng = random.Random(monad_id)
    factors = [X, Y, Z]
    cod = product(factors)
    for f in [sample_kernel(inst, A2, cod, rng) for _ in range(3)]:
        # Every block in every order: the projections, the reorders (among
        # them the non-sorted ones) and, for the empty block, X -> I.
        for k in range(4):
            for block in itertools.permutations(range(3), k):
                phi = projection_fun(factors, block)
                fast, slow = pushforward(phi, f), lifted_composite(phi, f)
                assert fast == slow
                assert all(c.base is phi.cod for c in fast.columns + slow.columns)
            for block in itertools.combinations(range(3), k):
                if block:
                    assert marginal(f, factors, block) == lifted_composite(
                        projection_fun(factors, block), f
                    )
        assert pushforward(terminal_fun(cod), f) == lifted_composite(terminal_fun(cod), f)
        assert mass(f) == composite_mass(f)
        assert all(c.base is UNIT for c in mass(f).columns)


def test_pushforward_refuses_a_map_from_another_set():
    inst = get_instance("M")
    f = sample_kernel(inst, A2, product([X, Y]), random.Random(1))
    with pytest.raises(TypeMismatch, match="cannot push XxY forward along a map from YxX"):
        pushforward(swap_fun(Y, X), f)


def test_ci_queries_build_no_composite(monkeypatch):
    for name in ("compose", "lift"):
        monkeypatch.setattr(kernels, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    inst = get_instance("M*")
    rng = random.Random(5)
    f = product_of_factors(
        [X, Y, Z], [sample_kernel(inst, A2, s, rng) for s in (Z, X, Y)], [[2], [0], [1]]
    )
    assert check_local_independence(f, [X, Y, Z]).passed
    assert check_ci(f, [X, Y, Z], [[2], [0, 1]]).holds
    assert check_ci_n2_equation(marginal(f, [X, Y, Z], [0, 1]), [X, Y])


# -- the CI layer ------------------------------------------------------------------

CI_MONADS = ["M*", "D", "M", "writer:Z3", "writer:Z2", "writer:AND", "P", "P*", "Id", "F(B=1)"]
CI_PARTITIONS = {
    2: [[[0], [1]], [[1], [0]]],
    3: [[[0], [1], [2]], [[0, 1], [2]], [[0], [1, 2]], [[0, 2], [1]], [[2], [1], [0]],
        [[1], [2, 0]]],
}


def ci_kernels(inst, factors, rng):
    """A product-form kernel, built from sampled factors in a shuffled block
    order, and a generic sampled kernel, over product(factors)."""
    n = len(factors)
    blocks = CI_PARTITIONS[n][-1]
    gs = [sample_kernel(inst, A2, product([factors[i] for i in b]), rng) for b in blocks]
    return [
        product_of_factors(factors, gs, blocks),
        sample_kernel(inst, A2, product(factors), rng),
    ]


@pytest.mark.parametrize("monad_id", CI_MONADS)
def test_ci_answers_as_the_composite_built_ci(monkeypatch, monad_id):
    inst = get_instance(monad_id)
    rng = random.Random(monad_id)
    compared = 0
    for factors in ([X, Y], [X, Y, Z]):
        for f in ci_kernels(inst, factors, rng):
            for partition in CI_PARTITIONS[len(factors)]:
                for method in ("equivalence", "rank1", "exhaustive"):
                    fast = outcome(check_ci, f, factors, partition, method)
                    assert fast == on_slow_paths(monkeypatch, check_ci, f, factors, partition, method)
                    compared += isinstance(fast, dict)
            if len(factors) == 2:
                fast = outcome(check_ci_n2_equation, f, factors)
                assert fast == on_slow_paths(monkeypatch, check_ci_n2_equation, f, factors)
            else:
                for method in ("auto", "equivalence", "rank1", "exhaustive"):
                    fast = outcome(check_local_independence, f, factors, method)
                    assert fast == on_slow_paths(
                        monkeypatch, check_local_independence, f, factors, method
                    )
    assert compared  # at least one method applies to every instance
