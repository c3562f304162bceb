"""End-to-end acceptance checks.

Each test evaluates one headline property, prints a single pass/fail line
(visible with pytest -s or in captured output), and then asserts it.  The
whole module is meant to run in well under a minute.
"""

import random
import sys
from fractions import Fraction

from gsmon.cli import main
from gsmon.errors import NotNormalizable
from gsmon.finset import FinSet, product
from gsmon.independence import (
    check_ci,
    check_ci_n2_equation,
    check_local_independence,
    product_of_factors,
)
from gsmon.kernels import (
    Kernel,
    discard_k,
    enumerate_kernels,
    gs_law_report,
    is_discardable,
    normalize,
    sample_kernel,
    scalar_action,
)
from gsmon.monads import classify, get_instance
from gsmon.monoid import (
    MONOID_LIBRARY,
    assoc_square_is_pullback,
    get_monoid,
    group_pullback_agreement,
    is_group,
    mediators,
)
from gsmon.squares import (
    build_square,
    check_commutes,
    check_pullback,
    theorem_harness,
)

SIZES = {n: FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(1, n + 1)]) for n in (1, 2, 3)}
X2 = FinSet.of("X", ["x0", "x1"])
Y2 = FinSet.of("Y", ["y0", "y1"])
Z2 = FinSet.of("Z", ["z0", "z1"])
A1 = FinSet.of("A", ["a0"])


def report_line(number, label, ok):
    print(f"ACCEPTANCE {number} {label}: {'pass' if ok else 'FAIL'}", file=sys.stderr)
    assert ok, f"acceptance criterion {number} ({label}) failed"


def test_criterion_1_monoid_oracle():
    suite = list(MONOID_LIBRARY.values())
    agree = group_pullback_agreement(suite).passed
    m = get_monoid("AND")
    pb, witness = assoc_square_is_pullback(m)
    cone_0110_empty = mediators(m, m.index("0"), m.index("1"), m.index("1"), m.index("0")) == []
    ok = (
        len(suite) >= 8
        and agree
        and not pb
        and witness is not None
        and cone_0110_empty
    )
    report_line(1, "group test vs pullback oracle", ok)


def test_criterion_2_gs_law_suite():
    objs = [SIZES[1], SIZES[2], SIZES[3]]
    failures = []
    for monad_id in ["Id", "D", "M", "M*", "P", "P*", "writer:Z2", "writer:Z3", "writer:AND", "F"]:
        r = gs_law_report(get_instance(monad_id), objs)
        if not r.passed:
            failures.append((monad_id, r.witness))
    report_line(2, "comonoid and multiplicativity laws", failures == [])


def test_criterion_3_classification_table():
    expected = {
        "D": "affine",
        "P*": "affine",
        "Id": "affine",
        "M*": "weakly_affine_not_affine",
        "M": "not_weakly_affine",
        "P": "not_weakly_affine",
        "writer:AND": "not_weakly_affine",
        "F": "not_weakly_affine",
    }
    for name, monoid in MONOID_LIBRARY.items():
        expected[f"writer:{name}"] = (
            "weakly_affine_not_affine" if is_group(monoid)[0] else "not_weakly_affine"
        )
    expected["writer:Z1"] = "affine"  # |T1| = 1 for the trivial group
    ok = True
    for monad_id, kind in expected.items():
        cls = classify(get_instance(monad_id))
        if cls.kind != kind:
            ok = False
        if kind != "affine" and cls.witness is None:
            ok = False
    ok = ok and classify(get_instance("M")).witness.payload.entries() == (Fraction(0),)
    ok = ok and classify(get_instance("F")).witness.payload.entries() == (2,)
    report_line(3, "affine / weakly affine classification", ok)


def test_criterion_4_theorem_harness():
    triples = [(1, 1, 1), (2, 1, 1), (2, 2, 2)]
    ok = True
    for monad_id in ["writer:Z1", "writer:Z2", "writer:Z3", "writer:AND", "P", "P*", "Id"]:
        r = theorem_harness(get_instance(monad_id), triples, mode="exhaustive")
        ok = ok and r.passed
    r_mstar = theorem_harness(
        get_instance("M*"), [(2, 2, 2)], mode="randomized", trials=1000, seed=11
    )
    ok = ok and r_mstar.passed and "t1_group=True" in r_mstar.note
    sq = build_square("assoc", get_instance("M"), [2, 2, 2])
    r_m = check_pullback(sq, mode="randomized", trials=200, seed=11)
    shape_ok = False
    if not r_m.passed and r_m.witness and "cone" in r_m.witness:
        (u0, u1), (v0, v1) = r_m.witness["cone"]
        shape_ok = (
            all(v == 0 for v in u0.payload.entries())
            and all(v == 0 for v in v1.payload.entries())
            and any(v != 0 for v in u1.payload.entries())
            and any(v != 0 for v in v0.payload.entries())
        )
    report_line(4, "three equivalent conditions", ok and shape_ok)


def test_criterion_5_normalization():
    mstar = get_instance("M*")
    rng = random.Random(42)
    ok = True
    for _ in range(200):
        dom = SIZES[rng.randint(1, 3)]
        cod = SIZES[rng.randint(1, 3)]
        f = sample_kernel(mstar, dom, cod, rng)
        m, n = normalize(f)
        ok = ok and is_discardable(n)
        ok = ok and scalar_action(m, n) == f
        m2, n2 = normalize(n)  # idempotence
        ok = ok and n2 == n and m2 == discard_k(mstar, dom)
        # freeness: the scalar relating n to f is unique, namely m itself
        from gsmon.kernels import equivalent

        a = equivalent(n, f)
        ok = ok and a == m
        if not ok:
            break
    monad_m = get_instance("M")
    zero_rejected = 0
    for cod_n in (1, 2, 3):
        cod = SIZES[cod_n]
        f = Kernel(monad_m, A1, cod, [monad_m.zero(cod)])
        try:
            normalize(f)
        except NotNormalizable as exc:
            if exc.witness == ("a0",):
                zero_rejected += 1
    report_line(5, "normalization and uniqueness", ok and zero_rejected == 3)


def test_criterion_6_conditional_independence():
    monad_m = get_instance("M")
    ok = True
    # (a) zero kernels are CI for every codomain shape up to 2x2x2
    for shape in [(2,), (2, 2), (2, 2, 2), (1, 2, 2), (2, 1, 1)]:
        factors = [FinSet.of(f"B{i}", [f"b{i}_{j}" for j in range(n)]) for i, n in enumerate(shape)]
        cod = product(factors)
        f = Kernel(monad_m, A1, cod, [monad_m.zero(cod)])
        r = check_ci(f, factors, [[i] for i in range(len(factors))])
        ok = ok and r.holds
    # (b) Writer(Z2): exhaustive-search CI agrees with the equivalence method
    w = get_instance("writer:Z2")
    dom = SIZES[2]
    cod = product([X2, Y2])
    agreement = all(
        check_ci(f, [X2, Y2], [[0], [1]], method="exhaustive").holds
        == check_ci(f, [X2, Y2], [[0], [1]], method="equivalence").holds
        for f in enumerate_kernels(w, dom, cod)
    )
    ok = ok and agreement
    # (c) M*: the binary equation matches the equivalence method on 500 kernels
    mstar = get_instance("M*")
    rng = random.Random(42)
    for _ in range(500):
        f = sample_kernel(mstar, dom, cod, rng)
        lhs = check_ci(f, [X2, Y2], [[0], [1]], method="equivalence").holds
        rhs = check_ci_n2_equation(f, [X2, Y2])
        ok = ok and lhs == rhs
    # (d) the diagonal 2x2 measure is not a rank-one table
    diag = Kernel(
        monad_m,
        A1,
        cod,
        [monad_m.make(cod, (Fraction(1), Fraction(0), Fraction(0), Fraction(1)))],
    )
    r = check_ci(diag, [X2, Y2], [[0], [1]], method="rank1")
    ok = ok and not r.holds
    report_line(6, "conditional independence", ok)


def test_criterion_7_localised_independence():
    factors = [X2, Y2, Z2]
    cod = product(factors)
    ok = True
    for monad_id, count in (("M*", 500), ("writer:Z3", 500)):
        inst = get_instance(monad_id)
        rng = random.Random(42)
        for _ in range(count):
            gs = [sample_kernel(inst, A1, s, rng) for s in factors]
            f = product_of_factors(factors, gs, [[0], [1], [2]])
            r = check_local_independence(f, factors)
            ok = ok and r.passed and r.note == "premises hold"
            if not ok:
                break
    monad_m = get_instance("M")
    f0 = Kernel(monad_m, A1, cod, [monad_m.zero(cod)])
    r0 = check_local_independence(f0, factors)
    ok = ok and r0.passed
    report_line(7, "localised independence", ok)


def test_criterion_8_section5_squares():
    monad_m = get_instance("M")
    sq = build_square("strong-affine", monad_m, [2, 2])
    r = check_commutes(sq, mode="randomized", trials=100, seed=42)
    witness_ok = False
    if not r.passed and r.witness:
        x, ty = r.witness["apex"]
        witness_ok = x in sq.tl[0].space and all(v == 0 for v in ty.payload.entries())
    ok = witness_ok
    for monad_id, mode in [
        ("Id", "exhaustive"),
        ("P", "exhaustive"),
        ("P*", "exhaustive"),
        ("writer:Z2", "exhaustive"),
        ("writer:Z3", "exhaustive"),
        ("writer:AND", "exhaustive"),
        ("M", "randomized"),
        ("M*", "randomized"),
        ("D", "randomized"),
        ("F", "randomized"),
    ]:
        sq = build_square("positivity", get_instance(monad_id), [2, 2])
        r = check_commutes(sq, mode=mode, trials=500, seed=42)
        ok = ok and r.passed
    sq = build_square("strong-affine", get_instance("D"), [2, 2])
    r = check_pullback(sq, mode="randomized", trials=500, seed=42)
    ok = ok and r.passed and r.trials >= 500
    report_line(8, "unit-strength and discard-strength squares", ok)


def test_criterion_9_determinism(capsys):
    argv = [
        "check", "theorem", "--monad", "M*", "--mode", "random",
        "--trials", "200", "--seed", "11", "--sizes", "2,2,2",
    ]
    outputs = []
    for _ in range(2):
        code = main(list(argv))
        outputs.append(capsys.readouterr().out)
        assert code == 0
    byte_identical = outputs[0] == outputs[1]
    argv2 = [
        "check", "pullback", "--square", "assoc", "--monad", "M",
        "--sizes", "2,2,2", "--mode", "random", "--trials", "100", "--seed", "3",
    ]
    outs2 = []
    for _ in range(2):
        main(list(argv2))
        outs2.append(capsys.readouterr().out)
    byte_identical = byte_identical and outs2[0] == outs2[1]
    report_line(9, "seeded runs are byte-identical", byte_identical)
