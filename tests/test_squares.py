import random

import pytest

from gsmon import monads, squares
from gsmon.errors import (
    InvariantViolation,
    MalformedInput,
    NoSolverForRandomized,
    PayloadInvalid,
)
from gsmon.finset import FinSet
from gsmon.monads import FreeAbelianMonad, get_instance
from gsmon.monoid import MONOID_LIBRARY, is_group
from gsmon.report import CheckReport
from gsmon.squares import (
    _enumerate_corner,
    assoc_square,
    build_square,
    check_commutes,
    check_pullback,
    positivity_square,
    strong_affine_square,
    theorem_harness,
)

X = FinSet.of("S1", ["s1_1", "s1_2"])
Y = FinSet.of("S2", ["s2_1", "s2_2"])
Z = FinSet.of("S3", ["s3_1", "s3_2"])

TRIPLES = [(1, 1, 1), (2, 1, 1), (2, 2, 2)]


@pytest.mark.parametrize("monad_id", ["Id", "P", "P*", "writer:Z2", "writer:AND"])
def test_assoc_square_always_commutes_enumerable(monad_id):
    sq = assoc_square(get_instance(monad_id), X, Y, Z)
    assert check_commutes(sq, mode="exhaustive").passed


@pytest.mark.parametrize("monad_id", ["M", "M*", "D", "F"])
def test_assoc_square_always_commutes_sampled(monad_id):
    sq = assoc_square(get_instance(monad_id), X, Y, Z)
    assert check_commutes(sq, mode="randomized", trials=100, seed=2).passed


def test_assoc_pullback_exhaustive_matches_group_property():
    # one shared size triple; the writer instances realize every library monoid
    small = FinSet.of("S1", ["s1_1"])
    for name, monoid in sorted(MONOID_LIBRARY.items()):
        inst = get_instance(f"writer:{name}")
        sq = assoc_square(inst, small, small, small)
        verdict = check_pullback(sq, mode="exhaustive").passed
        assert verdict == is_group(monoid)[0], name


def test_assoc_pullback_randomized_solver_mstar():
    sq = assoc_square(get_instance("M*"), X, Y, Z)
    report = check_pullback(sq, mode="randomized", trials=300, seed=11)
    assert report.passed
    assert "no counterexample" in report.note


def test_assoc_pullback_fails_for_m_with_zero_cone():
    sq = assoc_square(get_instance("M"), X, Y, Z)
    report = check_pullback(sq, mode="randomized", trials=100, seed=11)
    assert not report.passed
    (u0, u1), (v0, v1) = report.witness["cone"]
    # the counterexample has the shape ((0, p), (q, 0)) with p, q nonzero
    assert all(v == 0 for v in u0.payload.entries())
    assert all(v == 0 for v in v1.payload.entries())
    assert any(v != 0 for v in u1.payload.entries())
    assert any(v != 0 for v in v0.payload.entries())


def wrong_middle_factor(square):
    """Make the assoc square's solver return twice the true middle factor."""
    inst, solve = square.inst, square.solver

    def solver(u, v):
        t_x, t_y, t_z = solve(u, v)
        return t_x, inst.make(t_y.base, tuple(2 * w for w in t_y.payload.entries())), t_z

    square.solver = solver
    return square


def test_bogus_solver_output_is_an_invariant_violation():
    sq = wrong_middle_factor(assoc_square(get_instance("M*"), X, Y, Z))
    with pytest.raises(InvariantViolation, match="solver output fails projections"):
        check_pullback(sq, mode="randomized", trials=5, seed=11)


def test_randomized_pullback_requires_solver():
    sq = positivity_square(get_instance("M"), X, Y)
    sq.solver = None
    with pytest.raises(NoSolverForRandomized):
        check_pullback(sq, mode="randomized", trials=10)


def test_strong_affine_square_fails_to_commute_for_m():
    sq = strong_affine_square(get_instance("M"), X, Y)
    report = check_commutes(sq, mode="randomized", trials=50, seed=1)
    assert not report.passed
    x, ty = report.witness["apex"]
    assert x in X
    assert all(v == 0 for v in ty.payload.entries())  # the witness is (x, 0)


def test_strong_affine_square_pullback_for_d():
    sq = strong_affine_square(get_instance("D"), X, Y)
    report = check_pullback(sq, mode="randomized", trials=500, seed=3)
    assert report.passed
    assert report.trials >= 500


def test_strong_affine_square_exhaustive_for_enumerable():
    for monad_id in ("Id", "P*"):
        sq = strong_affine_square(get_instance(monad_id), X, Y)
        assert check_pullback(sq, mode="exhaustive").passed


@pytest.mark.parametrize(
    "monad_id,mode",
    [
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
    ],
)
def test_positivity_square_commutes_everywhere(monad_id, mode):
    sq = positivity_square(get_instance(monad_id), X, Y)
    report = check_commutes(sq, mode=mode, trials=200, seed=7)
    assert report.passed, report.witness


def test_positivity_pullback_writer_z2_recorded():
    # no ground truth is asserted here; the exhaustive verdict is recorded
    sq = positivity_square(get_instance("writer:Z2"), X, Y)
    report = check_pullback(sq, mode="exhaustive")
    assert report.mode == "exhaustive"


def test_positivity_pullback_id():
    sq = positivity_square(get_instance("Id"), X, Y)
    assert check_pullback(sq, mode="exhaustive").passed


@pytest.mark.parametrize(
    "monad_id", ["writer:Z1", "writer:Z2", "writer:Z3", "writer:AND", "P", "P*", "Id"]
)
def test_theorem_harness_exhaustive_agreement(monad_id):
    report = theorem_harness(get_instance(monad_id), TRIPLES, mode="exhaustive")
    assert report.passed, report.witness


def test_theorem_harness_m_all_false():
    report = theorem_harness(
        get_instance("M"), [(2, 2, 2)], mode="randomized", trials=100, seed=5
    )
    assert report.passed
    assert "t1_group=False" in report.note
    assert "effect_groups=False" in report.note
    assert "assoc_pullback=False" in report.note


def test_theorem_harness_mstar_all_true():
    report = theorem_harness(
        get_instance("M*"), [(2, 2, 2)], mode="randomized", trials=200, seed=11
    )
    assert report.passed
    assert "t1_group=True" in report.note


@pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
def test_theorem_harness_refuses_an_empty_size_list(monkeypatch, mode):
    # Conditions 2 and 3 would hold vacuously; the refusal comes before any work.
    monkeypatch.setattr(squares, "classification_of", lambda inst: pytest.fail("classified"))
    with pytest.raises(MalformedInput, match="no size triples"):
        theorem_harness(get_instance("M"), [], mode=mode)


def test_build_square_names():
    sq = build_square("assoc", get_instance("Id"), [2, 2, 2])
    assert sq.name.startswith("assoc[Id")
    sq = build_square("strong-affine", get_instance("D"), [2, 2])
    assert "strong_affine" in sq.name


def test_randomized_verdicts_are_seed_deterministic():
    def run():
        sq = assoc_square(get_instance("M*"), X, Y, Z)
        return check_pullback(sq, mode="randomized", trials=100, seed=13).to_json()

    assert run() == run()


# ---------------------------------------------------------------------------
# The plain scans that the apex index replaces in the commutation check, the
# cone loop and the mediator lookup, kept as their oracles.

LIBRARY_IDS = [f"writer:{name}" for name in sorted(MONOID_LIBRARY)] + ["P", "P*", "Id"]


def projected_apexes(square) -> list:
    """(top(t), left(t), t) for every apex t, in enumeration order."""
    return [(square.top(t), square.left(t), t) for t in _enumerate_corner(square.inst, square.tl)]


def test_randomized_assoc_pullback_on_d_falls_back_to_unscaled_cones(monkeypatch):
    # Scaling the legs of a D cone leaves D, so the sampler keeps the
    # unscaled cone: the check still passes on every cone.
    refused = []
    scale = monads._scale

    def counted_scale(*args):
        try:
            return scale(*args)
        except PayloadInvalid:
            refused.append(args)
            raise

    monkeypatch.setattr(monads, "_scale", counted_scale)
    sq = build_square("assoc", get_instance("D"), [2, 2, 2])
    report = check_pullback(sq, mode="randomized", trials=200, seed=1)
    assert report.passed
    assert refused


def scan_commutes(square) -> CheckReport:
    """The exhaustive commutation check, one apex at a time."""
    for t in _enumerate_corner(square.inst, square.tl):
        if square.right(square.top(t)) != square.bottom(square.left(t)):
            return CheckReport(
                name=f"commutes[{square.name}]", passed=False, witness={"apex": list(t)}
            )
    return CheckReport(name=f"commutes[{square.name}]", passed=True)


def scan_mediators(apexes, u, v) -> list:
    """The apexes t with top(t) == u and left(t) == v, by a linear scan."""
    return [t for top, left, t in apexes if top == u and left == v]


def compatible_cones(square):
    """Every (u, v) with right(u) == bottom(v), by the nested scan over TR x BL."""
    for u in _enumerate_corner(square.inst, square.tr):
        for v in _enumerate_corner(square.inst, square.bl):
            if square.right(u) == square.bottom(v):
                yield u, v


def scan_pullback(square) -> CheckReport:
    """The exhaustive cone loop of a commuting square: every compatible cone
    is scanned against every apex."""
    apexes = projected_apexes(square)
    name = f"pullback[{square.name}]"
    for u, v in compatible_cones(square):
        found = scan_mediators(apexes, u, v)
        if len(found) != 1:
            witness = {"cone": [list(u), list(v)], "mediators": len(found)}
            return CheckReport(name=name, passed=False, mode="exhaustive", witness=witness)
    return CheckReport(name=name, passed=True, mode="exhaustive")


@pytest.mark.parametrize(
    "kind,sizes",
    [("assoc", sizes) for sizes in TRIPLES] + [("strong-affine", (2, 2)), ("positivity", (2, 2))],
)
@pytest.mark.parametrize("monad_id", LIBRARY_IDS)
def test_indexed_pullback_matches_the_scan(monad_id, kind, sizes):
    square = build_square(kind, get_instance(monad_id), sizes)
    report = check_pullback(square, mode="exhaustive")
    if check_commutes(square).passed:
        assert report.to_json() == scan_pullback(square).to_json()
    else:  # both paths stop before the cone loop
        assert report.note == "square does not commute; pullback not evaluated"


# The strong-affine squares of the eight non-affine instances (P and every
# writer but Z1) do not commute: 16 of these 60 squares.
@pytest.mark.parametrize(
    "kind,sizes",
    [("assoc", sizes) for sizes in TRIPLES]
    + [("strong-affine", (2, 2)), ("strong-affine", (3, 2)), ("positivity", (2, 2))],
)
@pytest.mark.parametrize("monad_id", LIBRARY_IDS)
def test_keyed_commutation_check_matches_the_scan(monad_id, kind, sizes):
    square = build_square(kind, get_instance(monad_id), sizes)
    expected = scan_commutes(square).to_json()
    assert check_commutes(square, mode="exhaustive").to_json() == expected
    affine = monad_id in ("writer:Z1", "P*", "Id")
    assert expected["passed"] == (kind != "strong-affine" or affine)


def test_keyed_commutation_witness_is_the_first_apex_of_its_key():
    # Spoil the right edge of P's assoc square wherever the second half of
    # the cone is empty; the first failing key then holds two apexes.
    square = build_square("assoc", get_instance("P"), (2, 1, 1))
    right, zero = square.right, square.inst.zero(square.tr[1].space)
    square.right = lambda u: ("spoilt",) if u[1] == zero else right(u)
    report = check_commutes(square, mode="exhaustive")
    assert report.to_json() == scan_commutes(square).to_json()
    t = tuple(report.witness["apex"])
    assert len(square.apex_index()[square.top(t), square.left(t)]) == 2


def test_exhaustive_pullback_evaluates_top_and_left_once_per_apex():
    square = build_square("assoc", get_instance("writer:Z2"), (2, 1, 2))
    calls = []
    top, left = square.top, square.left
    square.top = lambda t: calls.append("top") or top(t)
    square.left = lambda t: calls.append("left") or left(t)
    apexes = len(list(_enumerate_corner(square.inst, square.tl)))
    assert check_pullback(square, mode="exhaustive").passed
    assert calls.count("top") == calls.count("left") == apexes


def test_randomized_pullback_of_an_enumerable_square_reads_the_index():
    square = build_square("strong-affine", get_instance("P*"), (2, 2))

    def solver(u, v):
        raise AssertionError("the solver of an enumerable square is not asked")

    square.solver = solver
    assert check_pullback(square, mode="randomized", trials=50, seed=3).passed
    square.solver = None
    assert check_pullback(square, mode="randomized", trials=50, seed=3).passed


def test_search_solver_matches_the_scan_on_every_cone():
    square = build_square("assoc", get_instance("P"), (2, 1, 1))
    apexes = projected_apexes(square)
    counts = set()
    for u, v in compatible_cones(square):
        found = scan_mediators(apexes, u, v)
        counts.add(min(len(found), 2))
        assert list(square.mediators(u, v)) == found
    assert counts == {0, 1, 2}


@pytest.mark.parametrize(
    "monad_id,sizes",
    [("P", (1, 1, 1)), ("P", (2, 2, 2)), ("writer:AND", (1, 1, 1)),
     ("writer:AND", (2, 2, 2)), ("F(B=1)", (1, 1, 1))],
)
def test_a_randomized_pullback_reports_every_mediator_of_its_failing_cone(monad_id, sizes):
    # Over an enumerable instance the failing cone's count is read from the
    # index, as the exhaustive check reads it, not reported as 0.
    square = build_square("assoc", get_instance(monad_id), sizes)
    apexes = projected_apexes(square)
    counts = set()
    for seed in range(1, 6):
        report = check_pullback(square, mode="randomized", trials=200, seed=seed)
        u, v = map(tuple, report.witness["cone"])
        assert report.witness["mediators"] == len(scan_mediators(apexes, u, v)) != 1
        counts.add(report.witness["mediators"])
    assert max(counts) >= 2


def test_search_solver_indexes_the_apexes_on_its_first_call():
    square = build_square("assoc", get_instance("writer:Z2"), (1, 2, 1))
    calls = []
    top = square.top
    square.top = lambda t: calls.append(t) or top(t)
    apexes = len(list(_enumerate_corner(square.inst, square.tl)))
    u, v = square.cone_sampler(random.Random(1))
    assert calls == []
    assert square.mediators(u, v)
    assert len(calls) == apexes
    assert square.mediators(u, v)
    assert len(calls) == apexes


# ---------------------------------------------------------------------------
# F's bound: an exhaustive F square enumerates only in-bound corners, so its
# verdict is the one over all of F only if no in-bound cone gains or loses
# mediators when the bound grows.

BOUNDED_SQUARES = [("assoc", s) for s in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]] + [
    ("strong-affine", (2, 2)),
    ("positivity", (2, 2)),
]


def by_payload(corner_value) -> tuple:
    """A corner value with each T component replaced by its payload, so that
    values of F(B=n) and F(B=n+1) compare."""
    return tuple(getattr(c, "payload", c) for c in corner_value)


def mediator_counts(square) -> dict:
    return {
        (by_payload(u), by_payload(v)): len(apexes)
        for (u, v), apexes in square.apex_index().items()
    }


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("kind,sizes", BOUNDED_SQUARES)
def test_bounded_f_mediator_counts_agree_one_bound_up(kind, sizes, bound):
    small = build_square(kind, FreeAbelianMonad(bound), sizes)
    large = build_square(kind, FreeAbelianMonad(bound + 1), sizes)
    small_counts, large_counts = mediator_counts(small), mediator_counts(large)
    classes, zero_cones = set(), 0
    for u, v in compatible_cones(small):
        key = by_payload(u), by_payload(v)
        n, m = small_counts.get(key, 0), large_counts.get(key, 0)
        assert min(n, 2) == min(m, 2), key
        classes.add(min(n, 2))
        if kind == "assoc" and not any(any(t.payload.entries()) for t in u + v):
            # The all-zero cone: the middle factor is free.
            zero_cones += 1
            y = sizes[1]
            assert (n, m) == ((2 * bound + 1) ** y, (2 * bound + 3) ** y)
        else:
            assert n == m, key
    assert zero_cones == (kind == "assoc")
    assert {0, 1} <= classes, classes
