"""The report rule and the mode check shared by every seeded check.

A randomized report records its trials and its seed; an exhaustive one
records 0 and None.  A mode other than "exhaustive" or "randomized" is
refused before the check does any work."""

import pytest

from gsmon.errors import GsmonError
from gsmon.finset import FinSet
from gsmon.monads import MonadInstance, check_monad_laws, get_instance
from gsmon.monoid import get_monoid
from gsmon.squares import (
    Component,
    Square,
    build_square,
    check_commutes,
    check_pullback,
    theorem_harness,
)

from test_monads import _NonAssociativeWriter

S = FinSet.of("S", ["s0", "s1"])


def untouched(*args):
    raise AssertionError("the check started work")


class _Untouchable(MonadInstance):
    """An instance whose every operation fails the test when called."""

    id = "untouchable"
    enumerable = True
    make = unit = map = extend = lax_c = enumerate_values = sample = staticmethod(untouched)


UNTOUCHABLE_SQUARE = Square(
    name="untouchable",
    inst=_Untouchable(),
    tl=(Component("set", S),),
    tr=(Component("set", S),),
    bl=(Component("set", S),),
    br=(Component("set", S),),
    top=untouched,
    left=untouched,
    right=untouched,
    bottom=untouched,
    cone_sampler=untouched,
    solver=untouched,
)

CHECKS = {
    "check_monad_laws": lambda mode: check_monad_laws(_Untouchable(), [2], mode=mode),
    "check_commutes": lambda mode: check_commutes(UNTOUCHABLE_SQUARE, mode=mode),
    "check_pullback": lambda mode: check_pullback(UNTOUCHABLE_SQUARE, mode=mode),
    "theorem_harness": lambda mode: theorem_harness(_Untouchable(), [(1, 1, 1)], mode=mode),
}


@pytest.mark.parametrize("mode", ["random", "foo", "Randomized", ""])
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_an_unknown_mode_is_refused_before_any_work(check, mode):
    with pytest.raises(GsmonError, match="unknown mode"):
        CHECKS[check](mode)


def test_an_unknown_mode_on_a_real_square_is_refused():
    square = build_square("strong-affine", get_instance("M"), [2, 2])
    with pytest.raises(GsmonError, match="unknown mode 'random'"):
        check_pullback(square, mode="random", trials=20, seed=1)


def square(kind, monad_id, sizes):
    return build_square(kind, get_instance(monad_id), sizes)


# (label, run(mode, trials, seed) -> report); a label ending in "pass" passes.
RUNS = [
    ("laws pass", lambda *r: check_monad_laws(get_instance("writer:Z2"), [1, 2], *r)),
    ("laws fail",
     lambda *r: check_monad_laws(_NonAssociativeWriter(get_monoid("Z3")), [1, 2], *r)),
    ("commutes pass", lambda *r: check_commutes(square("assoc", "P", [2, 1, 1]), *r)),
    ("commutes fail",
     lambda *r: check_commutes(square("strong-affine", "writer:Z2", [2, 2]), *r)),
    ("pullback pass", lambda *r: check_pullback(square("strong-affine", "P*", [2, 2]), *r)),
    ("pullback fail", lambda *r: check_pullback(square("assoc", "P", [1, 1, 1]), *r)),
    ("pullback of a square that does not commute",
     lambda *r: check_pullback(square("strong-affine", "writer:Z2", [2, 2]), *r)),
]


@pytest.mark.parametrize("label,run", RUNS, ids=[label for label, _ in RUNS])
def test_the_mode_decides_what_a_report_records(label, run):
    exhaustive = run("exhaustive", 50, 9)
    randomized = run("randomized", 50, 9)
    assert (exhaustive.mode, exhaustive.trials, exhaustive.seed) == ("exhaustive", 0, None)
    assert (randomized.mode, randomized.trials, randomized.seed) == ("randomized", 50, 9)
    assert exhaustive.passed == randomized.passed == label.endswith("pass")
