"""Commutative-square and pullback checkers.

Three named squares are supported: the associativity square of the lax
structure maps, the strongly-affine square (unit vs. strength) and the
positivity square (discard vs. strength).  Corners are finite products of
plain finite sets and T-carriers; pullbacks are checked exhaustively where
every corner is enumerable, and otherwise by seeded sampling of compatible
cones whose mediating apex, read from the square's apex index (enumerable
instances) or from the solver the instance gives (`assoc_solver`), is
re-verified against both projection equations.

A randomized "pass" means "no counterexample found in N trials", never a
proof.

Over F the corners hold only values with multiplicities in -B..B, yet the
verdict is the one over all of F: every mediator of an in-bound cone is in
bound, or there are at least two in bound.  In assoc, t_x = u_x and
t_z = v_z, and each coefficient of t_y is a coefficient of u or v divided by
a non-zero coefficient of t_z or t_x, so its magnitude is at most B; when
t_x and t_z are both 0, t_y is free and at least 2B + 1 >= 3 mediators are
in bound.  In strong-affine and positivity, the TY part of a mediator has
the coefficients of u.  Every exhaustive corner enumeration is refused up
front over the enumeration budget.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .errors import InvariantViolation, MalformedInput, NoSolverForRandomized, NotEnumerable
from .finset import FinSet, UNIT, product, projection_fun, terminal_fun
from .kernels import Kernel, enumerate_kernels, sample_kernel, try_effect_inverse
from .monads import MonadInstance, budgeted_product, classification_of
from .report import CheckReport, require_mode


@dataclass(frozen=True)
class Component:
    kind: str  # "set" | "T"
    space: FinSet


@dataclass
class Square:
    """Four corners (tuples of components) and four edge maps.

    Edges map corner values (tuples aligned with the corner components) to
    corner values: top TL->TR, left TL->BL, right TR->BR, bottom BL->BR.
    """

    name: str
    inst: MonadInstance
    tl: tuple
    tr: tuple
    bl: tuple
    br: tuple
    top: Callable
    left: Callable
    right: Callable
    bottom: Callable
    cone_sampler: Optional[Callable] = None  # rng -> (u, v), always compatible
    solver: Optional[Callable] = None  # (u, v) -> mediator or None, if not enumerable
    degenerate_apexes: list = field(default_factory=list)
    degenerate_cones: list = field(default_factory=list)
    _apexes: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def apex_index(self) -> dict:
        """Every apex t, listed under (top(t), left(t)) in enumeration order.

        Built on the first call and shared by the exhaustive commutation
        check, the exhaustive cone join and the randomized mediator lookup."""
        if self._apexes is None:
            index = {}
            for t in _enumerate_corner(self.inst, self.tl):
                index.setdefault((self.top(t), self.left(t)), []).append(t)
            self._apexes = index
        return self._apexes

    def mediators(self, u, v) -> Sequence:
        """The apexes over the cone (u, v): every one, read from the apex
        index of an enumerable instance; else the solver's one apex, or none."""
        if self.inst.enumerable:
            return self.apex_index().get((u, v), ())
        t = self.solver(u, v)
        return () if t is None else (t,)


def _enumerate_corner(inst, corner) -> Iterator[tuple]:
    pools = (
        comp.space.elements if comp.kind == "set" else inst.enumerate_values(comp.space)
        for comp in corner
    )
    return budgeted_product(pools, inst.id, "elements of a square corner")


ZERO_PROB = 0.1  # chance that a sampled apex takes the zero value, when there is one


def _sample_corner(inst, corner, rng) -> tuple:
    out = []
    for comp in corner:
        if comp.kind == "set":
            out.append(rng.choice(comp.space.elements))
        elif inst.has_zero and rng.random() < ZERO_PROB:
            out.append(inst.zero(comp.space))
        else:
            out.append(inst.sample(comp.space, rng))
    return tuple(out)


def check_commutes(
    square: Square, mode: str = "exhaustive", trials: int = 500, seed: int = 42
) -> CheckReport:
    """Verify right(top(t)) == bottom(left(t)) over apex elements; exhaustively
    once per key of the apex index, whose first apex is the witness."""
    require_mode(mode)
    if mode == "exhaustive":
        cases = ((ts[0], u, v) for (u, v), ts in square.apex_index().items())
    else:
        rng = random.Random(seed)
        apexes = itertools.chain(
            square.degenerate_apexes,
            (_sample_corner(square.inst, square.tl, rng) for _ in range(trials)),
        )
        cases = ((t, square.top(t), square.left(t)) for t in apexes)
    bad = next((t for t, u, v in cases if square.right(u) != square.bottom(v)), None)
    return CheckReport.of_run(
        f"commutes[{square.name}]",
        mode,
        trials,
        seed,
        passed=bad is None,
        witness=None if bad is None else {"apex": list(bad)},
    )


def check_pullback(
    square: Square, mode: str = "exhaustive", trials: int = 500, seed: int = 42
) -> CheckReport:
    """Decide (exhaustive) or probe (randomized) the pullback property."""
    name = f"pullback[{square.name}]"
    # check_commutes refuses an unknown mode before any work.
    commute = check_commutes(square, mode=mode, trials=min(trials, 200), seed=seed)
    if not commute.passed:
        return CheckReport.of_run(
            name,
            mode,
            commute.trials,
            seed,
            passed=False,
            witness=commute.witness,
            note="square does not commute; pullback not evaluated",
        )

    if mode == "exhaustive":
        # Bucket the bottom-left corner by its bottom edge (keeping
        # enumeration order), so the cones are visited in the order of the
        # plain nested scan over TR x BL, and read mediators from the index.
        index = square.apex_index()
        by_bottom = {}
        for v in _enumerate_corner(square.inst, square.bl):
            by_bottom.setdefault(square.bottom(v), []).append(v)
        for u in _enumerate_corner(square.inst, square.tr):
            for v in by_bottom.get(square.right(u), ()):
                found = index.get((u, v), ())
                if len(found) != 1:
                    witness = {"cone": [list(u), list(v)], "mediators": len(found)}
                    return CheckReport.of_run(name, mode, trials, seed, passed=False, witness=witness)
        return CheckReport.of_run(name, mode, trials, seed, passed=True)

    if square.cone_sampler is None or (square.solver is None and not square.inst.enumerable):
        raise NoSolverForRandomized(
            f"{square.name}: randomized pullback check needs a cone sampler and a solver"
        )
    rng = random.Random(seed)
    cones = list(square.degenerate_cones)
    total = len(cones) + trials
    for i in range(total):
        u, v = cones[i] if i < len(cones) else square.cone_sampler(rng)
        if square.right(u) != square.bottom(v):
            raise InvariantViolation(f"{square.name}: cone sampler produced an incompatible cone")
        found = square.mediators(u, v)
        if len(found) != 1:
            witness = {"cone": [list(u), list(v)], "mediators": len(found)}
            return CheckReport.of_run(name, mode, total, seed, passed=False, witness=witness)
        t = found[0]
        if square.top(t) != u or square.left(t) != v:
            raise InvariantViolation(f"{square.name}: solver output fails projections")
    note = f"no counterexample found in {total} solver-verified cones"
    return CheckReport.of_run(name, mode, total, seed, passed=True, note=note)


# ---------------------------------------------------------------------------
# Square builders


def assoc_square(inst: MonadInstance, x: FinSet, y: FinSet, z: FinSet) -> Square:
    """The associativity square of c on (X, Y, Z), with flattened products."""
    c = inst.lax_c
    yz = product([y, z])
    xy = product([x, y])

    top = lambda t: (t[0], c(t[1], t[2]))
    left = lambda t: (c(t[0], t[1]), t[2])
    right = lambda u: (c(u[0], u[1]),)
    bottom = lambda v: (c(v[0], v[1]),)

    def sampler(rng):
        if inst.has_zero and rng.random() < 0.15:
            # The degenerate region where M fails: both legs hit the zero
            # measure while their non-zero halves cannot share a factor.
            p = c(inst.sample(y, rng), inst.sample(z, rng))
            q = c(inst.sample(x, rng), inst.sample(y, rng))
            if p != inst.zero(p.base) and q != inst.zero(q.base):
                return (inst.zero(x), p), (q, inst.zero(z))
        t = inst.sample(x, rng), inst.sample(y, rng), inst.sample(z, rng)
        return inst.rescaled_cone(top(t), left(t), rng)

    square = Square(
        name=f"assoc[{inst.id};{len(x)},{len(y)},{len(z)}]",
        inst=inst,
        tl=(Component("T", x), Component("T", y), Component("T", z)),
        tr=(Component("T", x), Component("T", yz)),
        bl=(Component("T", xy), Component("T", z)),
        br=(Component("T", product([x, y, z])),),
        top=top,
        left=left,
        right=right,
        bottom=bottom,
        cone_sampler=sampler,
        solver=inst.assoc_solver(y, z),
    )
    if square.solver is not None and inst.has_zero:
        # Deterministic first cone: the textbook counterexample shape
        # ((0, p), (q, 0)) with p, q non-zero.
        p = c(inst.unit(y, y.elements[0]), inst.unit(z, z.elements[0]))
        q = c(inst.unit(x, x.elements[0]), inst.unit(y, y.elements[0]))
        square.degenerate_cones = [((inst.zero(x), p), (q, inst.zero(z)))]
    return square


def strong_affine_square(inst: MonadInstance, x: FinSet, y: FinSet) -> Square:
    """Unit-vs-strength square: X x TY -> T(X x Y) over X -> TX."""
    xy = product([x, y])
    proj1 = projection_fun([x, y], [0])
    proj2 = projection_fun([x, y], [1])

    top = lambda t: (inst.strength(x, t[0], t[1]),)
    left = lambda t: (t[0],)
    right = lambda u: (inst.map(proj1, u[0]),)
    bottom = lambda v: (inst.unit(x, v[0]),)

    def sampler(rng):
        xe = rng.choice(x.elements)
        ty = inst.sample(y, rng)
        return ((inst.strength(x, xe, ty),), (xe,))

    def marginal_solver(u, v):
        xe = v[0]
        ty = inst.map(proj2, u[0])
        t = (xe, ty)
        if top(t) == u:
            return t
        return None

    square = Square(
        name=f"strong_affine[{inst.id};{len(x)},{len(y)}]",
        inst=inst,
        tl=(Component("set", x), Component("T", y)),
        tr=(Component("T", xy),),
        bl=(Component("set", x),),
        br=(Component("T", x),),
        top=top,
        left=left,
        right=right,
        bottom=bottom,
        cone_sampler=sampler,
        solver=marginal_solver,
    )
    if inst.has_zero:
        square.degenerate_apexes = [(x.elements[0], inst.zero(y))]
    return square


def positivity_square(inst: MonadInstance, x: FinSet, y: FinSet) -> Square:
    """Discard-vs-strength square; commutes by naturality of the strength.

    The corner T(X x 1) is TX on the nose because products are strict.
    """
    proj1 = projection_fun([x, y], [0])
    del_y = terminal_fun(y)

    top = lambda t: (inst.strength(x, t[0], t[1]),)
    left = lambda t: (t[0], inst.map(del_y, t[1]))
    right = lambda u: (inst.map(proj1, u[0]),)
    bottom = lambda v: (inst.strength(x, v[0], v[1]),)

    return Square(
        name=f"positivity[{inst.id};{len(x)},{len(y)}]",
        inst=inst,
        tl=(Component("set", x), Component("T", y)),
        tr=(Component("T", product([x, y])),),
        bl=(Component("set", x), Component("T", UNIT)),
        br=(Component("T", x),),
        top=top,
        left=left,
        right=right,
        bottom=bottom,
    )


def build_square(kind: str, inst: MonadInstance, sizes: Sequence[int]) -> Square:
    sets = [
        FinSet.of(f"S{i}", [f"s{i}_{j}" for j in range(1, n + 1)])
        for i, n in enumerate(sizes, start=1)
    ]
    if kind == "assoc":
        if len(sets) != 3:
            raise NotEnumerable("assoc square needs three sizes")
        return assoc_square(inst, *sets)
    if kind in ("strong-affine", "positivity") and len(sets) < 2:
        raise NotEnumerable(f"{kind} square needs two sizes")
    if kind == "strong-affine":
        return strong_affine_square(inst, *sets[:2])
    if kind == "positivity":
        return positivity_square(inst, *sets[:2])
    raise NotEnumerable(f"unknown square kind {kind!r}")


# ---------------------------------------------------------------------------
# Theorem harness: weak affinity <=> effect groups <=> assoc pullbacks


def theorem_harness(
    inst: MonadInstance,
    size_triples: Sequence[Sequence[int]],
    mode: str = "exhaustive",
    trials: int = 500,
    seed: int = 42,
) -> CheckReport:
    """Independently evaluate the three equivalent conditions and require
    the verdicts to agree:

    1. the internal monoid T1 is a group (classification);
    2. every effect X -> I is invertible in the effect monoid, for each
       object size occurring in the triples;
    3. the associativity square is a pullback for every size triple.
    """
    require_mode(mode)
    if not size_triples:  # conditions 2 and 3 would hold vacuously
        raise MalformedInput("theorem harness: no size triples to check")
    sub = []

    cls = classification_of(inst)
    verdict1 = cls.weakly_affine
    sub.append(
        CheckReport(
            name="condition1_t1_group",
            passed=True,
            mode="direct",
            witness=None if verdict1 else cls.witness,
            note=f"T1 group: {verdict1} ({cls.evidence})",
        )
    )

    rng = random.Random(seed)
    verdict2 = True
    witness2 = None
    obj_sizes = sorted({n for triple in size_triples for n in triple})
    for n in obj_sizes:
        obj = FinSet.of(f"X{n}", [f"x{i}" for i in range(1, n + 1)])
        if inst.enumerable:
            effects = enumerate_kernels(inst, obj, UNIT)
        else:
            candidates = []
            if inst.has_zero:
                candidates.append(
                    Kernel(inst, obj, UNIT, (inst.zero(UNIT),) * len(obj))
                )
            candidates.extend(
                sample_kernel(inst, obj, UNIT, rng) for _ in range(max(1, trials // max(1, len(obj_sizes))))
            )
            effects = candidates
        for a in effects:
            inv, bad_at = try_effect_inverse(a)
            if inv is None:
                verdict2 = False
                witness2 = {"effect": a, "no_inverse_at": bad_at}
                break
        if not verdict2:
            break
    sub.append(
        CheckReport.of_run(
            "condition2_effect_groups",
            "exhaustive" if inst.enumerable else "randomized",
            0,  # the sampled effect count is not recorded
            seed,
            passed=True,
            witness=witness2,
            note=f"all effects invertible: {verdict2}",
        )
    )

    verdict3 = True
    witness3 = None
    for triple in size_triples:
        square = build_square("assoc", inst, list(triple))
        result = check_pullback(square, mode=mode, trials=trials, seed=seed)
        sub.append(result)
        if not result.passed:
            verdict3 = False
            witness3 = result.witness
            break
    verdicts = {
        "t1_group": verdict1,
        "effect_groups": verdict2,
        "assoc_pullback": verdict3,
    }
    agree = verdict1 == verdict2 == verdict3
    return CheckReport(
        name=f"theorem_harness[{inst.id}]",
        passed=agree,
        mode=mode,
        trials=trials if mode == "randomized" else 0,
        seed=seed,
        witness=None if agree else verdicts,
        note="; ".join(f"{k}={v}" for k, v in verdicts.items()),
        subreports=sub,
    )
