"""The gs-monoidal layer of a Kleisli category.

Kernels are Kleisli morphisms X -> Y stored columnwise (one TValue over the
codomain per domain element).  Everything downstream -- effects, mass,
scalar action, normalization, the equivalence solver -- is built from
`compose`, `tensor`, the structural generators copy / discard / swap,
`pushforward` along a base function (mass and marginals are pushforwards,
not composites with lifted functions), and `pairing`, the copy-then-tensor
composite (f_1 (x) ... (x) f_n) . copy, whose column at x is, by the unit
law, lax_c folded over f_1(x), ..., f_n(x).  Because products of finite
sets are strict (see finset), no reindexing kernels are ever needed:
I x I = I and X x I = X hold on the nose.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable, Iterator, Optional, Sequence

from .errors import NotNormalizable, TypeMismatch
from .finset import (
    Elem,
    FinFun,
    FinSet,
    UNIT,
    elem_to_str,
    product,
    swap_fun,
    terminal_fun,
)
from .monads import MonadInstance, TValue, budgeted_product, checked_t1_inverse
from .report import CheckReport


class Kernel:
    """A Kleisli morphism dom -> cod for a fixed monad instance.

    Each column is a TValue that was validated where it was built (`make`)
    or is the result of a closed monad operation, so only its instance
    (equal to `inst`, that is with its id) and its base are checked here."""

    __slots__ = ("inst", "dom", "cod", "columns")

    def __init__(self, inst: MonadInstance, dom: FinSet, cod: FinSet, columns):
        columns = tuple(columns)
        if len(columns) != len(dom):
            raise TypeMismatch("one column per domain element required")
        for col in columns:
            if col.monad is not inst:
                _same_instance(col.monad, inst)
            if col.base is not cod and col.base != cod:
                raise TypeMismatch("column base does not match codomain")
        self.inst = inst
        self.dom = dom
        self.cod = cod
        self.columns = columns

    def __call__(self, x: Elem) -> TValue:
        return self.columns[self.dom.index(x)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Kernel)
            and self.inst == other.inst
            and self.dom == other.dom
            and self.cod == other.cod
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.inst, self.dom, self.cod, self.columns))

    def describe(self) -> str:
        cols = ", ".join(
            f"{elem_to_str(x)} -> {self.inst.value_text(col)}"
            for x, col in zip(self.dom.elements, self.columns)
        )
        return f"Kernel[{self.inst.id}: {self.dom.name} -> {self.cod.name}]({cols})"

    def __repr__(self) -> str:
        return self.describe()


def _same_instance(a: MonadInstance, b: MonadInstance) -> None:
    """TypeMismatch unless the instances `a` and `b` are equal (have one id)."""
    if a != b:
        raise TypeMismatch(f"instance mismatch: {a.id} vs {b.id}")


def from_columns(inst, dom: FinSet, cod: FinSet, col: Callable[[Elem], TValue]) -> Kernel:
    return Kernel(inst, dom, cod, (col(x) for x in dom))


def lift(inst: MonadInstance, f: FinFun) -> Kernel:
    """Kleisli inclusion of a base function."""
    return from_columns(inst, f.dom, f.cod, lambda x: inst.unit(f.cod, f(x)))


def identity(inst: MonadInstance, x: FinSet) -> Kernel:
    return from_columns(inst, x, x, lambda e: inst.unit(x, e))


def copy_k(inst: MonadInstance, x: FinSet, n: int = 2) -> Kernel:
    """The n-fold copy X -> X x ... x X (n = 1 gives the identity, n = 0 discard)."""
    cod = product([x] * n)
    return from_columns(inst, x, cod, lambda e: inst.unit(cod, e * n))


def discard_k(inst: MonadInstance, x: FinSet) -> Kernel:
    return copy_k(inst, x, 0)


def swap_k(inst: MonadInstance, x: FinSet, y: FinSet) -> Kernel:
    return lift(inst, swap_fun(x, y))


def compose(g: Kernel, f: Kernel) -> Kernel:
    """g after f; for measure monads this is matrix composition."""
    _same_instance(f.inst, g.inst)
    if f.cod != g.dom:
        raise TypeMismatch(f"cannot compose {g.dom.name} after {f.cod.name}")
    inst = f.inst
    return from_columns(inst, f.dom, g.cod, lambda x: inst.extend(g, g.cod, f(x)))


def pushforward(phi: FinFun, f: Kernel) -> Kernel:
    """compose(lift(inst, phi), f), built as the columns map(phi, f(x))."""
    if phi.dom is not f.cod and phi.dom != f.cod:
        raise TypeMismatch(f"cannot push {f.cod.name} forward along a map from {phi.dom.name}")
    return Kernel(f.inst, f.dom, phi.cod, [f.inst.map(phi, col) for col in f.columns])


def tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composition; for measure monads the Kronecker product."""
    _same_instance(f.inst, g.inst)
    inst = f.inst
    dom = product([f.dom, g.dom])
    cod = product([f.cod, g.cod])
    cut = f.dom.arity
    return from_columns(inst, dom, cod, lambda e: inst.lax_c(f(e[:cut]), g(e[cut:])))


def pairing(*kernels: Kernel) -> Kernel:
    """The copy-then-tensor product (f_1, ..., f_n) : X -> Y_1 (x) ... (x) Y_n
    of same-domain kernels, that is (f_1 (x) ... (x) f_n) . copy.

    It is built column by column.  The n-fold copy sends x to the unit at
    (x, ..., x), and extending a kernel along a unit reads its column there
    (the unit law), so column x of the composite is the tensor's column at
    (x, ..., x): lax_c folded left over f_1(x), ..., f_n(x).  The other
    |X|^n - 1 columns of the tensor are never read, so they are not built.
    The codomain is folded in the same order, so its name is the tensor's."""
    first = kernels[0]
    inst, dom = first.inst, first.dom
    if any(k.dom != dom for k in kernels):
        raise TypeMismatch("pairing requires a common domain")
    for k in kernels[1:]:
        _same_instance(inst, k.inst)
    cod = functools.reduce(lambda acc, c: product([acc, c]), (k.cod for k in kernels))
    columns = zip(*(k.columns for k in kernels))
    return Kernel(inst, dom, cod, (functools.reduce(inst.lax_c, col) for col in columns))


def is_copyable(f: Kernel) -> bool:
    return compose(copy_k(f.inst, f.cod), f) == pairing(f, f)


def is_discardable(f: Kernel) -> bool:
    return compose(discard_k(f.inst, f.cod), f) == discard_k(f.inst, f.dom)


# ---------------------------------------------------------------------------
# Effects: kernels into the monoidal unit


def mass(f: Kernel) -> Kernel:
    """The effect discard o f, a pushforward; f is discardable iff this is the discard map."""
    return pushforward(terminal_fun(f.cod), f)


def effect_mul(a: Kernel, b: Kernel) -> Kernel:
    """Product in the effect monoid C(X, I): copy, then tensor.

    Since I x I = I strictly, no reindexing is needed.
    """
    _require_effect(a)
    _require_effect(b)
    return pairing(a, b)


def scalar_action(a: Kernel, f: Kernel) -> Kernel:
    """The action of the effect monoid on C(X, Y): (a (x) f) o copy."""
    _require_effect(a)
    return pairing(a, f)


def try_effect_inverse(a: Kernel) -> tuple:
    """Invert an effect in the monoid C(X, I) if possible.

    Returns (inverse, witness): the inverse kernel and None, or None and the
    domain element whose T1 scalar has no inverse.  Each column's inverse is
    multiplied back to the unit; one that is not is an InvariantViolation.
    """
    _require_effect(a)
    inst = a.inst
    one = inst.unit(UNIT, ())
    inverted = []
    for x, col in zip(a.dom.elements, a.columns):
        inv = checked_t1_inverse(inst, col, one)
        if inv is None:
            return None, x
        inverted.append(inv)
    return Kernel(inst, a.dom, UNIT, inverted), None


def _inverse_mass(f: Kernel) -> tuple:
    """(mass(f), its inverse in the effect monoid), or NotNormalizable."""
    m = mass(f)
    inv, witness = try_effect_inverse(m)
    if inv is None:
        raise NotNormalizable(
            f"mass of {f.inst.id} kernel not invertible at {elem_to_str(witness)}",
            witness=witness,
        )
    return m, inv


def normalize(f: Kernel) -> tuple:
    """Split f into (mass, normalization) with f = mass . n and n discardable."""
    m, inv = _inverse_mass(f)
    return m, scalar_action(inv, f)


def equivalent(f: Kernel, g: Kernel) -> Optional[Kernel]:
    """The unique effect a with a.f = g, or None if f and g are not in the
    same orbit.  Candidate-then-verify: a := mass(f)^-1 . mass(g) is the only
    possibility because the scalar action is free."""
    if f.dom != g.dom or f.cod != g.cod or f.inst != g.inst:
        raise TypeMismatch("equivalence requires parallel kernels")
    candidate = effect_mul(_inverse_mass(f)[1], mass(g))
    if scalar_action(candidate, f) == g:
        return candidate
    return None


def _require_effect(a: Kernel):
    if a.cod != UNIT:
        raise TypeMismatch("expected an effect (codomain I)")


# ---------------------------------------------------------------------------
# Enumeration / sampling of kernels


def enumerate_kernels(inst: MonadInstance, dom: FinSet, cod: FinSet) -> Iterator[Kernel]:
    pools = (inst.enumerate_values(cod) for _ in dom)
    for combo in budgeted_product(pools, inst.id, f"kernels {dom.name} -> {cod.name}"):
        yield Kernel(inst, dom, cod, combo)


def sample_kernel(inst: MonadInstance, dom: FinSet, cod: FinSet, rng: random.Random) -> Kernel:
    return Kernel(inst, dom, cod, (inst.sample(cod, rng) for _ in dom))


# ---------------------------------------------------------------------------
# gs-monoidal law suite: comonoid + multiplicativity equations


def gs_law_report(inst: MonadInstance, objects: Sequence[FinSet]) -> CheckReport:
    """Check the commutative comonoid and multiplicativity equations for
    copy / discard on the given objects, by structural equality of composites."""
    name = f"gs_laws[{inst.id}]"

    def fail(equation, *objs):
        return CheckReport(
            name=name,
            passed=False,
            witness={"equation": equation, "objects": [o.name for o in objs]},
        )

    for x in objects:
        cp = copy_k(inst, x)
        ix = identity(inst, x)
        dl = discard_k(inst, x)
        if compose(tensor(cp, ix), cp) != compose(tensor(ix, cp), cp):
            return fail("coassociativity", x)
        if compose(tensor(dl, ix), cp) != ix:
            return fail("counit_left", x)
        if compose(tensor(ix, dl), cp) != ix:
            return fail("counit_right", x)
        if compose(swap_k(inst, x, x), cp) != cp:
            return fail("cocommutativity", x)
    for x, y in itertools.product(objects, repeat=2):
        xy = product([x, y])
        lhs = copy_k(inst, xy)
        mid = tensor(tensor(identity(inst, x), swap_k(inst, x, y)), identity(inst, y))
        rhs = compose(mid, tensor(copy_k(inst, x), copy_k(inst, y)))
        if lhs != rhs:
            return fail("copy_multiplicativity", x, y)
        if discard_k(inst, xy) != tensor(discard_k(inst, x), discard_k(inst, y)):
            return fail("discard_multiplicativity", x, y)
    if copy_k(inst, UNIT) != identity(inst, UNIT):
        return fail("copy_on_unit", UNIT)
    if discard_k(inst, UNIT) != identity(inst, UNIT):
        return fail("discard_on_unit", UNIT)
    return CheckReport(name=name, passed=True, note=f"{len(list(objects))} objects")
