"""Commutative monad instances on finite sets.

Each instance packages the functorial action, the unit, Kleisli extension
and the lax structure map c : TX x TY -> T(X x Y), all computed exactly.
Measure-like instances carry rational tables; nothing here is assumed to
satisfy the monad laws -- `check_monad_laws` verifies them.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
import re
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    ElementNotInSet,
    InvalidMonoid,
    InvariantViolation,
    MalformedInput,
    MethodInapplicable,
    NotEnumerable,
    OutOfBound,
    PayloadInvalid,
    UnknownMonad,
)
from .finset import (
    Elem,
    FinFun,
    FinSet,
    UNIT,
    _fun,
    elem_from_str,
    elem_to_str,
    enumerate_functions,
    identity_fun,
    pair_fun,
    product,
    swap_fun,
)
from .monoid import MONOID_LIBRARY, FiniteMonoid, get_monoid
from .rational import Table, _reduced, _table, format_rat, parse_rat
from .report import CheckReport, require_mode

_INT_RE = re.compile(r"-?[0-9]+")

# Sampler caps: small exact values keep witnesses readable.
SAMPLE_NUM_MAX = 9
SAMPLE_DEN_MAX = 4
# The measure samplers draw denominators 1..SAMPLE_DEN_MAX, which all divide
# _SAMPLE_DEN: a drawn n / d is n * _SAMPLE_SCALE[d] / _SAMPLE_DEN.
_SAMPLE_DEN = lcm(*range(1, SAMPLE_DEN_MAX + 1))
_SAMPLE_SCALE = [0] + [_SAMPLE_DEN // d for d in range(1, SAMPLE_DEN_MAX + 1)]


def _nonzero_scalar(rng) -> tuple:
    return rng.randint(1, SAMPLE_NUM_MAX), rng.randint(1, SAMPLE_DEN_MAX)


def _scale(inst, t: TValue, p: int, q: int) -> TValue:
    return inst.make(t.base, t.payload.scaled(p, q))


class TValue(namedtuple("TValue", "monad base payload")):
    """An element of TX for a concrete instance, in canonical form.

    `monad` is the instance the value belongs to.  A value is the immutable
    triple (monad, base, payload), like a `Table` its pair: assigning to or
    deleting a field raises FrozenInstanceError, and `==` and `hash` are
    those of the triple.  So two values are equal when their instances are
    (one id, by `MonadInstance.__eq__`), their bases are (by elements) and
    their payloads are, and the hash is hash((monad id, base, payload)).  A
    value also equals a plain tuple of the same three objects, as a table
    equals its pair, but never (monad id, base, payload): an instance is not
    equal to its id.  Nothing in the package indexes, unpacks, iterates or
    orders a value."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"TValue(monad={self.monad.id!r}, base={self.base!r}, payload={self.payload!r})"

    def describe(self) -> str:
        return self.monad.value_text(self)


class MonadInstance:
    """Descriptor of one commutative monad instance, identified by its `id`:
    two instances are equal when their ids are, and hash as their id."""

    id: str = "?"
    enumerable: bool = False
    has_zero: bool = False  # admits an absorbing zero element of TX

    def __eq__(self, other):
        if not isinstance(other, MonadInstance):
            return NotImplemented
        return self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)

    # -- construction ------------------------------------------------------

    def make(self, base: FinSet, payload) -> TValue:
        """The value of `payload` over `base`, checked and put in canonical form
        by `validate` (PayloadInvalid otherwise).  Every value that enters from
        outside the monad's own operations -- JSON, the enumerators, the
        samplers, solvers -- is built here."""
        return tuple.__new__(TValue, (self, base, self.validate(base, payload)))

    def _value(self, base: FinSet, payload) -> TValue:
        """The value of an already canonical, valid `payload`, unchecked.

        Only the closed operations (`unit`, `map`, `extend`, `lax_c`, `zero`)
        use it: each maps valid values to a valid value."""
        return tuple.__new__(TValue, (self, base, payload))

    def validate(self, base: FinSet, payload):
        raise NotImplementedError

    # -- text and JSON forms of a value -------------------------------------

    def value_text(self, t: TValue) -> str:
        raise NotImplementedError

    def value_to_json(self, t: TValue) -> dict:
        """The value's fields in a JSON document (without its monad and base)."""
        raise NotImplementedError

    def value_from_json(self, base: FinSet, data) -> TValue:
        raise NotImplementedError

    # -- monad structure ---------------------------------------------------

    def unit(self, base: FinSet, x: Elem) -> TValue:
        raise NotImplementedError

    def map(self, f: FinFun, t: TValue) -> TValue:
        raise NotImplementedError

    def extend(self, col: Callable[[Elem], TValue], cod: FinSet, t: TValue) -> TValue:
        """Kleisli extension: bind t along the column function of a kernel."""
        raise NotImplementedError

    def lax_c(self, t: TValue, u: TValue) -> TValue:
        raise NotImplementedError

    def strength(self, base: FinSet, x: Elem, u: TValue) -> TValue:
        """s : X x TY -> T(X x Y), realized as c(unit(x), u)."""
        return self.lax_c(self.unit(base, x), u)

    # -- enumeration and sampling -----------------------------------------

    def enumerate_values(self, base: FinSet) -> Iterator[TValue]:
        raise NotEnumerable(f"{self.id} has no enumerator over {base.name}")

    def sample(self, base: FinSet, rng: random.Random) -> TValue:
        raise NotImplementedError

    def _refuse_empty(self, base: FinSet) -> None:
        """PayloadInvalid when `base` is empty and there is no zero: no value
        exists there, so a sampler must not start drawing."""
        if not base.elements and not self.has_zero:
            raise PayloadInvalid(f"{self.id}: no value over the empty set {base.name}")

    def zero(self, base: FinSet) -> TValue:
        raise PayloadInvalid(f"{self.id} has no zero element")

    # -- solvers -----------------------------------------------------------

    def t1_inverse(self, t: TValue) -> Optional[TValue]:
        """Inverse of t in the internal monoid T1, or None; this one searches
        `enumerate_values(UNIT)` (NotEnumerable without an enumerator)."""
        one = self.unit(UNIT, ())
        for u in self.enumerate_values(UNIT):
            if self.lax_c(t, u) == one:
                return u
        return None

    def t1_candidates(self) -> list:
        """Elements of T1 that `classify` tries first: the zero, if any."""
        return [self.zero(UNIT)] if self.has_zero else []

    def assoc_solver(self, y: FinSet, z: FinSet) -> Optional[Callable]:
        """The mediator solver of the assoc square on (X, Y, Z), a cone to its
        one apex or None; none here, so a randomized check needs an enumerator."""
        return None

    def rescaled_cone(self, u: tuple, v: tuple, rng: random.Random) -> tuple:
        """A sampled assoc cone (u, v), moved to a cone with the same images
        under c; this one keeps it and draws nothing."""
        return u, v

    def rank_one_factors(self, columns: Iterable[TValue], blocks: Sequence[FinSet]) -> tuple:
        """Each column over the product of `blocks`, read once and in order, as
        one exact factor per block: (the factor values per block, None), or
        (None, the first failing index of the first column that is no outer
        product).  Refused here, before the first column is read."""
        raise MethodInapplicable(f"rank1 method needs a measure-like payload, not {self.id}")

    def _check_x(self, base: FinSet, x: Elem) -> int:
        """The index of x in `base`; ElementNotInSet if x is not in it."""
        i = base._index.get(x)
        if i is None:
            raise ElementNotInSet(f"{x!r} not in {base.name}")
        return i


class _TableMonad(MonadInstance):
    """Shared table arithmetic for M, M*, D and F.

    Payload: a `Table`, the entries aligned with the base order as integer
    numerators over one denominator in canonical form (F's over 1).  Only
    the table monads and `rational` read numerators and denominators; other
    modules compute through `Table` methods.  Subclasses give the scalar's
    JSON form, the checks of `_check_table` and their own sampling.

    The closed operations build their results unchecked (`_value`):
    products and sums of non-negative tables stay non-negative; a non-zero
    table times a non-zero table is non-zero; pushforward and `lax_c`
    preserve total mass, so D stays normalised; F's integer tables keep
    the denominator 1.
    """

    scalar_to_json = staticmethod(format_rat)
    scalar_from_json = staticmethod(parse_rat)

    def validate(self, base: FinSet, payload):
        """A Table is taken as it is: its constructor checked and reduced
        its input, and its fields are read-only.  Anything else is read as a
        sequence of entries by `_table_of`."""
        table = payload if type(payload) is Table else self._table_of(payload)
        if len(table.nums) != len(base.elements):
            raise PayloadInvalid(f"{self.id}: table size does not match {base.name}")
        self._check_table(table)
        return table

    def _table_of(self, payload) -> Table:
        try:
            return Table.of_entries(payload)
        except TypeError:
            raise PayloadInvalid(
                f"{self.id}: entries must be integers or exact rationals, got {payload!r}"
            ) from None

    def _check_table(self, table: Table) -> None:
        """PayloadInvalid unless `table` is a value of this monad."""

    def unit(self, base: FinSet, x: Elem) -> TValue:
        i = self._check_x(base, x)
        nums = [0] * len(base.elements)
        nums[i] = 1
        return self._value(base, _table(tuple(nums), 1))

    def map(self, f: FinFun, t: TValue) -> TValue:
        """The pushforward: entry i of t is added to entry f.mapping[i]."""
        if t.base is not f.dom and t.base != f.dom:
            raise MalformedInput(f"value over {t.base.name} is not over the domain {f.dom.name}")
        table = t.payload
        nums = [0] * len(f.cod.elements)
        for j, n in zip(f.mapping, table.nums):
            nums[j] += n
        return self._value(f.cod, _reduced(nums, table.den))

    def extend(self, col, cod: FinSet, t: TValue) -> TValue:
        table = t.payload
        cols = [(n, col(e).payload) for e, n in zip(t.base.elements, table.nums) if n]
        den = lcm(*(c.den for _, c in cols))
        nums = [0] * len(cod)
        for n, c in cols:
            scale = n * (den // c.den)
            for j, m in enumerate(c.nums):
                nums[j] += scale * m
        return self._value(cod, _reduced(nums, den * table.den))

    def lax_c(self, t: TValue, u: TValue) -> TValue:
        """The outer product, reduced from its factors: for canonical a and
        b, gcd(a.den * b.den, every a_i * b_j) is gcd(a.den, *b.nums) times
        gcd(b.den, *a.nums), so each factor is divided by its share first."""
        a, b = t.payload, u.payload
        anums, aden, bnums, bden = a.nums, a.den, b.nums, b.den
        if aden != 1:
            g = gcd(aden, *bnums)
            if g != 1:
                aden //= g
                bnums = [n // g for n in bnums]
        if bden != 1:
            g = gcd(bden, *anums)
            if g != 1:
                bden //= g
                anums = [m // g for m in anums]
        table = _table(tuple([m * n for m in anums for n in bnums]), aden * bden)
        return self._value(product([t.base, u.base]), table)

    def zero(self, base: FinSet) -> TValue:
        if not self.has_zero:
            return super().zero(base)
        return self._value(base, _table((0,) * len(base.elements), 1))

    def t1_candidates(self) -> list:
        """1 + 1, the table (2,), where it is a value (not in D), then the zero."""
        try:
            two = [self.make(UNIT, (2,))]
        except PayloadInvalid:
            two = []
        return two + super().t1_candidates()

    def value_text(self, t: TValue) -> str:
        entries = [
            f"{elem_to_str(e)}:{format_rat(v)}"
            for e, v in zip(t.base.elements, t.payload.entries())
            if v != 0
        ]
        return f"{self.id}{{{', '.join(entries)}}}" if entries else f"{self.id}{{zero}}"

    def value_to_json(self, t: TValue) -> dict:
        return {
            "entries": {
                elem_to_str(e): self.scalar_to_json(v)
                for e, v in zip(t.base.elements, t.payload.entries())
                if v != 0
            }
        }

    def value_from_json(self, base: FinSet, data) -> TValue:
        table = {elem_from_str(k): self.scalar_from_json(v) for k, v in data["entries"].items()}
        for e in table:
            if e not in base:
                raise MalformedInput(f"{elem_to_str(e)} not in {base.name}")
        return self.make(base, tuple(table.get(e, 0) for e in base.elements))


def _sampled_nums(base: FinSet, rng: random.Random) -> list:
    """Per element of `base`, in order, a numerator n in 0..SAMPLE_NUM_MAX
    and then a denominator d in 1..SAMPLE_DEN_MAX drawn with `rng.randint`
    (the left operand of `*` is evaluated first); the entries n / d as
    numerators over _SAMPLE_DEN.  `perfbench/tracer.py` counts the draws, two
    per element, to find the D sampler's rejects."""
    randint = rng.randint
    return [
        randint(0, SAMPLE_NUM_MAX) * _SAMPLE_SCALE[randint(1, SAMPLE_DEN_MAX)]
        for _ in base.elements
    ]


class _MeasureBase(_TableMonad):
    """Nonnegative rational tables for M, M* and D."""

    def _check_table(self, table: Table) -> None:
        if min(table.nums, default=0) < 0:
            raise PayloadInvalid(f"{self.id}: negative entry")

    def sample(self, base: FinSet, rng: random.Random) -> TValue:
        return self.make(base, _reduced(_sampled_nums(base, rng), _SAMPLE_DEN))

    def t1_inverse(self, t: TValue) -> Optional[TValue]:
        if t.payload.pivot() is None:
            return None
        return self.make(UNIT, Table((1,)).over((0,), t.payload, 0))

    def assoc_solver(self, y: FinSet, z: FinSet) -> Callable:
        ny, nz, nyz = len(y), len(z), len(y) * len(z)

        def measure_solver(u, v):
            """Mediating triple for the measures.

            The X and Z components are forced by the projections; the Y
            component is pinned by any non-zero coordinate of t_z (or of t_x),
            then verified globally against both equations.
            """
            t_x, t_yz = u
            t_xy, t_z = v
            # Products list their elements lexicographically: the Y slice of
            # YxZ at z0 or of XxY at x0, over that pivot entry.
            z0, x0 = t_z.payload.pivot(), t_x.payload.pivot()
            if z0 is not None:
                by_table = t_yz.payload.over(range(z0, nyz, nz), t_z.payload, z0)
            elif x0 is not None:
                by_table = t_xy.payload.over(range(x0 * ny, (x0 + 1) * ny), t_x.payload, x0)
            else:
                # t_x = t_z = 0: every Y value mediates or none does; report failure.
                return None
            try:
                by = self.make(y, by_table)
            except PayloadInvalid:
                return None
            c = self.lax_c
            return (t_x, by, t_z) if c(by, t_z) == t_yz and c(t_x, by) == t_xy else None

        return measure_solver

    def rescaled_cone(self, u: tuple, v: tuple, rng: random.Random) -> tuple:
        """Each leg's halves scaled by p / q and q / p, a non-zero p / q drawn per
        leg: c cancels them, and the unequal scalings move the mediator off the
        sampled apex.  The cone as given when a scaled half is no value (in D)."""
        (p1, q1), (p2, q2) = _nonzero_scalar(rng), _nonzero_scalar(rng)
        try:
            scaled_u = (_scale(self, u[0], p1, q1), _scale(self, u[1], q1, p1))
            return scaled_u, (_scale(self, v[0], p2, q2), _scale(self, v[1], q2, p2))
        except PayloadInvalid:
            return u, v

    def rank_one_factors(self, columns: Iterable[TValue], blocks: Sequence[FinSet]) -> tuple:
        """Exact outer-product test, columnwise.

        A nonnegative table over blocks of sizes s_1..s_n is an outer product
        iff it is zero, or the rank-one identity holds at its first non-zero
        index (`Table.outer_factors`); the slices through that index then give
        exact factor vectors.
        """
        sizes = [len(b) for b in blocks]
        factor_columns = [[] for _ in blocks]
        for col in columns:
            tables, failure = col.payload.outer_factors(sizes)
            if failure is not None:
                return None, failure
            if classification_of(self).kind == "affine":
                # Every value has mass one, so the factors must too; each
                # factor is proportional to the true factor, so renormalize.
                tables = [t.normalized() for t in tables]
            for column, block, table in zip(factor_columns, blocks, tables):
                column.append(self.make(block, table))
        return factor_columns, None


class MeasureMonad(_MeasureBase):
    """Finitely supported nonnegative rational measures."""

    id = "M"
    has_zero = True


class NonzeroMeasureMonad(_MeasureBase):
    """Non-zero finitely supported measures; closed under all operations
    as long as every kernel column is non-zero."""

    id = "M*"

    def _check_table(self, table: Table) -> None:
        super()._check_table(table)
        if not any(table.nums):
            raise PayloadInvalid("M*: zero table is not a valid value")

    def sample(self, base: FinSet, rng: random.Random) -> TValue:
        self._refuse_empty(base)
        while True:
            try:
                return super().sample(base, rng)
            except PayloadInvalid:
                continue


class DistributionMonad(_MeasureBase):
    """Probability distributions: columns sum to one."""

    id = "D"

    def _check_table(self, table: Table) -> None:
        super()._check_table(table)
        if sum(table.nums) != table.den:
            raise PayloadInvalid("D: table does not sum to 1")

    def sample(self, base: FinSet, rng: random.Random) -> TValue:
        self._refuse_empty(base)
        while True:
            nums = _sampled_nums(base, rng)
            total = sum(nums)
            if total:
                return self.make(base, _reduced(nums, total))


class IdentityMonad(MonadInstance):
    """Payload: an element of the base.  The closed operations build their
    results unchecked: an image under f : X -> Y is in Y, and a pair of
    elements is an element of the product."""

    id = "Id"
    enumerable = True

    def validate(self, base: FinSet, payload):
        payload = tuple(payload)
        if payload not in base:
            raise PayloadInvalid(f"Id: {payload!r} not in {base.name}")
        return payload

    def unit(self, base: FinSet, x: Elem) -> TValue:
        self._check_x(base, x)
        return self._value(base, x)

    def map(self, f: FinFun, t: TValue) -> TValue:
        return self._value(f.cod, f(t.payload))

    def extend(self, col, cod: FinSet, t: TValue) -> TValue:
        return col(t.payload)

    def lax_c(self, t: TValue, u: TValue) -> TValue:
        return self._value(product([t.base, u.base]), t.payload + u.payload)

    def enumerate_values(self, base: FinSet) -> Iterator[TValue]:
        for e in base:
            yield self.make(base, e)

    def sample(self, base: FinSet, rng: random.Random) -> TValue:
        self._refuse_empty(base)
        return self.make(base, rng.choice(base.elements))

    def value_text(self, t: TValue) -> str:
        return f"{self.id}({elem_to_str(t.payload)})"

    def value_to_json(self, t: TValue) -> dict:
        return {"x": elem_to_str(t.payload)}

    def value_from_json(self, base: FinSet, data) -> TValue:
        return self.make(base, elem_from_str(data["x"]))


class PowersetMonad(MonadInstance):
    """Subsets; the Kleisli category is Rel.  Payload: frozenset of elements.

    The closed operations build their results unchecked: images, unions and
    products of subsets are subsets, and of non-empty ones non-empty (P*)."""

    id = "P"
    enumerable = True
    has_zero = True

    def validate(self, base: FinSet, payload):
        payload = frozenset(tuple(e) for e in payload)
        for e in payload:
            if e not in base:
                raise PayloadInvalid(f"{self.id}: {e!r} not in {base.name}")
        if not payload and not self.has_zero:
            raise PayloadInvalid(f"{self.id}: empty subset is not a valid value")
        return payload

    def unit(self, base: FinSet, x: Elem) -> TValue:
        self._check_x(base, x)
        return self._value(base, frozenset([x]))

    def map(self, f: FinFun, t: TValue) -> TValue:
        return self._value(f.cod, frozenset(f(e) for e in t.payload))

    def extend(self, col, cod: FinSet, t: TValue) -> TValue:
        out = frozenset().union(*(col(e).payload for e in t.payload)) if t.payload else frozenset()
        return self._value(cod, out)

    def lax_c(self, t: TValue, u: TValue) -> TValue:
        base = product([t.base, u.base])
        return self._value(base, frozenset(a + b for a in t.payload for b in u.payload))

    def enumerate_values(self, base: FinSet) -> Iterator[TValue]:
        for mask in range(0 if self.has_zero else 1, 2 ** len(base)):  # 0: the empty set
            subset = frozenset(
                e for i, e in enumerate(base.elements) if mask >> i & 1
            )
            yield self.make(base, subset)

    def sample(self, base: FinSet, rng: random.Random) -> TValue:
        self._refuse_empty(base)
        while True:
            subset = frozenset(e for e in base if rng.random() < 0.5)
            if subset or self.has_zero:
                return self.make(base, subset)

    def zero(self, base: FinSet) -> TValue:
        if not self.has_zero:
            return super().zero(base)
        return self._value(base, frozenset())

    def value_text(self, t: TValue) -> str:
        return f"{self.id}{{{', '.join(sorted(elem_to_str(e) for e in t.payload))}}}"

    def value_to_json(self, t: TValue) -> dict:
        return {"elements": sorted(elem_to_str(e) for e in t.payload)}

    def value_from_json(self, base: FinSet, data) -> TValue:
        return self.make(base, frozenset(elem_from_str(e) for e in data["elements"]))


class NonemptyPowersetMonad(PowersetMonad):
    id = "P*"
    has_zero = False


class WriterMonad(MonadInstance):
    """A x - for a finite commutative monoid A.  Payload: (a_label, element).

    The id names a library monoid, or else spells A out as its JSON, so it
    reads back through `get_instance` as this instance.

    The closed operations build their results unchecked: a writer label times
    a writer label is a label of the monoid, read from `_times`."""

    enumerable = True

    def __init__(self, monoid: FiniteMonoid):
        self.monoid = monoid
        spelled = json.dumps(monoid.to_json(), sort_keys=True, separators=(",", ":"))
        self.id = f"writer:{monoid.name if MONOID_LIBRARY.get(monoid.name) == monoid else spelled}"
        labels = monoid.elements
        # (a, b) -> the label of a * b, for every pair of monoid elements.
        self._times = {
            (a, b): monoid.label(monoid.mul(i, j))
            for i, a in enumerate(labels)
            for j, b in enumerate(labels)
        }

    def validate(self, base: FinSet, payload):
        a, x = payload
        if a not in self.monoid.elements:
            raise PayloadInvalid(f"{self.id}: {a!r} not in monoid")
        x = tuple(x)
        if x not in base:
            raise PayloadInvalid(f"{self.id}: {x!r} not in {base.name}")
        return (a, x)

    def unit(self, base: FinSet, x: Elem) -> TValue:
        self._check_x(base, x)
        return self._value(base, (self.monoid.label(self.monoid.unit), x))

    def map(self, f: FinFun, t: TValue) -> TValue:
        a, x = t.payload
        return self._value(f.cod, (a, f(x)))

    def extend(self, col, cod: FinSet, t: TValue) -> TValue:
        a, x = t.payload
        b, y = col(x).payload
        return self._value(cod, (self._mul(a, b), y))

    def lax_c(self, t: TValue, u: TValue) -> TValue:
        a, x = t.payload
        b, y = u.payload
        return self._value(product([t.base, u.base]), (self._mul(a, b), x + y))

    def _mul(self, a: str, b: str) -> str:
        return self._times[a, b]

    def enumerate_values(self, base: FinSet) -> Iterator[TValue]:
        for a in self.monoid.elements:
            for x in base:
                yield self.make(base, (a, x))

    def sample(self, base: FinSet, rng: random.Random) -> TValue:
        self._refuse_empty(base)
        return self.make(
            base, (rng.choice(self.monoid.elements), rng.choice(base.elements))
        )

    def value_text(self, t: TValue) -> str:
        return f"{self.id}({t.payload[0]}, {elem_to_str(t.payload[1])})"

    def value_to_json(self, t: TValue) -> dict:
        return {"a": t.payload[0], "x": elem_to_str(t.payload[1])}

    def value_from_json(self, base: FinSet, data) -> TValue:
        return self.make(base, (data["a"], elem_from_str(data["x"])))


class FreeAbelianMonad(_TableMonad):
    """Free abelian group: integer multisets.  Payload: a `Table` over the
    denominator 1, aligned with the base order.

    The bound B caps the magnitude of a multiplicity only where values enter:
    a decoded JSON value (`OutOfBound` above it), the enumerator (-B..B) and
    the sampler (-1..1).  Arithmetic on values is exact and unbounded."""

    enumerable = True
    has_zero = True
    scalar_to_json = staticmethod(int)

    @staticmethod
    def scalar_from_json(v) -> int:
        """A JSON integer (not a bool), or an ASCII decimal string."""
        if isinstance(v, int) and not isinstance(v, bool):
            return v
        if isinstance(v, str) and _INT_RE.fullmatch(v):
            return int(v)
        raise MalformedInput(f"F: not an integer literal: {v!r}")

    def __init__(self, bound: int = 16):
        if bound < 1:
            raise UnknownMonad(f"F: bound {bound} is below 1")
        self.bound = bound
        self.id = f"F(B={bound})" if bound != 16 else "F"

    def _table_of(self, payload) -> Table:
        try:
            return Table(tuple(payload))  # no bool, float or Fraction
        except TypeError:
            raise PayloadInvalid(f"F: entries must be integers, got {payload!r}") from None

    def _check_table(self, table: Table) -> None:
        if table.den != 1:
            raise PayloadInvalid(f"F: entries must be integers, got {table!r}")

    def value_from_json(self, base: FinSet, data) -> TValue:
        t = super().value_from_json(base, data)
        for v in t.payload.nums:
            if abs(v) > self.bound:
                raise OutOfBound(f"F: multiplicity {v} exceeds bound {self.bound}")
        return t

    def enumerate_values(self, base: FinSet) -> Iterator[TValue]:
        """Every table of multiplicities -B..B, in lexicographic order, built
        lazily (unlike itertools.product, which lists its pools first), so a
        budget can refuse a bound too large to list."""
        multiplicities = range(-self.bound, self.bound + 1)
        combos = [()]
        for _ in base:
            combos = (c + (m,) for c in combos for m in multiplicities)
        for combo in combos:
            yield self.make(base, combo)

    def sample(self, base: FinSet, rng: random.Random) -> TValue:
        return self.make(base, tuple(rng.randint(-1, 1) for _ in base))


@dataclass
class Classification:
    kind: str  # "affine" | "weakly_affine_not_affine" | "not_weakly_affine"
    witness: object = None
    evidence: str = "exhaustive"  # or "solver-asserted"
    note: str = ""

    @property
    def weakly_affine(self) -> bool:
        return self.kind in ("affine", "weakly_affine_not_affine")

    def to_json(self) -> dict:
        from .report import show

        return {
            "kind": self.kind,
            "witness": show(self.witness),
            "evidence": self.evidence,
            "note": self.note,
        }


# The note of a verdict, per evidence: n counts the elements of T1 examined
# and w is the witness, read as a scalar.
_NOTES = {
    ("exhaustive", "not_weakly_affine"): "element of T1 with no inverse among {n} values",
    ("exhaustive", "affine"): "T1 has exactly one element",
    ("exhaustive", "weakly_affine_not_affine"): "|T1| = {n}, every element invertible",
    ("solver-asserted", "not_weakly_affine"):
        "scalar {w} has no inverse; checked against {n} samples",
    ("solver-asserted", "affine"): "all {n} sampled elements of T1 equal the unit",
    ("solver-asserted", "weakly_affine_not_affine"):
        "reciprocal inverse verified on {n} samples; {w} != 1 in T1",
}


def _scalar(t: TValue) -> str:
    """A T1 value as a scalar: a table's one entry, any other value's text."""
    return format_rat(t.payload.entries()[0]) if type(t.payload) is Table else t.describe()


def checked_t1_inverse(inst: MonadInstance, t: TValue, one: TValue) -> Optional[TValue]:
    """The solver's inverse of `t` in T1, or None when it finds none.  The
    inverse is multiplied back to `one`, the unit of T1; a wrong one is an
    InvariantViolation."""
    inverse = inst.t1_inverse(t)
    if inverse is not None and inst.lax_c(t, inverse) != one:
        raise InvariantViolation(f"{inst.id}: wrong inverse of {inst.value_text(t)}")
    return inverse


def classify(inst: MonadInstance, trials: int = 200, seed: int = 42) -> Classification:
    """Decide affine / weakly affine / neither for the internal monoid T1.

    One rule for every instance.  It examines all of T1 for an enumerable
    instance ("exhaustive"), else `trials` seeded samples ("solver-asserted"),
    after the instance's `t1_candidates` (those in T1, when T1 is listed).
    Each element that is not the unit goes to the exact solver `t1_inverse`;
    the first with no inverse witnesses "not weakly affine".  Otherwise T1
    is affine if every element examined is the unit, else weakly affine with
    the first non-unit as its witness.  Every inverse the solver returns is
    multiplied back to the unit, and on samples a witness times a sample is
    never the unit; a wrong answer is an InvariantViolation.
    """
    one = inst.unit(UNIT, ())
    sampled = not inst.enumerable
    if sampled:
        rng = random.Random(seed)
        elements = [inst.sample(UNIT, rng) for _ in range(trials)]
        candidates = inst.t1_candidates()
    else:
        listing = budgeted_product([inst.enumerate_values(UNIT)], inst.id, "values of T1")
        elements = [t for (t,) in listing]
        candidates = [t for t in inst.t1_candidates() if t in elements]
    kind, witness = "affine", None
    for t in candidates + elements:
        if t == one:
            continue
        if checked_t1_inverse(inst, t, one) is None:
            if sampled and any(inst.lax_c(t, b) == one for b in elements):
                raise InvariantViolation(f"{inst.id}: a sample inverts {inst.value_text(t)}")
            kind, witness = "not_weakly_affine", t
            break
        if witness is None:
            kind, witness = "weakly_affine_not_affine", t
    evidence = "solver-asserted" if sampled else "exhaustive"
    note = _NOTES[evidence, kind].format(n=len(elements), w=witness and _scalar(witness))
    return Classification(kind, witness=witness, evidence=evidence, note=note)


_classify_cache: dict = {}


def classification_of(inst: MonadInstance) -> Classification:
    """classify() with default evidence parameters, memoized by the
    instance's class and id."""
    key = type(inst), inst.id
    if key not in _classify_cache:
        _classify_cache[key] = classify(inst)
    return _classify_cache[key]


# ---------------------------------------------------------------------------
# Law suite


# The most combinations one exhaustive enumeration may take.
ENUMERATION_BUDGET = 20000

# The most kernel pairs (k, h) one exhaustive law check may take on.  The
# decisions mostly compare far fewer terms (writer:Z2xZ2 at sizes 1,2,3 has
# 4.5e6 pairs and is decided in about 0.5 CPU seconds), but the budget
# bounds two walks over the pairs: `assoc_by_patterns` compares every (k, h)
# per t where it does not measure the read columns (F(B=2) at sizes 1,2 has
# 4.2e5 pairs and takes about 3 s), and a law whose decision says False is
# scanned tuple by tuple.
LAW_PAIR_BUDGET = 10**7


def budgeted_product(pools, owner: str, what: str) -> Iterator[tuple]:
    """itertools.product(*pools), refused with NotEnumerable before the first
    combination when there are more than ENUMERATION_BUDGET of them.

    Each pool is read at most ENUMERATION_BUDGET + 1 deep, so a pool too
    large to list is refused without being listed."""
    lists, combinations = [], 1
    for pool in pools:
        lists.append(list(itertools.islice(pool, ENUMERATION_BUDGET + 1)))
        combinations *= len(lists[-1])
        if combinations > ENUMERATION_BUDGET:
            raise NotEnumerable(
                f"{owner}: at least {combinations} {what}"
                f" exceed the enumeration budget of {ENUMERATION_BUDGET}"
            )
    return itertools.product(*lists)


def _sample_fun(dom: FinSet, cod: FinSet, rng) -> FinFun:
    return FinFun(dom, cod, tuple(rng.randrange(len(cod)) for _ in dom))


class _Memo(dict):
    """A dict that fills a missing key with compute(key).  Its __getitem__
    can be mapped over a sequence of keys without a Python-level loop."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        self[key] = out = self.compute(key)
        return out


class _Listing(list):
    """Values named by their index: calling it with a value gives the value's
    index, listing it on first sight.  Values are looked up by payload, so
    two values with one payload (one of them over another base) raise
    KeyError."""

    def __init__(self, values=()):
        super().__init__()
        self.at = {}
        for v in values:
            self(v)

    def __call__(self, v: TValue) -> int:
        i = self.at.setdefault(v.payload, len(self))
        if i == len(self):
            self.append(v)
        else:
            w = self[i]  # one base and one monad object make equal values
            if not (w.base is v.base and w.monad is v.monad) and w != v:
                raise KeyError(v)
        return i


def _row_reader(row: tuple) -> Callable[[Sequence], tuple]:
    """table -> tuple(table[i] for i in row), as one C-level call."""
    if len(row) == 1:  # itemgetter of one index returns the entry, not a 1-tuple
        (i,) = row
        return lambda table: (table[i],)
    if not row:
        return lambda table: ()
    return operator.itemgetter(*row)


def _read_coordinates(values: Sequence, radices: Sequence[int]) -> tuple:
    """The coordinates that a function over a full product reads.

    `values` (a list or tuple) holds f(c) for every c in the product of
    range(r) over r in `radices`, in lexicographic order.  Coordinate j is
    read when changing c[j] alone changes f(c) somewhere, that is when some
    block of values with the coordinates before j fixed is not its first
    slice repeated.  On a full product the coordinates that are not read can
    be changed one at a time, so f(c) depends on c at the read ones alone."""
    read, size = [], len(values)
    block = size
    for j, r in enumerate(radices):
        if not size:
            break
        stride = block // r
        if any(values[b:b + block] != values[b:b + stride] * r for b in range(0, size, block)):
            read.append(j)
        block = stride
    return tuple(read)


def _first_per_pattern(rows: Sequence[tuple], coords: Sequence[int]) -> list:
    """The index of the first of `rows` with each pattern of entries at
    `coords`, in increasing order."""
    keys = list(map(_row_reader(tuple(coords)), rows))
    return sorted(dict(zip(reversed(keys), reversed(range(len(keys))))).values())


def _law_table(inst: MonadInstance, X: FinSet, Y: FinSet, Z: FinSet) -> tuple:
    """The ten laws on (X, Y, Z) in checking order.

    Each entry is (name, quantified variables, equation, witness variables,
    decision).  A variable names its pool: x in X, t in TX, u in TY, v in TZ,
    functions f : X -> Y and g : Y -> Z, kernels k : X -> TY and h : Y -> TZ.
    The equation takes the variables positionally and says whether the law
    holds.  A decision, where there is one, takes the exhaustive pools and
    says whether the equation holds for every combination of them; it may
    say False, or raise, without a failure, and then the ordered scan
    decides.

    The tenth law, map(f, t) == extend(unit . f, t), ties the functor to
    the Kleisli extension: `kernels.pushforward` rests on it.

    Kleisli associativity, functor composition, c-naturality and
    c-associativity have decisions.  Each names the values it meets by
    their index in a `_Listing`, computes the scan's own terms once per
    table row, column or memo key, and compares rows or columns of indices:
    two indices are equal exactly when the two values are.  None of them
    calls the equation.

    Kleisli associativity is decided per t for one kernel k per pattern of
    the columns that extension at t reads.  Those columns are measured, not
    assumed: extend(k, t) over every k in TY^X and extend(m, t) over every
    m in M^X (M the values extend(h, s), so M^X holds every composite
    h . k) are functions over full products, and a coordinate whose change
    alone never changes the value is not read.  Changing the unread
    coordinates one at a time, inside the product, shows that the value
    depends on the read ones alone.  Where listing M^X for every t would take more extensions
    than there are pairs (k, h) (F at a large bound), nothing is measured:
    every k is its own pattern, in the same per-t loop, and only the
    composites met are extended.
    """
    unit_y = lambda e: inst.unit(Y, e)
    id_x = identity_fun(X)
    swap_xy = swap_fun(X, Y)

    def assoc_by_patterns(pools) -> bool:
        """Kleisli associativity for every (t, k, h), one k per pattern of
        the columns that t's extensions read.  The lists of TY and TZ values
        start as their pools (F's pools stop at its bound, and extend does
        not); the kernels k are the full product TY^X of the pool, in order.

        Per t: the TY index of extend(k, t) over every k, and the TZ index of
        extend(m, t) over every m in M^X, where M holds every value
        extend(h, s) for s in the pool, so every composite h . k is in M^X.
        Both are functions over full products, so `_read_coordinates`
        measures the columns they read, and two kernels that agree on those
        columns agree on both sides for every h.  Per representative k, the
        h-indexed column of the left side, extend(h, s) at s = extend(k, t),
        is compared with the right side looked up at the composites, whose
        columns are the h-tables at k's columns.  The right side is
        memoized per t and composite.

        Where listing M^X for every t would take more extensions than there
        are pairs (k, h), M^X is not listed: every k is its own
        representative, and only the composites met are extended.
        """
        tx, ks, hs = pools["t"], pools["k"], pools["h"]
        if not (tx and ks and hs):
            return True
        ty, tz = _Listing(pools["u"]), _Listing(pools["v"])
        n, d = len(ty), len(X)
        k_cols = [tuple(map(ty, k.columns)) for k in ks]
        if k_cols != list(itertools.product(range(n), repeat=d)):
            return False  # not the full product: the scan decides
        lefts = [[ty(inst.extend(k, Y, t)) for k in ks] for t in tx]
        h_cols = list(zip(*[[tz(inst.extend(h, Z, s)) for s in ty] for h in hs]))
        m_values = sorted(set(itertools.chain.from_iterable(h_cols[:n])))
        measured = len(m_values) ** d * len(tx) <= len(ks) * len(hs)
        composites = list(itertools.product(m_values, repeat=d)) if measured else ()
        column = _Memo(lambda m: dict(zip(X.elements, map(tz.__getitem__, m))).__getitem__)
        columns = list(map(column.__getitem__, composites))
        for t, left in zip(tx, lefts):
            right_of = _Memo(lambda m, t=t: tz(inst.extend(column[m], Z, t)))
            if measured:
                right = [tz(inst.extend(col, Z, t)) for col in columns]
                right_of.update(zip(composites, right))
                read = _read_coordinates(left, (n,) * d)
                read += _read_coordinates(right, (len(m_values),) * d)
                representatives = _first_per_pattern(k_cols, sorted(set(read)))
            else:
                representatives = range(len(ks))
            for i in representatives:
                cols = k_cols[i]
                at_h = zip(*map(h_cols.__getitem__, cols)) if cols else [()] * len(hs)
                if h_cols[left[i]] != tuple(map(right_of.__getitem__, at_h)):
                    return False
        return True

    def composition_by_rows(pools) -> bool:
        """Functor composition for every (t, f, g).  Row map(f, t) over t in
        TX, per f; table map(g, s) over every listed s in TY, per g.  Per
        (f, g) the right row is g's table read at f's row, and the left row
        map(g . f, t) over t is memoized per composite, whose mapping is g's
        read at f's."""
        tx = pools["t"]
        ty, tz = _Listing(), _Listing()
        f_rows = [
            (_row_reader(f.mapping), _row_reader(tuple(ty(inst.map(f, t)) for t in tx)))
            for f in pools["f"]
        ]
        g_maps = [g.mapping for g in pools["g"]]
        g_tables = [tuple(tz(inst.map(g, s)) for s in ty) for g in pools["g"]]
        lefts = _Memo(lambda gf: tuple(tz(inst.map(_fun(X, Z, gf), t)) for t in tx))
        for read_map, read_row in f_rows:
            if list(map(lefts.__getitem__, map(read_map, g_maps))) != list(map(read_row, g_tables)):
                return False
        return True

    def naturality_by_tables(pools) -> bool:
        """c-naturality for every (t, u, f, g).  lax_c(t, u) is listed once
        per pair (t, u).  Per (f, g) each listed value is pushed along
        f x g, and the results read at the pair row are compared with
        lax_c(map(f, t), map(g, u)) over the pairs, read from a table
        memoized per pair of (TY, TZ) indices."""
        tx, tu = pools["t"], pools["u"]
        ty, tz, xy, yz = _Listing(), _Listing(), _Listing(), _Listing()
        read_pairs = _row_reader(tuple(xy(inst.lax_c(t, u)) for t in tx for u in tu))
        f_rows = [(f, tuple(ty(inst.map(f, t)) for t in tx)) for f in pools["f"]]
        g_rows = [(g, tuple(tz(inst.map(g, u)) for u in tu)) for g in pools["g"]]
        laxes = _Memo(lambda ij: yz(inst.lax_c(ty[ij[0]], tz[ij[1]])))
        for f, f_row in f_rows:
            for g, g_row in g_rows:
                fg = pair_fun(f, g)
                lefts = read_pairs([yz(inst.map(fg, c)) for c in xy])
                if lefts != tuple(map(laxes.__getitem__, itertools.product(f_row, g_row))):
                    return False
        return True

    def c_assoc_by_tables(pools) -> bool:
        """c-associativity for every (t, u, v).  lax_c(t, u) and lax_c(u, v)
        are listed once per pair; lax_c(t, w) is memoized per t and listed
        inner value w, and the row lax_c(w, v) over v per listed inner value
        w."""
        tx, tu, tv = pools["t"], pools["u"], pools["v"]
        xy, yz, xyz = _Listing(), _Listing(), _Listing()
        tu_rows = [[xy(inst.lax_c(t, u)) for u in tu] for t in tx]
        uv_rows = [tuple(yz(inst.lax_c(u, v)) for v in tv) for u in tu]
        rights = _Memo(lambda i: tuple(xyz(inst.lax_c(xy[i], v)) for v in tv))
        for t, tu_row in zip(tx, tu_rows):
            lefts = _Memo(lambda j, t=t: xyz(inst.lax_c(t, yz[j])))
            for i, uv_row in zip(tu_row, uv_rows):
                if tuple(map(lefts.__getitem__, uv_row)) != rights[i]:
                    return False
        return True

    return (
        ("kleisli_left_unit", "xk",
         lambda x, k: inst.extend(k, Y, inst.unit(X, x)) == k(x), "x", None),
        ("kleisli_right_unit", "u",
         lambda u: inst.extend(unit_y, Y, u) == u, "u", None),
        ("kleisli_assoc", "tkh",
         lambda t, k, h: inst.extend(h, Z, inst.extend(k, Y, t))
         == inst.extend(lambda e: inst.extend(h, Z, k(e)), Z, t), "t", assoc_by_patterns),
        ("functor_identity", "t",
         lambda t: inst.map(id_x, t) == t, "t", None),
        ("functor_composition", "tfg",
         lambda t, f, g: inst.map(g.compose(f), t) == inst.map(g, inst.map(f, t)), "t",
         composition_by_rows),
        ("unit_naturality", "xf",
         lambda x, f: inst.map(f, inst.unit(X, x)) == inst.unit(Y, f(x)), "x", None),
        ("c_naturality", "tufg",
         lambda t, u, f, g: inst.map(pair_fun(f, g), inst.lax_c(t, u))
         == inst.lax_c(inst.map(f, t), inst.map(g, u)),
         "tu", naturality_by_tables),
        ("c_symmetry", "tu",
         lambda t, u: inst.map(swap_xy, inst.lax_c(t, u)) == inst.lax_c(u, t), "tu", None),
        ("c_associativity", "tuv",
         lambda t, u, v: inst.lax_c(t, inst.lax_c(u, v)) == inst.lax_c(inst.lax_c(t, u), v),
         "tuv", c_assoc_by_tables),
        ("map_is_unit_extension", "tf",
         lambda t, f: inst.map(f, t) == inst.extend(lambda e: inst.unit(Y, f(e)), Y, t), "t", None),
    )


def _decides(decision, pools) -> bool:
    """decision(pools), False when it raises: a broken operation is met by the
    ordered scan, in its own order."""
    try:
        return decision(pools)
    except Exception:
        return False


def _first_failure(laws: tuple, pools: dict, decide: bool = False) -> Optional[dict]:
    """Run each law over every combination drawn from its variables' pools, in
    order.  With `decide`, a law whose decision holds is not scanned."""
    for law, variables, holds, witness, decision in laws:
        if decide and decision is not None and _decides(decision, pools):
            continue
        for args in itertools.product(*(pools[v] for v in variables)):
            if not holds(*args):
                return {"law": law, "inputs": [args[variables.index(w)] for w in witness]}
    return None


def law_pools(inst: MonadInstance, sets: Sequence[FinSet]) -> dict:
    """The exhaustive pools of every law table (X, Y, Z) on `sets`, keyed by
    the table in checking order.

    Each pool is listed once per check: the kernels K(A, B) and functions
    A -> B once per ordered pair of sets, in the order the tables first meet
    them, then the values TA once per set.  A table's pools are those shared
    lists, so two tables share a pool exactly where its variable ranges over
    the same object.  The first kernel enumeration over ENUMERATION_BUDGET
    is refused by `budgeted_product`, before any law runs."""
    from .kernels import enumerate_kernels

    pairs = list(itertools.product(sets, repeat=2))
    kernels = {pair: list(enumerate_kernels(inst, *pair)) for pair in pairs}
    functions = {pair: list(enumerate_functions(*pair)) for pair in pairs}
    values = {S: list(inst.enumerate_values(S)) for S in sets}
    return {
        (X, Y, Z): {
            "t": values[X], "u": values[Y], "v": values[Z],
            "f": functions[X, Y], "g": functions[Y, Z],
            "k": kernels[X, Y], "h": kernels[Y, Z],
            "x": X.elements,
        }
        for X, Y, Z in itertools.product(sets, repeat=3)
    }


def check_monad_laws(
    inst: MonadInstance,
    sizes: Sequence[int],
    mode: str = "exhaustive",
    trials: int = 200,
    seed: int = 42,
) -> CheckReport:
    """Verify monad, functor and commutativity laws on small objects.

    Exhaustive mode enumerates all values, functions and kernels on objects
    of the given sizes (requires an enumerator), each pool once per check
    (`law_pools`).  It is refused before the first law when a kernel
    enumeration is over ENUMERATION_BUDGET, or when its tables take on more
    than LAW_PAIR_BUDGET kernel pairs: the sum over the tables of the sizes
    of the pools of k and h.  A law that held on one table is skipped on
    every later table where its variables have the same pools.  Randomized
    mode runs seeded trials with freshly sampled ingredients, still compared
    exactly.
    """
    from .kernels import sample_kernel

    require_mode(mode)
    sets = [
        FinSet.of(f"S{n}", [f"s{n}_{i}" for i in range(1, n + 1)]) for n in sorted(set(sizes))
    ]
    name = f"monad_laws[{inst.id}]"
    witness = None
    if mode == "exhaustive":
        if not inst.enumerable:
            raise NotEnumerable(f"{inst.id}: exhaustive law check needs an enumerator")
        tables = law_pools(inst, sets)
        pairs = sum(len(pools["k"]) * len(pools["h"]) for pools in tables.values())
        if pairs > LAW_PAIR_BUDGET:
            raise NotEnumerable(
                f"{inst.id}: {pairs} kernel pairs of the law check"
                f" exceed the law-check budget of {LAW_PAIR_BUDGET}"
            )
        held = set()  # (law, the ids of its variables' pools) for each law that held
        for (X, Y, Z), pools in tables.items():
            # A law holds alike on every table where its variables range over
            # the same pools, so one that held on such a table is skipped.
            scoped = [
                ((law[0], *(id(pools[v]) for v in law[1])), law) for law in _law_table(inst, X, Y, Z)
            ]
            laws = [law for scope, law in scoped if scope not in held]
            witness = _first_failure(laws, pools, decide=True)
            if witness is not None:
                break
            held.update(scope for scope, _ in scoped)
    else:
        rng = random.Random(seed)
        for _ in range(trials):
            X, Y, Z = (rng.choice(sets) for _ in range(3))
            # One-element pools, drawn in a fixed order so that a seed replays.
            pools = {
                "t": [inst.sample(X, rng)],
                "u": [inst.sample(Y, rng)],
                "v": [inst.sample(Z, rng)],
                "x": [rng.choice(X.elements)],
                "f": [_sample_fun(X, Y, rng)],
                "g": [_sample_fun(Y, Z, rng)],
                "k": [sample_kernel(inst, X, Y, rng)],
                "h": [sample_kernel(inst, Y, Z, rng)],
            }
            witness = _first_failure(_law_table(inst, X, Y, Z), pools)
            if witness is not None:
                break
    return CheckReport.of_run(name, mode, trials, seed, passed=witness is None, witness=witness)


# ---------------------------------------------------------------------------
# Registry


def get_instance(monad_id: str, bound: int = 16) -> MonadInstance:
    """Resolve a monad id like "M*", "writer:Z3" or "F" to an instance.

    Plain "F" takes `bound`; "F(B=n)" carries its own bound n >= 1, and
    "writer:{...}" spells its monoid as `FiniteMonoid.to_json` writes it
    (InvalidMonoid if it does not), so the id of every instance resolves
    back to the same instance.
    """
    key = monad_id.strip()
    simple = {
        "Id": IdentityMonad,
        "D": DistributionMonad,
        "M": MeasureMonad,
        "M*": NonzeroMeasureMonad,
        "P": PowersetMonad,
        "P*": NonemptyPowersetMonad,
    }
    if key in simple:
        return simple[key]()
    if key.lower().startswith("writer:"):
        name = key.split(":", 1)[1]
        if name.startswith("{"):
            try:
                data = json.loads(name)
            except (ValueError, RecursionError) as exc:
                raise InvalidMonoid(f"writer id is not monoid JSON: {exc}") from None
            return WriterMonad(FiniteMonoid.from_json(data))
        try:
            return WriterMonad(get_monoid(name))
        except InvalidMonoid as exc:
            raise UnknownMonad(str(exc)) from None
    if key == "F":
        return FreeAbelianMonad(bound)
    bounded = re.fullmatch(r"F\(B=([1-9][0-9]*)\)", key)
    if bounded:
        return FreeAbelianMonad(int(bounded.group(1)))
    raise UnknownMonad(f"unknown monad id {monad_id!r}")


ALL_MONAD_IDS = ["Id", "D", "M", "M*", "P", "P*", "writer:Z2", "writer:Z3", "writer:AND", "F"]
