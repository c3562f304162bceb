"""Finite sets and functions: the cartesian base category.

Every element is a flattened tuple of atomic string labels.  Under that
representation the n-ary cartesian product is literal tuple concatenation,
which makes products strictly associative and strictly unital: the empty
product is the one-element set ``UNIT`` whose element is the empty tuple,
and ``product([X, UNIT])`` has exactly the same elements as ``X``.  All the
coherence isomorphisms the constructions below would otherwise need
(X x 1 = X, I x I = I, regrouping of triple products) are identities.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import EmptyCodomain, MalformedInput

Elem = tuple  # tuple of atomic string labels


class FinSet:
    """A named finite set with a fixed canonical element order.

    Equality and hashing ignore the name: two sets with the same element
    tuple are the same object of the base category.  All elements must have
    the same arity (atom count) so that products cannot collide.  Each set
    also carries `_uid`, a small int naming its (name, elements) pair: equal
    for two sets built from the same pair, different otherwise.
    """

    __slots__ = ("name", "elements", "arity", "_index", "_hash", "_uid")

    def __init__(self, name: str, elements: Sequence[Elem]):
        elems = tuple(tuple(e) for e in elements)
        if len(set(elems)) != len(elems):
            raise MalformedInput(f"duplicate elements in set {name!r}")
        arities = {len(e) for e in elems}
        if len(arities) > 1:
            raise MalformedInput(f"mixed element arity in set {name!r}")
        self.name = name
        self.elements = elems
        self.arity = arities.pop() if arities else 0
        self._index = {e: i for i, e in enumerate(elems)}
        self._hash = hash(elems)
        self._uid = _uids.setdefault((name, elems), len(_uids))

    @classmethod
    def of(cls, name: str, labels: Sequence[str]) -> "FinSet":
        """Build an atomic set from plain string labels."""
        return cls(name, tuple((str(label),) for label in labels))

    def index(self, e: Elem) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise MalformedInput(f"{e!r} is not an element of {self.name}") from None

    def __contains__(self, e) -> bool:
        return e in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Elem]:
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FinSet({self.name!r}, {len(self)} elements)"


# The number of each (name, elements) pair a FinSet has been built from, in
# order of first use: FinSet._uid.
_uids: dict = {}

UNIT = FinSet("I", ((),))


# Every product built so far, keyed by its factors' `_uid`s.
_products: dict = {(): UNIT}

_uid_of = operator.attrgetter("_uid")


def product(factors: Sequence[FinSet]) -> FinSet:
    """Cartesian product with lexicographic order; empty input gives UNIT.

    Each distinct product is built once and then shared.  The memo is keyed
    by the tuple of the factors' `_uid`s, so a lookup hashes a few small ints
    and compares no elements.  It tells factors apart by name and elements:
    set equality ignores names, but a product's name is part of its output.
    It is not keyed by object identity, so building equal sets again adds
    nothing: the memo, like the `_uids` registry, holds one entry per
    distinct sequence of (name, elements) pairs it has been asked for."""
    key = tuple(map(_uid_of, factors))
    out = _products.get(key)
    if out is not None:
        return out
    names = [f.name for f in factors if f.arity > 0] or ["I"]
    elements = tuple(
        sum(combo, ()) for combo in itertools.product(*(f.elements for f in factors))
    )
    _products[key] = out = FinSet("x".join(names), elements)
    return out


@dataclass(frozen=True)
class FinFun:
    """A total function between finite sets, stored as codomain indices."""

    dom: FinSet
    cod: FinSet
    mapping: tuple

    def __post_init__(self):
        if len(self.mapping) != len(self.dom):
            raise MalformedInput("function table size does not match domain")
        for i in self.mapping:
            if not 0 <= i < len(self.cod):
                raise MalformedInput("function index out of codomain range")

    def __call__(self, e: Elem) -> Elem:
        return self.cod.elements[self.mapping[self.dom.index(e)]]

    def compose(self, other: "FinFun") -> "FinFun":
        """self after other."""
        if other.cod != self.dom:
            raise MalformedInput("composition type mismatch")
        return FinFun(other.dom, self.cod, tuple(self.mapping[i] for i in other.mapping))


def _fun(dom: FinSet, cod: FinSet, mapping: tuple) -> FinFun:
    """The FinFun of `mapping`, unchecked: a tuple of len(dom) indices into
    `cod`.  For mappings built from valid functions by index arithmetic."""
    f = object.__new__(FinFun)
    f.__dict__.update(dom=dom, cod=cod, mapping=mapping)
    return f


def identity_fun(x: FinSet) -> FinFun:
    return FinFun(x, x, tuple(range(len(x))))


def terminal_fun(x: FinSet) -> FinFun:
    """The unique map X -> I."""
    return _fun(x, UNIT, (0,) * len(x))


def swap_fun(x: FinSet, y: FinSet) -> FinFun:
    """The canonical iso X x Y -> Y x X on flattened tuples."""
    return projection_fun([x, y], [1, 0])


def pair_fun(f: FinFun, g: FinFun) -> FinFun:
    """f x g on flattened products.  Products are lexicographic, so the cell
    (i, j) of the domain maps to f(i) * |g.cod| + g(j)."""
    n = len(g.cod)
    mapping = tuple([i * n + j for i in f.mapping for j in g.mapping])
    return _fun(product([f.dom, g.dom]), product([f.cod, g.cod]), mapping)


def regroup_fun(dom: FinSet, cod: FinSet, factors: Sequence[FinSet], order: Sequence[int]) -> FinFun:
    """The map from `dom`, the product of `factors`, to `cod`, the product of
    the factors listed in `order`, that concatenates those coordinates.  As in
    `pair_fun`, factor i's index is weighted by the sizes after each place
    it takes in `order`, since both products are lexicographic."""
    weights, w = [0] * len(factors), 1
    for i in reversed(order):
        weights[i] += w
        w *= len(factors[i])
    mapping = [0]
    for f, w in zip(factors, weights):
        mapping = [m + d * w for m in mapping for d in range(len(f))]
    return _fun(dom, cod, tuple(mapping))


def projection_fun(factors: Sequence[FinSet], keep: Sequence[int]) -> FinFun:
    """Project product(factors) onto the sub-product of the kept factor indices."""
    return regroup_fun(product(factors), product([factors[i] for i in keep]), factors, keep)


def enumerate_functions(dom: FinSet, cod: FinSet) -> Iterator[FinFun]:
    """All |cod|^|dom| functions in deterministic lexicographic order."""
    if len(cod) == 0 and len(dom) > 0:
        raise EmptyCodomain(f"no functions {dom.name} -> empty set")
    for mapping in itertools.product(range(len(cod)), repeat=len(dom)):
        yield FinFun(dom, cod, mapping)


def elem_to_str(e: Elem) -> str:
    return ",".join(e) if e else "*"


def elem_from_str(text: str) -> Elem:
    if text == "*":
        return ()
    return tuple(text.split(","))
