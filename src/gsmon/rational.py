"""Exact rational scalars and tables.

A scalar read out of a table is a plain ``fractions.Fraction`` (canonical:
positive denominator, gcd-reduced).  This module adds the text format used
in JSON payloads: ``"p/q"``, or ``"p"`` when the denominator is 1, with an
optional leading ``-``.

A table of scalars -- the payload of the measure and free-abelian monads --
is a `Table`: the immutable pair (nums, den) of a tuple of integer
numerators and one positive denominator, in canonical form gcd(den, *nums)
= 1, so that the zero table is stored over 1 and an integer table (every
value of F) over 1.  Two tables are equal exactly when their entries are,
and then have equal hashes: those of the pair.  Arithmetic on tables, the
scalar interface of `Table` included, is integer arithmetic with one gcd
per table; only the text and JSON forms of a value read exact ``Fraction``
entries, through `Table.entries`.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import MalformedInput

Rat = Fraction

_RAT_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rat(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into a reduced Fraction."""
    if not _RAT_RE.fullmatch(text):
        raise MalformedInput(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise MalformedInput(f"zero denominator: {text!r}") from None


def format_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Table(namedtuple("Table", "nums den")):
    """The entries nums[i] / den, in canonical form: gcd(den, *nums) = 1.

    Every table is canonical when built.  The public constructor
    `Table(nums, den)` checks its input -- `nums` a tuple of ints (not
    bools), `den` an int (not a bool) of at least 1: TypeError or ValueError
    otherwise -- and reduces it.  The arithmetic of this module and of the
    table monads builds tables from ints it has computed itself, unchecked,
    through `_table` (already canonical), or `_reduced` and `_scaled`, which
    reduce.  A table is a tuple, so its fields are read-only, and `==` and
    `hash` are those of the pair; a copy, a pickle at any protocol and
    `_replace` go through the checked constructor."""

    __slots__ = ()

    def __new__(cls, nums: tuple, den: int = 1) -> "Table":
        if type(nums) is not tuple or any(type(n) is not int for n in nums):
            raise TypeError(f"table numerators must be a tuple of ints, got {nums!r}")
        if type(den) is not int:
            raise TypeError(f"table denominator must be an int, got {den!r}")
        if den < 1:
            raise ValueError(f"table denominator must be at least 1, got {den}")
        return _reduced(nums, den)

    @classmethod
    def _make(cls, pair) -> "Table":
        return cls(*pair)

    def __reduce__(self):
        return Table, (self.nums, self.den)

    @classmethod
    def of_entries(cls, entries) -> "Table":
        """The table of `entries`, each an int (not a bool) or a Fraction.

        TypeError for any other entry: a float or a string is not taken as
        the rational it approximates or spells."""
        ratios = []
        for v in entries:
            if isinstance(v, Fraction) or (isinstance(v, int) and not isinstance(v, bool)):
                ratios.append((v.numerator, v.denominator))
            else:
                raise TypeError(f"not an exact rational: {v!r}")
        den = lcm(*(d for _, d in ratios))
        return _reduced([n * (den // d) for n, d in ratios], den)

    def scaled(self, p: int, q: int) -> "Table":
        """Every entry times p / q, for ints p and q != 0."""
        return _scaled(self.nums, self.den, p, q)

    def pivot(self):
        """The index of the first non-zero entry, or None for the zero table."""
        return next((i for i, n in enumerate(self.nums) if n), None)

    def over(self, indices, pivot: "Table", i: int) -> "Table":
        """The entries at `indices`, divided by entry i of `pivot` (non-zero)."""
        nums = self.nums
        return _scaled([nums[j] for j in indices], self.den, pivot.den, pivot.nums[i])

    def normalized(self) -> "Table":
        """Every entry divided by the sum of the entries (non-zero)."""
        return _scaled(self.nums, 1, 1, sum(self.nums))

    def outer_factors(self, sizes) -> tuple:
        """Factor this table, over a lexicographic product of sets of `sizes`,
        as an outer product: (factors, None), or (None, j) for the first index
        j where t[j] * t[p]^(n-1) != prod_k t[p with slot k := j_k], p the
        pivot (over one denominator the numerators obey the same identity).
        The zero table gives zero and unit vectors e_0; any other, the slices
        through p, the first divided by t[p]^(n-1)."""
        p = self.pivot()
        if p is None:
            units = [_table((1,) + (0,) * (s - 1), 1) for s in sizes[1:]]
            return [_table((0,) * sizes[0], 1)] + units, None
        nums, den, n = self.nums, self.den, len(sizes)
        strides = [prod(sizes[k + 1:]) for k in range(n)]
        slices = [
            [nums[p + (i - p // stride % size) * stride] for i in range(size)]
            for size, stride in zip(sizes, strides)
        ]
        lead = nums[p] ** (n - 1)
        for flat, entries in enumerate(itertools.product(*slices)):
            if nums[flat] * lead != prod(entries):
                return None, tuple(flat // stride % size for size, stride in zip(sizes, strides))
        first = _scaled(slices[0], den, den ** (n - 1), lead)
        return [first] + [_reduced(s, den) for s in slices[1:]], None

    def entries(self) -> tuple:
        """The exact entries, as Fractions."""
        den = self.den
        return tuple([Fraction(n, den) for n in self.nums])

    def __repr__(self) -> str:
        return f"Table({self.nums!r}, {self.den!r})"


def _table(nums: tuple, den: int) -> Table:
    """The table nums / den, unchecked: `nums` a tuple of ints and `den` an
    int >= 1, with gcd(den, *nums) = 1."""
    return tuple.__new__(Table, (nums, den))


def _reduced(nums, den: int) -> Table:
    """The canonical table nums / den, unchecked: ints `nums` (any sequence)
    and an int `den` >= 1."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return _table(tuple([n // g for n in nums]), den // g)
    return _table(tuple(nums), den)


def _scaled(nums, den: int, p: int, q: int) -> Table:
    """The canonical table of the entries n * p / (den * q), unchecked: ints
    `nums` (any sequence), an int `den` >= 1 and ints p and q != 0."""
    if q < 0:
        p, q = -p, -q
    return _reduced([n * p for n in nums], den * q)
