"""Exact rational scalars and tables.

A scalar read out of a table is a plain ``fractions.Fraction`` (canonical:
positive denominator, gcd-reduced).  This module adds the text format used
in JSON payloads: ``"p/q"``, or ``"p"`` when the denominator is 1, with an
optional leading ``-``.

A table of scalars -- the payload of the measure and free-abelian monads --
is a `Table`: a tuple of integer numerators over one positive denominator,
in canonical form gcd(den, *nums) = 1, so that the zero table is stored over
1 and an integer table (every value of F) over 1.  Two tables are equal
exactly when their entries are, and then have equal hashes.  Arithmetic on
tables, the scalar interface of `Table` included, is integer arithmetic
with one gcd per table; only the text and JSON forms of a value read exact
``Fraction`` entries, by iterating or indexing a table.
"""

from __future__ import annotations

import itertools
import re
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


class Table:
    """The entries nums[i] / den, in canonical form.

    The constructor trusts its arguments: `nums` a tuple of ints, `den` a
    positive int and gcd(den, *nums) = 1.  `reduced`, `of_entries` and
    `of_ratios` build the canonical form from anything else."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple, den: int = 1):
        self.nums = nums
        self.den = den

    @classmethod
    def reduced(cls, nums, den: int) -> "Table":
        """The table nums / den for ints `nums` and a positive int `den`."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                return cls(tuple(map(g.__rfloordiv__, nums)), den // g)
        return cls(tuple(nums), den)

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
        return cls.of_ratios(ratios)

    @classmethod
    def of_ratios(cls, ratios) -> "Table":
        """The table of the entries n / d for int pairs (n, d), d > 0."""
        den = lcm(*(d for _, d in ratios))
        return cls.reduced([n * (den // d) for n, d in ratios], den)

    def scaled(self, p: int, q: int) -> "Table":
        """Every entry times p / q, for ints p and q != 0, in canonical form
        (also when this table is not)."""
        if q < 0:
            p, q = -p, -q
        return Table.reduced([n * p for n in self.nums], self.den * q)

    def pivot(self):
        """The index of the first non-zero entry, or None for the zero table."""
        return next((i for i, n in enumerate(self.nums) if n), None)

    def over(self, indices, pivot: "Table", i: int) -> "Table":
        """The entries at `indices`, divided by entry i of `pivot` (non-zero)."""
        nums = self.nums
        return Table([nums[j] for j in indices], self.den).scaled(pivot.den, pivot.nums[i])

    def normalized(self) -> "Table":
        """Every entry divided by the sum of the entries (non-zero)."""
        return Table(self.nums).scaled(1, sum(self.nums))

    def outer_factors(self, sizes) -> tuple:
        """Factor this table, over a lexicographic product of sets of `sizes`,
        as an outer product: (factors, None), or (None, j) for the first index
        j where t[j] * t[p]^(n-1) != prod_k t[p with slot k := j_k], p the
        pivot (over one denominator the numerators obey the same identity).
        The zero table gives zero and unit vectors e_0; any other, the slices
        through p, the first divided by t[p]^(n-1)."""
        p = self.pivot()
        if p is None:
            return [Table((0,) * sizes[0])] + [Table((1,) + (0,) * (s - 1)) for s in sizes[1:]], None
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
        first = Table(slices[0], den).scaled(den ** (n - 1), lead)
        return [first] + [Table.reduced(s, den) for s in slices[1:]], None

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self):
        den = self.den
        return (Fraction(n, den) for n in self.nums)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den)

    def __eq__(self, other) -> bool:
        if type(other) is not Table:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Table({self.nums!r}, {self.den!r})"
