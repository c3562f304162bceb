"""Exact rational scalars and tables.

A scalar is a plain ``fractions.Fraction`` (canonical: positive denominator,
gcd-reduced).  This module adds the text format used in JSON payloads:
``"p/q"``, or ``"p"`` when the denominator is 1, with an optional leading
``-``.

A table of scalars -- the payload of the measure and free-abelian monads --
is a `Table`: a tuple of integer numerators over one positive denominator,
in canonical form gcd(den, *nums) = 1, so that the zero table is stored over
1 and an integer table (every value of F) over 1.  Two tables are equal
exactly when their entries are, and then have equal hashes.  Arithmetic on
tables is integer arithmetic with one gcd per table; readers outside the
monads get exact ``Fraction`` entries by iterating or indexing a table.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

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

    def scaled(self, factor: Fraction) -> "Table":
        """Every entry times `factor`."""
        p, q = factor.numerator, factor.denominator
        return Table.reduced([n * p for n in self.nums], self.den * q)

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
