"""Finite commutative monoids: validation, the group test, and the
associativity-square pullback oracle.

The two checks `is_group` and `assoc_square_is_pullback` are deliberately
independent code paths (inverse search vs. cone enumeration) so that their
agreement over the bundled library is a meaningful cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidMonoid
from .report import CheckReport


@dataclass(frozen=True)
class FiniteMonoid:
    """A commutative monoid given by its Cayley table: distinct string labels,
    and the unit and the table entries as int indices into them."""

    name: str
    elements: tuple
    unit: int
    table: tuple  # tuple of tuples of indices

    def __post_init__(self):
        n = len(self.elements)
        if not isinstance(self.name, str) or not all(isinstance(e, str) for e in self.elements):
            raise InvalidMonoid(f"{self.name!r}: the name and the element labels must be strings")
        if len(set(self.elements)) != n:
            raise InvalidMonoid(f"{self.name}: duplicate element labels")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise InvalidMonoid(f"{self.name}: table is not {n}x{n}")
        if type(self.unit) is not int or any(type(v) is not int for row in self.table for v in row):
            raise InvalidMonoid(f"{self.name}: the unit and the table entries must be integers")
        if not 0 <= self.unit < n:
            raise InvalidMonoid(f"{self.name}: unit index out of range")
        for row in self.table:
            for v in row:
                if not 0 <= v < n:
                    raise InvalidMonoid(f"{self.name}: table not closed")
        for i in range(n):
            if self.table[self.unit][i] != i or self.table[i][self.unit] != i:
                raise InvalidMonoid(f"{self.name}: unit law fails at {self.elements[i]}")
        for a, b in itertools.product(range(n), repeat=2):
            if self.table[a][b] != self.table[b][a]:
                raise InvalidMonoid(
                    f"{self.name}: not commutative at ({self.elements[a]},{self.elements[b]})"
                )
        for a, b, c in itertools.product(range(n), repeat=3):
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                raise InvalidMonoid(
                    f"{self.name}: not associative at "
                    f"({self.elements[a]},{self.elements[b]},{self.elements[c]})"
                )

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def label(self, i: int) -> str:
        return self.elements[i]

    def index(self, label: str) -> int:
        return self.elements.index(label)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "elements": list(self.elements),
            "unit": self.unit,
            "table": [list(row) for row in self.table],
        }

    @classmethod
    def from_json(cls, data) -> "FiniteMonoid":
        """The monoid that `to_json` wrote; any other input is InvalidMonoid."""
        try:
            name, elements, unit, table = (data[k] for k in ("name", "elements", "unit", "table"))
            if not isinstance(elements, list) or not all(isinstance(r, list) for r in table):
                raise TypeError("elements and table rows must be lists")
            return cls(name, tuple(elements), unit, tuple(map(tuple, table)))
        except KeyError as exc:
            raise InvalidMonoid(f"monoid JSON missing field {exc}") from None
        except TypeError as exc:
            raise InvalidMonoid(f"bad monoid JSON: {exc}") from None


def is_group(m: FiniteMonoid) -> tuple:
    """True iff every element has a two-sided inverse.

    Returns (verdict, witness): witness is a label with no inverse, or None.
    """
    n = len(m.elements)
    for a in range(n):
        if not any(m.mul(a, b) == m.unit for b in range(n)):
            return False, m.label(a)
    return True, None


def mediators(m: FiniteMonoid, a: int, g: int, h: int, c: int) -> list:
    """All b with g = b*c and h = a*b, for a cone (a,g,h,c) with a*g = h*c."""
    return [b for b in range(len(m.elements)) if m.mul(b, c) == g and m.mul(a, b) == h]


def assoc_square_is_pullback(m: FiniteMonoid) -> tuple:
    """Decide whether the associativity square of the monoid is a pullback.

    The square is a pullback iff for every (a,g,h,c) with a*g = h*c there is a
    unique b with g = b*c and h = a*b.  Exhaustive over all |M|^4 quadruples.
    Returns (verdict, witness): witness is a failing cone as a labelled tuple
    together with the number of mediating elements found.
    """
    n = len(m.elements)
    for a, g, h, c in itertools.product(range(n), repeat=4):
        if m.mul(a, g) != m.mul(h, c):
            continue
        found = mediators(m, a, g, h, c)
        if len(found) != 1:
            cone = (m.label(a), m.label(g), m.label(h), m.label(c))
            return False, {"cone": cone, "mediators": [m.label(b) for b in found]}
    return True, None


def group_pullback_agreement(suite: Sequence[FiniteMonoid]) -> CheckReport:
    """Check is_group(m) == assoc_square_is_pullback(m) for every monoid."""
    for m in suite:
        grp, grp_w = is_group(m)
        pb, pb_w = assoc_square_is_pullback(m)
        if grp != pb:
            return CheckReport(
                name="group_pullback_agreement",
                passed=False,
                mode="exhaustive",
                witness={
                    "monoid": m.name,
                    "is_group": grp,
                    "is_pullback": pb,
                    "group_witness": grp_w,
                    "pullback_witness": pb_w,
                },
            )
    return CheckReport(
        name="group_pullback_agreement",
        passed=True,
        mode="exhaustive",
        note=f"{len(list(suite))} monoids checked",
    )


def _cyclic(n: int) -> FiniteMonoid:
    return FiniteMonoid(
        f"Z{n}",
        tuple(str(i) for i in range(n)),
        0,
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
    )


def _klein() -> FiniteMonoid:
    labels = ("00", "01", "10", "11")
    def mul(i, j):
        return (i // 2 ^ j // 2) * 2 + (i % 2 ^ j % 2)
    return FiniteMonoid(
        "Z2xZ2", labels, 0, tuple(tuple(mul(i, j) for j in range(4)) for i in range(4))
    )


def _and_monoid() -> FiniteMonoid:
    # {0,1} under logical AND; unit is 1.  Not a group: 0 has no inverse.
    return FiniteMonoid("AND", ("0", "1"), 1, ((0, 0), (0, 1)))


def _z4_mult() -> FiniteMonoid:
    return FiniteMonoid(
        "Z4mult",
        ("0", "1", "2", "3"),
        1,
        tuple(tuple((i * j) % 4 for j in range(4)) for i in range(4)),
    )


def _max3() -> FiniteMonoid:
    return FiniteMonoid(
        "MAX3",
        ("0", "1", "2"),
        0,
        tuple(tuple(max(i, j) for j in range(3)) for i in range(3)),
    )


MONOID_LIBRARY = {
    m.name: m
    for m in (
        _cyclic(1),
        _cyclic(2),
        _cyclic(3),
        _cyclic(4),
        _klein(),
        _and_monoid(),
        _z4_mult(),
        _max3(),
    )
}


def get_monoid(name: str) -> FiniteMonoid:
    try:
        return MONOID_LIBRARY[name]
    except KeyError:
        raise InvalidMonoid(f"unknown monoid {name!r}") from None
