"""Exact rational scalars.

Values are plain ``fractions.Fraction`` instances, which already guarantee
canonical form (positive denominator, gcd-reduced) and exact arithmetic over
arbitrary-precision integers.  This module only adds the text format used in
JSON payloads: ``"p/q"``, or ``"p"`` when the denominator is 1, with an
optional leading ``-``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedInput

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

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
