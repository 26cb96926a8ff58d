"""Exact rational geometry primitives: boxes and cubes.

All coordinates are `fractions.Fraction`.  Nothing in this module ever
touches floating point; every disjointness question is decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence


def rational_from_str(s: str) -> Fraction:
    """Parse a rational from a "p/q", integer or plain decimal string."""
    if "e" in s.lower():  # Fraction("1e10000000") alone runs for seconds
        raise ValueError(f"not a rational (exponent notation): {s!r}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


class _BoxFields(NamedTuple):
    intervals: tuple[tuple[Fraction, Fraction], ...]


class Box(_BoxFields):
    """Axis-aligned box given by closed per-axis intervals [lo, hi]."""

    __slots__ = ()

    def __new__(cls, intervals):
        for lo, hi in intervals:  # lo > hi, as integer cross products
            if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
                raise ValueError(f"inverted interval [{lo}, {hi}]")
        return tuple.__new__(cls, (intervals,))

    @property
    def dim(self) -> int:
        return len(self.intervals)


class _CubeFields(NamedTuple):
    lo: Fraction
    hi: Fraction
    dim: int


class Cube(_CubeFields):
    """The cube [lo, hi]^dim."""

    def __new__(cls, lo, hi, dim):
        if lo >= hi:
            raise ValueError("cube needs lo < hi")
        if dim < 1:
            raise ValueError("cube dimension must be positive")
        return tuple.__new__(cls, (lo, hi, dim))

    @cached_property
    def side(self) -> Fraction:
        return self.hi - self.lo


def find_interior_overlap(slabs: Sequence[Box]) -> tuple[int, int] | None:
    """Return (i, j), i < j, with slabs[i] and slabs[j] overlapping in interior, or None.

    Each box is a first-axis interval of positive width times one shared box.
    Sorted by lower end, they overlap when one starts before the one before ends.
    """
    order = sorted(range(len(slabs)), key=lambda i: slabs[i].intervals[0][0])
    for i, j in zip(order, order[1:]):
        if slabs[j].intervals[0][0] < slabs[i].intervals[0][1]:
            return min(i, j), max(i, j)
    return None
