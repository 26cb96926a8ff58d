"""Exact rational geometry primitives: boxes and cubes.

All coordinates are `fractions.Fraction`.  Nothing in this module ever
touches floating point; every containment / intersection / disjointness
question is decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence


def rational_from_str(s: str) -> Fraction:
    """Parse a rational from a "p/q", integer or plain decimal string."""
    if "e" in s.lower():  # Fraction("1e10000000") alone runs for seconds
        raise ValueError(f"not a rational (exponent notation): {s!r}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


def rational_to_str(q: Fraction) -> str:
    """Canonical string form: lowest terms, positive denominator."""
    return str(Fraction(q))


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

    def is_degenerate(self) -> bool:
        """True if some axis has zero width (empty interior)."""
        return any(lo == hi for lo, hi in self.intervals)

    def intersect(self, other: "Box") -> "Box | None":
        """Exact intersection; None when empty."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        ivs = []
        for (alo, ahi), (blo, bhi) in zip(self.intervals, other.intervals):
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo > hi:
                return None
            ivs.append((lo, hi))
        return Box(tuple(ivs))

    def interiors_overlap(self, other: "Box") -> bool:
        hit = self.intersect(other)
        return hit is not None and not hit.is_degenerate()


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


def find_interior_overlap(boxes: Sequence[Box]) -> tuple[int, int] | None:
    """Return (i, j), i < j, with boxes[i] and boxes[j] overlapping in interior, or None."""
    for i, j in _first_axis_sweep(boxes):
        if boxes[i].interiors_overlap(boxes[j]):
            return min(i, j), max(i, j)
    return None


def find_cross_overlap(left: Sequence[Box], right: Sequence[Box]) -> tuple[int, int] | None:
    """Return (i, j) with left[i] and right[j] overlapping in interior, or None."""
    boxes, n = [*left, *right], len(left)
    for i, j in _first_axis_sweep(boxes):
        if (i < n) != (j < n) and boxes[i].interiors_overlap(boxes[j]):
            return (i, j - n) if i < n else (j, i - n)
    return None


def _first_axis_sweep(boxes: Sequence[Box]) -> Iterator[tuple[int, int]]:
    """Yield (i, j) for every pair of boxes whose first-axis intervals
    overlap in interior, j entered before i.

    Boxes enter in order of their lower first-axis ends (ties in index
    order) and drop out once the sweep reaches their upper ends.  Every
    piecewise-affine map here is a family of slabs along the first axis,
    which keeps at most one box open: O(N log N), not O(N^2).
    """
    open_boxes: list[int] = []
    for i in sorted(range(len(boxes)), key=lambda i: boxes[i].intervals[0][0]):
        lo = boxes[i].intervals[0][0]
        open_boxes[:] = [j for j in open_boxes if boxes[j].intervals[0][1] > lo]
        for j in open_boxes:
            yield i, j
        open_boxes.append(i)
