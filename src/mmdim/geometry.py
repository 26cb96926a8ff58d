"""Exact rational geometry primitives: points, boxes, cubes.

All coordinates are `fractions.Fraction`.  Nothing in this module ever
touches floating point; every containment / intersection / disjointness
question is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

Point = tuple[Fraction, ...]


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


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by closed per-axis intervals [lo, hi]."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for lo, hi in self.intervals:
            if lo > hi:
                raise ValueError(f"inverted interval [{lo}, {hi}]")

    @staticmethod
    def of(*intervals: Sequence) -> "Box":
        return Box(tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def is_degenerate(self) -> bool:
        """True if some axis has zero width (empty interior)."""
        return any(lo == hi for lo, hi in self.intervals)

    def contains(self, p: Point) -> bool:
        if len(p) != self.dim:
            raise ValueError("dimension mismatch")
        return all(lo <= x <= hi for x, (lo, hi) in zip(p, self.intervals))

    def center(self) -> Point:
        # (a + b) / 2 over the one denominator 2 a.d b.d, normalized once
        return tuple(Fraction(a.numerator * b.denominator + b.numerator * a.denominator,
                              2 * a.denominator * b.denominator) for a, b in self.intervals)

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


@dataclass(frozen=True)
class Cube:
    """The cube [lo, hi]^dim."""

    lo: Fraction
    hi: Fraction
    dim: int

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError("cube needs lo < hi")
        if self.dim < 1:
            raise ValueError("cube dimension must be positive")

    @staticmethod
    def of(lo, hi, dim: int) -> "Cube":
        return Cube(Fraction(lo), Fraction(hi), dim)

    @cached_property
    def side(self) -> Fraction:
        return self.hi - self.lo

    def box(self) -> Box:
        return Box(((self.lo, self.hi),) * self.dim)

    def contains(self, p: Point) -> bool:
        return self.box().contains(p)


def find_interior_overlap(boxes: Sequence[Box]) -> tuple[int, int] | None:
    """Return indices of some pair of boxes with overlapping interiors, or None.

    Recursive sweep: group boxes by their exact interval on the current axis.
    Boxes in different groups can only collide when the two group intervals
    themselves overlap, in which case those (rare) cross pairs are checked
    directly; boxes sharing an interval are recursed on the next axis.  For
    grid-aligned families this is O(n * N log N) instead of O(N^2).
    """
    if len(boxes) < 2:
        return None
    index_order = list(range(len(boxes)))
    return _overlap_scan(boxes, index_order, axis=0)


def _overlap_scan(boxes: Sequence[Box], idxs: list[int], axis: int) -> tuple[int, int] | None:
    if len(idxs) < 2:
        return None
    dim = boxes[idxs[0]].dim
    if axis == dim:
        # identical on every axis: the boxes coincide, so their interiors
        # overlap unless that shared box is degenerate
        if boxes[idxs[0]].is_degenerate():
            return None
        return (idxs[0], idxs[1])
    groups: dict[tuple[Fraction, Fraction], list[int]] = {}
    for i in idxs:
        groups.setdefault(boxes[i].intervals[axis], []).append(i)
    # cross-group collisions: sweep the distinct intervals for interior overlap
    keys = sorted(groups)
    active: list[tuple[Fraction, tuple[Fraction, Fraction]]] = []
    for key in keys:
        lo, hi = key
        still = []
        for ahi, akey in active:
            if ahi > lo:  # interiors of the axis intervals overlap
                hit = _cross_check(boxes, groups[akey], groups[key])
                if hit is not None:
                    return hit
                still.append((ahi, akey))
            # else: interval closed out, drop it
        active = still
        if lo != hi:
            active.append((hi, key))
    for key in keys:
        hit = _overlap_scan(boxes, groups[key], axis + 1)
        if hit is not None:
            return hit
    return None


def _cross_check(boxes: Sequence[Box], left: list[int], right: list[int]) -> tuple[int, int] | None:
    for i in left:
        for j in right:
            if boxes[i].interiors_overlap(boxes[j]):
                return (i, j)
    return None


def find_cross_overlap(left: Sequence[Box], right: Sequence[Box]) -> tuple[int, int] | None:
    """Return (i, j) with left[i] and right[j] overlapping in interior, or None.

    Sweep along the first axis: boxes enter in order of their lower ends and
    drop out once the sweep reaches their upper ends, so only pairs whose
    first-axis intervals overlap in interior get the full box test.  For
    families of slabs along the first axis this is O(N log N), not O(N^2).
    """
    families = (left, right)
    events = sorted(
        (box.intervals[0][0], side, i)
        for side, family in enumerate(families)
        for i, box in enumerate(family)
    )
    open_boxes: tuple[list[int], list[int]] = ([], [])
    for lo, side, i in events:
        others, theirs = families[1 - side], open_boxes[1 - side]
        theirs[:] = [j for j in theirs if others[j].intervals[0][1] > lo]
        box = families[side][i]
        for j in theirs:
            if box.interiors_overlap(others[j]):
                return (i, j) if side == 0 else (j, i)
        open_boxes[side].append(i)
    return None
