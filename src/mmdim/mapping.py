"""Piecewise-affine maps on a cube, with absorbing escape semantics.

A `PAMap` is a finite list of `AffinePiece`s whose domains have pairwise
disjoint interiors.  Applying the map to a point inside some piece domain
gives the exact affine image; points inside the ambient cube but outside
every piece domain (and points already outside) go to the absorbing
`ESCAPED` state.  Orbits that escape stay escaped.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .geometry import Box, Cube, Point, find_interior_overlap


class _Escaped:
    """Absorbing out-of-system state."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


ESCAPED = _Escaped()


class _PieceFields(NamedTuple):
    domain: Box
    scale: tuple[Fraction, ...]
    offset: tuple[Fraction, ...]


class AffinePiece(_PieceFields):
    """x -> offset + scale * x per axis, restricted to a box domain.

    A negative scale on an axis is an orientation reversal.  Scales must be
    nonzero so every piece is invertible.
    """

    __slots__ = ()

    def __new__(cls, domain, scale, offset):
        if not (domain.dim == len(scale) == len(offset)):
            raise ValueError("piece dimensions disagree")
        if any(s == 0 for s in scale):
            raise ValueError("piece scales must be nonzero")
        return tuple.__new__(cls, (domain, scale, offset))

    def apply_point(self, p: Point) -> Point:
        # o + s x over the one denominator o.d s.d x.d, normalized once
        return tuple(Fraction(o.numerator * (d := s.denominator * x.denominator)
                              + s.numerator * x.numerator * o.denominator, o.denominator * d)
                     for x, s, o in zip(p, self.scale, self.offset))

    def map_box(self, box: Box) -> Box:
        """Exact affine image of an arbitrary box (not clipped to the domain)."""
        ivs = []
        for (lo, hi), s, o in zip(box.intervals, self.scale, self.offset):
            a, b = o + s * lo, o + s * hi
            ivs.append((a, b) if a <= b else (b, a))
        return Box(tuple(ivs))

    def then(self, other: "AffinePiece", domain: Box) -> "AffinePiece":
        """Composition other(self(x)) restricted to an explicitly given domain."""
        scale = tuple(s2 * s1 for s1, s2 in zip(self.scale, other.scale))
        offset = tuple(
            o2 + s2 * o1 for o1, s2, o2 in zip(self.offset, other.scale, other.offset)
        )
        return AffinePiece(domain, scale, offset)


def _piece_sort_key(piece: AffinePiece):
    return tuple(piece.domain.intervals)


class _PAMapFields(NamedTuple):
    ambient: Cube
    pieces: tuple[AffinePiece, ...]


class PAMap(_PAMapFields):
    """Piecewise-affine map with escape outside the piece domains.

    Pieces are kept sorted by domain so that a point on a shared boundary is
    resolved to the lexicographically smallest piece, deterministically.  A
    point's candidates are indexed by its first coordinate: the distinct
    first-axis endpoints of the domains are the cuts, and slot 2i + 1 holds
    the pieces containing cut i, slot 2i those containing the open gap just
    below it, each in sorted order; the index takes no part in equality.
    """

    def __new__(cls, ambient, pieces):
        for piece in pieces:
            if piece.domain.dim != ambient.dim:
                raise ValueError("piece dimension differs from ambient cube")
        hit = find_interior_overlap([p.domain for p in pieces])
        if hit is not None:
            i, j = hit
            raise ValueError(f"piece domains {i} and {j} have overlapping interiors")
        self = tuple.__new__(cls, (ambient, pieces))
        ordered = sorted(pieces, key=_piece_sort_key)
        ends = [x for piece in ordered for x in piece.domain.intervals[0]]
        cuts, rank = [], [0] * len(ends)  # slab ends arrive nearly sorted
        for i in sorted(range(len(ends)), key=ends.__getitem__):
            if not cuts or cuts[-1] != ends[i]:
                cuts.append(ends[i])
            rank[i] = len(cuts) - 1
        slots: list[list[AffinePiece]] = [[] for _ in range(2 * len(cuts) + 1)]
        for i, piece in enumerate(ordered):
            for j in range(2 * rank[2 * i] + 1, 2 * rank[2 * i + 1] + 2):
                slots[j].append(piece)
        self._cuts, self._slots = cuts, slots
        return self

    def piece_for(self, p: Point) -> AffinePiece | None:
        if len(p) != self.ambient.dim:
            raise ValueError("dimension mismatch")
        i = bisect_left(self._cuts, p[0])
        on_cut = i < len(self._cuts) and self._cuts[i] == p[0]
        # every piece in the slot contains p[0]; the other axes are tested inline
        for piece in self._slots[2 * i + on_cut]:
            for x, (lo, hi) in zip(p[1:], piece.domain.intervals[1:]):
                if not lo <= x <= hi:
                    break
            else:
                return piece
        return None

    def apply(self, state):
        if state is ESCAPED:
            return ESCAPED
        piece = self.piece_for(state)
        if piece is None:
            return ESCAPED
        return piece.apply_point(state)

    def orbit(self, p: Point, steps: int) -> list:
        """States [x, f(x), ..., f^steps(x)]; escapes are absorbing."""
        states = [p]
        for _ in range(steps):
            states.append(self.apply(states[-1]))
        return states
