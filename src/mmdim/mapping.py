"""Piecewise-affine maps on a cube, with absorbing escape semantics.

A `PAMap` is a finite list of `AffinePiece`s whose domains have pairwise
disjoint interiors.  Applying the map to a point inside some piece domain
gives the exact affine image; points inside the ambient cube but outside
every piece domain (and points already outside) go to the absorbing
`ESCAPED` state.  Orbits that escape stay escaped.  Points are integer
numerators over a denominator the caller names, and a step multiplies that
denominator by the map's own, so no step builds a `Fraction` or takes a gcd.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .geometry import Box, Cube, find_interior_overlap


class _Escaped:
    """Absorbing out-of-system state."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


ESCAPED = _Escaped()

Point = tuple[int, ...]  # integer numerators over a denominator passed beside them


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


class _PAMapFields(NamedTuple):
    ambient: Cube
    pieces: tuple[AffinePiece, ...]


class PAMap(_PAMapFields):
    """Piecewise-affine map with escape outside the piece domains.

    A point on a shared boundary is resolved to the lexicographically
    smallest domain containing it, deterministically.  A point's candidates
    are indexed by its first coordinate on the lattice of one denominator D,
    the lcm of every domain end's: the distinct first-axis ends times D are
    the integer cuts, and slot 2i + 1 holds the pieces containing cut i, slot
    2i those containing the open gap just below it, smallest domain first,
    each beside its transverse bounds times D (one tuple per distinct
    bounds).  A step takes a point over den to its image over den S, S the
    lcm of the denominators of every piece's scale and offset; each piece's
    scale and offset times S are built when a step first lands in it.  The
    index and those step coefficients take no part in equality.
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
        den = math.lcm(*{x.denominator for p in pieces for iv in p.domain.intervals for x in iv})
        ends = [x.numerator * (den // x.denominator)
                for p in pieces for x in p.domain.intervals[0]]
        cuts, rank = [], [0] * len(ends)  # slab ends arrive nearly sorted
        for i in sorted(range(len(ends)), key=ends.__getitem__):
            if not cuts or cuts[-1] != ends[i]:
                cuts.append(ends[i])
            rank[i] = len(cuts) - 1
        slots: list[tuple] = [()] * (2 * len(cuts) + 1)
        shared, crowded = {}, {}  # distinct bounds; the slots of more than one piece
        for i, piece in enumerate(pieces):
            bounds = tuple((a.numerator * (den // a.denominator),
                            b.numerator * (den // b.denominator))
                           for a, b in piece.domain.intervals[1:])
            entry = (piece, shared.setdefault(bounds, bounds))
            alone = (entry,)  # every slot of a lone piece holds this one tuple
            for j in range(2 * rank[2 * i] + 1, 2 * rank[2 * i + 1] + 2):
                if slots[j]:
                    crowded.setdefault(j, list(slots[j])).append(entry)
                else:
                    slots[j] = alone
        # smallest domain first, ties in the given order (the tie rule)
        for j, entries in crowded.items():
            slots[j] = tuple(sorted(entries, key=lambda e: e[0].domain.intervals))
        self._den, self._cuts, self._slots, self._steps = den, cuts, slots, {}
        return self

    @cached_property
    def step_den(self) -> int:
        """S: the lcm of the denominators of every piece's scale and offset."""
        return math.lcm(*{x.denominator for p in self.pieces for x in p.scale + p.offset})

    def piece_for(self, p: Point, den: int) -> AffinePiece | None:
        """The piece whose domain holds the point p / den, or None."""
        if len(p) != self.ambient.dim:
            raise ValueError("dimension mismatch")
        D, cuts = self._den, self._cuts
        q, r = divmod(p[0] * D, den)
        if r:  # p[0] D / den lies strictly between q and q + 1, so on no cut
            slot = 2 * bisect_right(cuts, q)
        else:
            i = bisect_left(cuts, q)
            slot = 2 * i + (i < len(cuts) and cuts[i] == q)
        # every piece in the slot contains p[0] / den; the other axes are
        # tested inline as lo den <= x D <= hi den
        for piece, bounds in self._slots[slot]:
            for x, (lo, hi) in zip(p[1:], bounds):
                if not lo * den <= x * D <= hi * den:
                    break
            else:
                return piece
        return None

    def apply(self, p: Point, den: int):
        """The image of the point p / den as integers over den S, or ESCAPED."""
        piece = self.piece_for(p, den)
        if piece is None:
            return ESCAPED
        coefficients = self._steps.get(id(piece))
        if coefficients is None:  # (o S, s S) per axis
            S = self.step_den
            coefficients = self._steps[id(piece)] = tuple(
                (o.numerator * (S // o.denominator), s.numerator * (S // s.denominator))
                for s, o in zip(piece.scale, piece.offset))
        return tuple([a * den + b * x for x, (a, b) in zip(p, coefficients)])

    def orbit(self, p: Point, steps: int, den: int) -> list:
        """States [x, f(x), ..., f^steps(x)] of x = p / den, each as integers
        over den S^steps; escapes are absorbing."""
        S = self.step_den
        states = [ESCAPED] * (steps + 1)  # sized once: appends would over-allocate
        states[0] = p
        for t in range(steps):  # state t lies over den S^t
            p = self.apply(p, den)
            if p is ESCAPED:
                break
            den *= S
            states[t + 1] = p
        for t in range(steps):
            if states[t] is ESCAPED:
                break
            f = S ** (steps - t)
            states[t] = tuple([x * f for x in states[t]])
        return states
