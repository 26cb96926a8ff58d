"""Piecewise-affine maps on the slabs of a cube, with absorbing escape.

A `PAMap` is a list of `AffinePiece`s on slabs: each domain is a first-axis
interval of positive width times the whole cube, as a horseshoe's strips
are, and no two overlap in interior.  A point in a slab goes to its exact
affine image; a point in a gap between slabs, or outside the cube, goes to
the absorbing `ESCAPED` state.  Points are integer numerators over a
denominator the caller names, and a step multiplies that denominator by the
map's own, so no step builds a `Fraction` or takes a gcd.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    """Piecewise-affine map on slabs, with escape outside them.

    A point on an end that two slabs share goes to the lower slab.  Lookups
    run on the lattice of one denominator D, the lcm of the cube's and every
    slab end's: one bisect of the first coordinate into the slabs' upper
    ends times D, a test of that slab's lower end, and a test of the other
    coordinates against the cube's ends times D.  A step takes a point over
    den to its image over den S, S the lcm of the denominators of every
    piece's scale and offset; each piece's scale and offset times S are
    built when a step first lands in it.  The index and those step
    coefficients take no part in equality.
    """

    def __new__(cls, ambient, pieces):
        across = ((ambient.lo, ambient.hi),) * (ambient.dim - 1)
        for i, piece in enumerate(pieces):
            ivs = piece.domain.intervals
            if len(ivs) != ambient.dim:
                raise ValueError("piece dimension differs from ambient cube")
            if not ivs[0][0] < ivs[0][1] or ivs[1:] != across:
                raise ValueError(f"piece domain {i} is not a slab of positive width")
        hit = find_interior_overlap([p.domain for p in pieces])
        if hit is not None:
            i, j = hit
            raise ValueError(f"piece domains {i} and {j} have overlapping interiors")
        self = tuple.__new__(cls, (ambient, pieces))
        den = math.lcm(ambient.lo.denominator, ambient.hi.denominator,
                       *{x.denominator for p in pieces for x in p.domain.intervals[0]})

        def lattice(x: Fraction) -> int:
            return x.numerator * (den // x.denominator)

        self._slabs = sorted(pieces, key=lambda p: p.domain.intervals[0][0])
        self._lows = [lattice(p.domain.intervals[0][0]) for p in self._slabs]
        self._highs = [lattice(p.domain.intervals[0][1]) for p in self._slabs]
        self._den, self._cube, self._steps = den, (lattice(ambient.lo), lattice(ambient.hi)), {}
        return self

    @cached_property
    def step_den(self) -> int:
        """S: the lcm of the denominators of every piece's scale and offset."""
        return math.lcm(*{x.denominator for p in self.pieces for x in p.scale + p.offset})

    def piece_for(self, p: Point, den: int) -> AffinePiece | None:
        """The piece whose slab holds the point p / den, or None."""
        if len(p) != self.ambient.dim:
            raise ValueError("dimension mismatch")
        D = self._den
        x = p[0] * D
        # the first slab ending at or after p[0] / den: a shared end goes to the lower
        i = bisect_left(self._highs, -(-x // den))
        if i == len(self._highs) or self._lows[i] * den > x:
            return None
        lo, hi = self._cube
        for y in p[1:]:
            if not lo * den <= y * D <= hi * den:
                return None
        return self._slabs[i]

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
        """States [x, f(x), ..., f^steps(x)] of x = p / den, state t as
        integers over den S^t; escapes are absorbing."""
        S = self.step_den
        states = [ESCAPED] * (steps + 1)  # sized once: appends would over-allocate
        states[0] = p
        for t in range(steps):
            p = self.apply(p, den)
            if p is ESCAPED:
                break
            den *= S
            states[t + 1] = p
        return states
