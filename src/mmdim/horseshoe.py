"""Horseshoe homeomorphism data on an n-cube.

For an odd leg count L >= 3 on a cube E = [a, b]^n:

* the transverse axes are cut by 2L points t_0 < ... < t_{2L-1} with uniform
  spacing (b - a)/(2L - 1); legs are the products of [a, b] on the first axis
  with odd t-cells on the others, so there are L^(n-1) legs;
* the first axis is cut by 2L^(n-1) points s_i with spacing
  (b - a)/(2L^(n-1) - 1); the odd s-cells are the L^(n-1) vertical strips
  that the map carries affinely onto the legs, and the even cells escape.

Each odd strip is expanded by 2L^(n-1) - 1 along the first axis and
contracted by 1/(2L - 1) transversally.  Strips are matched to legs in
boustrophedon (snake) order running from the leg containing (a, ..., a, b)
to the leg containing (b, ..., b, a), which makes those two corners fixed
points with orientation-preserving pieces throughout.

This one step f is not the block's map: block k applies g', f∘f on the L
selected strips (`SubdivisionGrid.selected_strip_indices`), which `square`
builds and `estimate` scans.  At the block's own eps, f tells apart only its
L^(n-1) strips, so f's counts grow by L^(n-1) per step and those of g' by
L^n.  Each of the L^n pieces of g' carries its slab across the whole first
axis, so g' on its invariant set is the full shift on L^n symbols: h_top(g')
= n ln L caps the block's growth at every eps, and escaping points add none.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence

from .geometry import Box, Cube
from .mapping import AffinePiece, PAMap


class SubdivisionGrid(NamedTuple):
    cube: Cube
    n: int
    L: int
    t: tuple[Fraction, ...]
    s: tuple[Fraction, ...]

    @property
    def strip_count(self) -> int:
        return 2 * self.L ** (self.n - 1) - 1

    @property
    def leg_cell_count(self) -> int:
        return 2 * self.L - 1

    def odd_strip_indices(self) -> list[int]:
        return list(range(1, self.strip_count + 1, 2))

    def selected_strip_indices(self) -> list[int]:
        """Every L^(n-2)-th odd strip, L of them, each 2 L^(n-2) - 1 s-cells (at
        least one eps) from the next: the first strips of `square`'s pieces and
        of `estimate`'s cylinders.  At n = 2 every odd strip is selected."""
        return self.odd_strip_indices()[:: self.L ** (self.n - 2)]

    def strip_box(self, l: int) -> Box:
        if not 1 <= l <= self.strip_count:
            raise ValueError(f"strip index {l} out of range")
        first = (self.s[l - 1], self.s[l])
        rest = ((self.cube.lo, self.cube.hi),) * (self.n - 1)
        return Box((first,) + rest)

    def leg_box(self, index: tuple[int, ...]) -> Box:
        if len(index) != self.n - 1:
            raise ValueError("leg index needs one entry per transverse axis")
        ivs = [(self.cube.lo, self.cube.hi)]
        for i in index:
            if not 1 <= i <= self.leg_cell_count:
                raise ValueError(f"t-cell index {i} out of range")
            ivs.append((self.t[i - 1], self.t[i]))
        return Box(ivs)

    def odd_leg_indices(self) -> list[tuple[int, ...]]:
        odd = range(1, self.leg_cell_count + 1, 2)
        return list(itertools.product(odd, repeat=self.n - 1))


def subdivide(cube: Cube, L: int) -> SubdivisionGrid:
    """Cut the cube into the t/s grids for an L-leg horseshoe."""
    n = cube.dim
    if n < 2:
        raise ValueError("horseshoes need dimension n >= 2")
    if L < 3 or L % 2 == 0:
        raise ValueError("leg count L must be odd and >= 3")
    side = cube.side
    t = tuple(cube.lo + side * j / (2 * L - 1) for j in range(2 * L))
    m = 2 * L ** (n - 1)
    s = tuple(cube.lo + side * i / (m - 1) for i in range(m))
    return SubdivisionGrid(cube, n, L, t, s)


def boustrophedon_legs(L: int, n: int) -> list[tuple[int, ...]]:
    """Odd leg indices in snake order from (1, ..., 1, 2L-1) to (2L-1, ..., 2L-1, 1).

    A mixed-radix counter is decoded with direction flips on each axis
    (reversed whenever the more significant digits sum to an odd value), and
    the final axis is mirrored so the walk starts at the top of the last
    coordinate.  Consecutive entries differ by one cell on one axis.
    """
    axes = n - 1
    order = []
    for counter in itertools.product(range(L), repeat=axes):
        pos = []
        prefix = 0
        for j, c in enumerate(counter):
            p = c if prefix % 2 == 0 else L - 1 - c
            if j == axes - 1:
                p = L - 1 - p
            pos.append(p)
            prefix += c
        order.append(tuple(2 * p + 1 for p in pos))
    return order


class _HorseshoeFields(NamedTuple):
    grid: SubdivisionGrid
    assignment: tuple[tuple[int, tuple[int, ...]], ...]  # (odd strip, leg index)
    pamap: PAMap


class HorseshoeMap(_HorseshoeFields):
    def word_interval(self, word: Sequence[int]) -> tuple[Fraction, Fraction]:
        """First-axis interval of the points whose unsquared itinerary visits
        the (unchecked) strips of `word` in order.

        Strip l maps x to lo + kappa (x - s[l-1]), so the interval is
        lo + side [A, A + 1] / kappa^len(word), where A reads the digits
        l - 1 in base kappa = `grid.strip_count`, the first strip most
        significant.
        """
        kappa, base, step, den = self.word_lattice
        digits = 0
        for l in word:
            digits = digits * kappa + l - 1
        scale = kappa ** len(word)
        base, den = base * scale + step * digits, den * scale
        return Fraction(base, den), Fraction(base + step, den)

    @cached_property
    def word_lattice(self) -> tuple[int, int, int, int]:
        """(kappa, lo.n side.d, side.n lo.d, lo.d side.d): lo and side over
        one denominator, which `word_interval` scales by kappa^len(word)."""
        lo, side = self.grid.cube.lo, self.grid.cube.side
        return (self.grid.strip_count, lo.numerator * side.denominator,
                side.numerator * lo.denominator, lo.denominator * side.denominator)

    @cached_property
    def leg_cells(self) -> dict[tuple[int, ...], tuple[tuple[Fraction, Fraction], ...]]:
        """Odd leg -> its transverse t-cells, the axes of its box after the first."""
        t = self.grid.t
        return {leg: tuple((t[i - 1], t[i]) for i in leg) for leg in self.grid.odd_leg_indices()}

    @cached_property
    def leg_of(self) -> dict[int, tuple[int, ...]]:
        """Strip -> leg; for a malformed assignment the first entry wins."""
        return {l: leg for l, leg in reversed(self.assignment)}

    @cached_property
    def strip_of(self) -> dict[tuple[int, ...], int]:
        return {leg: l for l, leg in reversed(self.assignment)}


def _strip_piece(grid: SubdivisionGrid, l: int, leg: tuple[int, ...]) -> AffinePiece:
    lo, kappa, eta = grid.cube.lo, grid.strip_count, grid.leg_cell_count
    scale = (Fraction(kappa),) + (Fraction(1, eta),) * len(leg)
    offset = (lo - grid.s[l - 1] * kappa,) + tuple(grid.t[i - 1] - lo / eta for i in leg)
    return AffinePiece(grid.strip_box(l), scale, offset)


def build_horseshoe(cube: Cube, L: int) -> HorseshoeMap:
    """The canonical L-leg horseshoe on the cube: odd strips in increasing
    order matched to legs in boustrophedon order."""
    grid = subdivide(cube, L)
    assignment = tuple(zip(grid.odd_strip_indices(), boustrophedon_legs(L, grid.n)))
    pieces = tuple(_strip_piece(grid, l, leg) for l, leg in assignment)
    return HorseshoeMap(grid, assignment, PAMap(cube, pieces))


def square(h: HorseshoeMap) -> PAMap:
    """The block map g', f∘f on the selected strips, as an explicit
    piecewise-affine map.

    One piece per pair (l, l') of a selected strip l and an odd strip l': its
    domain is the part of strip l that lands in strip l' after one
    application, and the piece is the exact composition of the two strip
    maps, the map's own pieces, which `build_horseshoe` lists in `assignment`
    order.  Full crossing makes that domain the word (l, l')'s `word_interval`
    times the cube's transverse sides, so there are L x L^(n-1) = L^n pieces.
    Points of the other strips escape.
    """
    grid = h.grid
    by_strip = {l: piece for (l, _), piece in zip(h.assignment, h.pamap.pieces)}
    transverse = ((grid.cube.lo, grid.cube.hi),) * (grid.n - 1)
    pieces = tuple(
        by_strip[l].then(second, Box((h.word_interval((l, l2)),) + transverse))
        for l in grid.selected_strip_indices()
        for l2, second in by_strip.items()
    )
    return PAMap(grid.cube, pieces)
