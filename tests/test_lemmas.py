"""The entropy cap: g' = square(h) has L^n pieces, each across the first axis, so h_top(g') = n ln L.

Each row of the lemma table checks one statement behind a verdict with the
repository's exact code.  Row 1 feeds every profile row's rate n ln L_k
(`verify`, `profile` and `estimate`'s expected counts).  It binds where the
map on every odd strip would grow faster than that rate: at n >= 3, where f∘f
on all L^(n-1) odd strips has L^(2(n-1)) > L^n pieces, and its separated
counts at small eps pass L^(n m), as the witness below shows on block 1 of
the n = 3 geometric schedule.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from mmdim.constructions import Schedule, build_stacked
from mmdim.estimators import cylinder_centers, greedy_separated
from mmdim.horseshoe import build_horseshoe, square
from mmdim.symbolic import cylinder_geometry
from oracles import box_center, cube_of, seed_set, unrestricted_square

F = Fraction


def first_strip(grid, piece) -> int:
    """The odd strip whose slab holds the piece's domain."""
    lo, hi = piece.domain[0]
    return next(l for l in grid.odd_strip_indices() if grid.s[l - 1] <= lo and hi <= grid.s[l])


class TestEntropyCap:
    @pytest.mark.parametrize("n,L", [(2, 3), (3, 3), (4, 3), (3, 9)])
    def test_the_block_map_has_l_to_the_n_pieces_that_cross_the_first_axis(self, n, L):
        h = build_horseshoe(cube_of(F(1, 3), F(4, 5), n), L)
        grid, pieces = h.grid, square(h).pieces
        assert len(pieces) == L**n
        firsts = Counter(first_strip(grid, piece) for piece in pieces)
        assert sorted(firsts) == grid.selected_strip_indices()
        assert set(firsts.values()) == {L ** (n - 1)}
        for piece in pieces:
            assert piece.map_box(piece.domain)[0] == (grid.cube.lo, grid.cube.hi)

    @pytest.mark.parametrize("m", [1, 2])
    def test_every_odd_strip_first_outgrows_the_rate(self, m):
        # the defect the selection mends: at eps_1 / 6, f∘f on every odd
        # strip keeps all 81^m centers of the every-strip cylinders, while
        # g' keeps the L^(n m) = 27^m selected centers that the row's rate
        # n ln L counts
        schedule = Schedule.geometric(1, 1)
        h = build_stacked(schedule, 3, 1).block(1).geometry()
        eps = schedule.eps(1) / 6
        assert eps == F(1, 90)
        steps = itertools.product(h.grid.odd_strip_indices(), h.grid.odd_leg_indices())
        seeds = seed_set(box_center(cylinder_geometry(h, word))
                         for word in itertools.product(list(steps), repeat=m))
        assert len(greedy_separated(unrestricted_square(h), seeds, m, eps).chosen) == 81**m
        kept = greedy_separated(square(h), cylinder_centers(h, m), m, eps).chosen
        assert len(kept) == 27**m
