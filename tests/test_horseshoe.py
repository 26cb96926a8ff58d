"""Tests for the horseshoe construction, its validator, and its square.

The `mutant_*` builders at module level each deform the canonical 3-leg map
on the unit square in one specific way; `MUTANTS` maps their names to the
validator checks that must catch them.  The acceptance suite reuses these.
"""

import itertools
from fractions import Fraction

import pytest

from mmdim.horseshoe import (
    HorseshoeMap,
    _strip_piece,
    boustrophedon_legs,
    build_horseshoe,
    square,
    subdivide,
)
from mmdim.mapping import ESCAPED, AffinePiece, PAMap
from mmdim.validation import validate_horseshoe
from oracles import (
    apply_map,
    box_center,
    box_contains,
    box_intersect,
    box_of,
    cube_of,
    leg_for_strip,
)

F = Fraction

UNIT = cube_of(0, 1, 2)


class TestSubdivide:
    def test_unit_square_three_legs(self, unit_square_h):
        grid = unit_square_h.grid
        assert grid.strip_count == 5
        assert grid.leg_cell_count == 5
        assert grid.t == tuple(F(i, 5) for i in range(6))
        assert grid.s == tuple(F(i, 5) for i in range(6))
        assert grid.odd_strip_indices() == [1, 3, 5]
        assert grid.odd_leg_indices() == [(1,), (3,), (5,)]

    def test_five_legs_grid(self):
        grid = subdivide(UNIT, 5)
        assert grid.strip_count == 9
        assert len(grid.odd_strip_indices()) == 5
        assert len(grid.odd_leg_indices()) == 5
        assert grid.t == tuple(F(i, 9) for i in range(10))

    def test_three_dimensional_grid(self):
        grid = subdivide(cube_of(0, 1, 3), 3)
        assert grid.strip_count == 17
        assert len(grid.odd_leg_indices()) == 9
        assert grid.strip_box(1) == box_of((0, F(1, 17)), (0, 1), (0, 1))
        assert grid.leg_box((1, 5)) == box_of((0, 1), (0, F(1, 5)), (F(4, 5), 1))

    def test_offset_cube(self):
        # same proportions on [1/3, 2/3]^2
        grid = subdivide(cube_of(F(1, 3), F(2, 3), 2), 3)
        assert grid.t[0] == F(1, 3) and grid.t[-1] == F(2, 3)
        assert grid.t[1] - grid.t[0] == F(1, 15)

    def test_strip_boxes_tile_the_cube(self):
        grid = subdivide(UNIT, 3)
        cells = [grid.strip_box(l)[0] for l in range(1, grid.strip_count + 1)]
        assert sum(hi - lo for lo, hi in cells) == 1
        assert all(a[1] == b[0] for a, b in zip(cells, cells[1:]))
        assert grid.odd_strip_indices() == [1, 3, 5]

    def test_index_range_errors(self):
        grid = subdivide(UNIT, 3)
        with pytest.raises(ValueError, match="out of range"):
            grid.strip_box(6)
        with pytest.raises(ValueError, match="out of range"):
            grid.leg_box((7,))
        with pytest.raises(ValueError, match="transverse"):
            grid.leg_box((1, 1))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="odd"):
            subdivide(UNIT, 4)
        with pytest.raises(ValueError, match="odd"):
            subdivide(UNIT, 1)
        with pytest.raises(ValueError, match="n >= 2"):
            subdivide(cube_of(0, 1, 1), 3)


class TestSelectedStrips:
    @staticmethod
    def selected(L, n):
        return subdivide(cube_of(0, 1, n), L).selected_strip_indices()

    def test_planar_selects_all_odd(self):
        assert self.selected(3, 2) == [1, 3, 5]
        assert self.selected(5, 2) == [1, 3, 5, 7, 9]
        assert self.selected(9, 2) == [1, 3, 5, 7, 9, 11, 13, 15, 17]

    def test_higher_dimension_strides(self):
        assert self.selected(3, 3) == [1, 7, 13]
        assert self.selected(5, 3) == [1, 11, 21, 31, 41]

    def test_gaps_beat_eps(self):
        # consecutive selected strips of the unit-cube block leave a gap of
        # at least eps = side/(2L - 1) edge to edge, so their centers are
        # strictly separated
        for L in (3, 5, 7):
            for n in (2, 3):
                grid = subdivide(cube_of(0, 1, n), L)
                chosen = grid.selected_strip_indices()
                assert len(chosen) == L and chosen[-1] <= grid.strip_count
                eps = F(1, 2 * L - 1)
                for a, b in zip(chosen, chosen[1:]):
                    gap = grid.strip_box(b)[0][0] - grid.strip_box(a)[0][1]
                    assert gap >= eps
                    centers = box_center(grid.strip_box(b))[0] - box_center(grid.strip_box(a))[0]
                    assert centers > eps

    def test_count_is_three_to_the_k(self):
        # the default leg schedule L_k = 3^k selects 3^k strips
        for k in (1, 2, 3):
            assert len(self.selected(3**k, 4)) == 3**k


class TestBoustrophedon:
    def test_planar_order_descends(self):
        assert boustrophedon_legs(3, 2) == [(5,), (3,), (1,)]
        assert boustrophedon_legs(5, 2) == [(9,), (7,), (5,), (3,), (1,)]

    def test_three_dimensional_snake(self):
        order = boustrophedon_legs(3, 3)
        assert order[0] == (1, 5)
        assert order[-1] == (5, 1)
        assert sorted(order) == sorted(itertools.product((1, 3, 5), repeat=2))

    @pytest.mark.parametrize("L,n", [(3, 2), (5, 2), (3, 3), (5, 3), (3, 4)])
    def test_consecutive_entries_adjacent(self, L, n):
        order = boustrophedon_legs(L, n)
        assert len(order) == L ** (n - 1)
        assert len(set(order)) == len(order)
        assert order[0] == (1,) * (n - 2) + (2 * L - 1,)
        assert order[-1] == (2 * L - 1,) * (n - 2) + (1,)
        for a, b in zip(order, order[1:]):
            diffs = [abs(x - y) for x, y in zip(a, b)]
            assert sorted(diffs) == [0] * (n - 2) + [2]


class TestBuildHorseshoe:
    def test_piece_scales(self, unit_square_h):
        assert unit_square_h.grid.strip_count == 5
        assert unit_square_h.grid.leg_cell_count == 5
        for piece in unit_square_h.pamap.pieces:
            assert piece.scale == (F(5), F(1, 5))

    def test_three_dimensional_scales(self):
        h = build_horseshoe(cube_of(0, 1, 3), 3)
        assert h.grid.strip_count == 17
        for piece in h.pamap.pieces:
            assert piece.scale == (F(17), F(1, 5), F(1, 5))

    def test_assignment_lookup(self, unit_square_h):
        assert leg_for_strip(unit_square_h, 1) == (5,)
        assert unit_square_h.strip_of[(5,)] == 1
        with pytest.raises(KeyError):
            leg_for_strip(unit_square_h, 2)
        assert (2,) not in unit_square_h.strip_of

    def test_corners_fixed(self, unit_square_h):
        assert apply_map(unit_square_h.pamap, (F(0), F(1))) == (F(0), F(1))
        assert apply_map(unit_square_h.pamap, (F(1), F(0))) == (F(1), F(0))

    def test_corners_fixed_in_dimension_three(self):
        h = build_horseshoe(cube_of(0, 1, 3), 3)
        for corner in [(F(0), F(0), F(1)), (F(1), F(1), F(0))]:
            assert apply_map(h.pamap, corner) == corner

    def test_legs_fill_transverse_fraction(self):
        # the legs occupy L^(n-1) of the (2L-1)^(n-1) transverse cells
        for L, n in [(3, 2), (3, 3), (5, 2)]:
            h = build_horseshoe(cube_of(0, 1, n), L)
            total = sum(prod_volume(h.grid.leg_box(leg)) for _, leg in h.assignment)
            assert total == F(L, 2 * L - 1) ** (n - 1)

    @pytest.mark.parametrize("L", [3, 5, 9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_validator_passes_canonical_builds(self, L, n):
        h = build_horseshoe(cube_of(0, 1, n), L)
        checks = validate_horseshoe(h)
        assert [c for c in checks if not c.passed] == []
        assert len(checks) == 10

    def test_validator_passes_offset_cube(self):
        h = build_horseshoe(cube_of(F(-1, 2), F(3, 4), 2), 3)
        assert all(c.passed for c in validate_horseshoe(h))


def prod_volume(box) -> Fraction:
    """Transverse volume: product of widths over all axes but the first."""
    out = F(1)
    for lo, hi in box[1:]:
        out *= hi - lo
    return out


# --- canonical mutants ------------------------------------------------------
#
# Each builder returns a deliberately broken 3-leg map on the unit square.


def _canonical_parts():
    grid = subdivide(UNIT, 3)
    assignment = tuple(zip(grid.odd_strip_indices(), boustrophedon_legs(3, 2)))
    return grid, assignment


def mutant_duplicate_leg() -> HorseshoeMap:
    """Two strips share one leg, so the assignment is not a bijection."""
    grid, _ = _canonical_parts()
    assignment = ((1, (5,)), (3, (5,)), (5, (1,)))
    pieces = tuple(_strip_piece(grid, l, leg) for l, leg in assignment)
    return HorseshoeMap(grid, assignment, PAMap(grid.cube, pieces))


def mutant_weak_expansion() -> HorseshoeMap:
    """First-axis scale one short of 2L^(n-1)-1: strips no longer cross."""
    grid, assignment = _canonical_parts()
    pieces = []
    for l, leg in assignment:
        good = _strip_piece(grid, l, leg)
        scale = (good.scale[0] - 1,) + good.scale[1:]
        offset = (grid.cube.lo - grid.s[l - 1] * scale[0],) + good.offset[1:]
        pieces.append(AffinePiece(good.domain, scale, offset))
    return HorseshoeMap(grid, assignment, PAMap(grid.cube, tuple(pieces)))


def mutant_shifted_legs() -> HorseshoeMap:
    """Transverse offsets nudged by 1/25: images miss the legs."""
    grid, assignment = _canonical_parts()
    pieces = []
    for l, leg in assignment:
        good = _strip_piece(grid, l, leg)
        offset = (good.offset[0], good.offset[1] + F(1, 25))
        pieces.append(AffinePiece(good.domain, good.scale, offset))
    return HorseshoeMap(grid, assignment, PAMap(grid.cube, tuple(pieces)))


def mutant_covered_gap() -> HorseshoeMap:
    """An extra identity piece sits on an even strip, killing the escape."""
    grid, assignment = _canonical_parts()
    pieces = [_strip_piece(grid, l, leg) for l, leg in assignment]
    pieces.append(AffinePiece(grid.strip_box(2), (F(1), F(1)), (F(0), F(0))))
    return HorseshoeMap(grid, assignment, PAMap(grid.cube, tuple(pieces)))


def mutant_swapped_corner_legs() -> HorseshoeMap:
    """First and last strips trade legs: both corners stop being fixed."""
    grid, _ = _canonical_parts()
    assignment = ((1, (1,)), (3, (3,)), (5, (5,)))
    pieces = tuple(_strip_piece(grid, l, leg) for l, leg in assignment)
    return HorseshoeMap(grid, assignment, PAMap(grid.cube, pieces))


def mutant_pieces_reversed() -> HorseshoeMap:
    """The right pieces in reverse order: `square` composes each assignment
    entry's strip word with the piece at the entry's position."""
    grid, assignment = _canonical_parts()
    pieces = tuple(_strip_piece(grid, l, leg) for l, leg in reversed(assignment))
    return HorseshoeMap(grid, assignment, PAMap(grid.cube, pieces))


def mutant_missing_piece() -> HorseshoeMap:
    """The last strip has no piece: its points escape instead of crossing."""
    grid, assignment = _canonical_parts()
    pieces = tuple(_strip_piece(grid, l, leg) for l, leg in assignment[:-1])
    return HorseshoeMap(grid, assignment, PAMap(grid.cube, pieces))


MUTANTS = {
    "duplicate leg": (
        mutant_duplicate_leg,
        {"strip-to-leg assignment is a bijection"},
    ),
    "weak expansion": (
        mutant_weak_expansion,
        {"each strip maps onto its assigned leg", "every leg crosses the full first axis"},
    ),
    "shifted legs": (
        mutant_shifted_legs,
        {"each strip maps onto its assigned leg"},
    ),
    "covered gap": (
        mutant_covered_gap,
        {"one piece per odd strip", "even strips escape (no piece covers them)"},
    ),
    "swapped corner legs": (
        mutant_swapped_corner_legs,
        {"corner (a,...,a,b) is fixed", "corner (b,...,b,a) is fixed"},
    ),
    "pieces reversed": (
        mutant_pieces_reversed,
        {"piece domains are exactly the odd strips"},
    ),
    "missing piece": (
        mutant_missing_piece,
        {"one piece per odd strip", "piece domains are exactly the odd strips"},
    ),
}


class TestValidatorCatchesMutants:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_fails_named_checks(self, name):
        builder, expected_failures = MUTANTS[name]
        failed = {c.name for c in validate_horseshoe(builder()) if not c.passed}
        assert failed
        assert expected_failures <= failed, (
            f"{name}: wanted {expected_failures} among failures {failed}"
        )


class TestSquare:
    def test_piece_count(self, unit_square_h):
        assert len(square(unit_square_h).pieces) == 9

    def test_matches_two_applications(self, unit_square_h):
        sq = square(unit_square_h)
        pm = unit_square_h.pamap
        pts = [
            (F(i, 23), F(j, 17)) for i in range(0, 24, 3) for j in range(0, 18, 4)
        ]
        for p in pts:
            twice = apply_map(pm, apply_map(pm, p))
            got = apply_map(sq, p)
            if twice is ESCAPED:
                assert got is ESCAPED
            else:
                assert got == twice

    def test_corner_fixed(self, unit_square_h):
        sq = square(unit_square_h)
        assert apply_map(sq, (F(0), F(1))) == (F(0), F(1))

    def test_full_crossing_domains(self, unit_square_h):
        # each square piece lives inside one strip and is sent into another;
        # all 3 x 3 ordered pairs occur
        sq = square(unit_square_h)
        grid = unit_square_h.grid
        pairs = set()
        for piece in sq.pieces:
            src = next(
                l
                for l in grid.odd_strip_indices()
                if box_intersect(grid.strip_box(l), piece.domain) == piece.domain
            )
            mid = apply_map(unit_square_h.pamap, box_center(piece.domain))
            dst = next(
                l
                for l in grid.odd_strip_indices()
                if box_contains(grid.strip_box(l), mid)
            )
            pairs.add((src, dst))
        assert pairs == set(itertools.product((1, 3, 5), repeat=2))

    def test_composes_the_maps_own_pieces(self):
        # a map whose pieces are not the canonical strip maps is squared as built
        h = mutant_shifted_legs()
        pieces = h.pamap.pieces
        assert [(p.scale, p.offset) for p in square(h).pieces] == [
            (q.scale, q.offset) for q in (a.then(b, a.domain) for a in pieces for b in pieces)]

    def test_square_scales(self, unit_square_h):
        for piece in square(unit_square_h).pieces:
            assert piece.scale == (F(25), F(1, 25))
