"""Tests for affine pieces, piecewise maps, and escape semantics.

The map steps integer numerators over a denominator; `apply_map`,
`map_orbit` and `piece_at` (tests/oracles.py) take and give `Fraction`
points through that lattice path.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mmdim.mapping import ESCAPED, AffinePiece, PAMap
from oracles import (
    apply_map,
    box_center,
    box_contains,
    box_of,
    cube_of,
    leg_for_strip,
    map_orbit,
    piece_at,
    piece_image,
)

F = Fraction


def unit_box(dim=2):
    return box_of(*(((0, 1),) * dim))


def identity_map(dim=2) -> PAMap:
    piece = AffinePiece(unit_box(dim), (F(1),) * dim, (F(0),) * dim)
    return PAMap(cube_of(0, 1, dim), (piece,))


class TestEscaped:
    def test_singleton(self):
        from mmdim.mapping import _Escaped

        assert _Escaped() is ESCAPED

    def test_orbit_ends_at_escape(self):
        # (2, 2) lies outside the cube: it escapes at step 1, so its orbit is
        # its one state
        m = identity_map()
        assert m.apply((2, 2), 1) is ESCAPED
        assert m.orbit((2, 2), 3, 1) == [(2, 2)]


class TestAffinePiece:
    def test_apply_point(self):
        piece = AffinePiece(unit_box(), (F(3), F(1, 5)), (F(-1), F(2, 5)))
        assert piece_image(piece, (F(1, 2), F(0))) == (F(1, 2), F(2, 5))
        # S = 5: the point (1, 0) over 2 lands over 10 as (5, 4)
        pamap = PAMap(cube_of(0, 1, 2), (piece,))
        assert pamap.step_den == 5 and pamap.apply((1, 0), 2) == (5, 4)
        assert apply_map(pamap, (F(1, 2), F(0))) == (F(1, 2), F(2, 5))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions disagree"):
            AffinePiece(unit_box(2), (F(1),), (F(0), F(0)))

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            AffinePiece(unit_box(2), (F(1), F(0)), (F(0), F(0)))

    def test_image_box_orientation_flip(self):
        # x -> 1 - 2x sends [0, 1] onto [-1, 1] with endpoints swapped
        piece = AffinePiece(unit_box(), (F(-2), F(1, 2)), (F(1), F(0)))
        assert piece.map_box(piece.domain) == box_of((-1, 1), (0, F(1, 2)))

    def test_map_box_not_clipped(self):
        piece = AffinePiece(unit_box(), (F(2), F(2)), (F(0), F(0)))
        big = box_of((0, 3), (1, 2))
        assert piece.map_box(big) == box_of((0, 6), (2, 4))

    def test_then_matches_pointwise_composition(self):
        first = AffinePiece(unit_box(), (F(5), F(1, 5)), (F(0), F(2, 5)))
        second = AffinePiece(unit_box(), (F(-5), F(1, 5)), (F(5), F(0)))
        comp = first.then(second, first.domain)
        for p in [(F(0), F(0)), (F(1, 7), F(2, 3)), (F(1), F(1))]:
            assert piece_image(comp, p) == piece_image(second, piece_image(first, p))

    @given(
        st.tuples(
            st.fractions(min_value=F(0), max_value=F(1), max_denominator=30),
            st.fractions(min_value=F(0), max_value=F(1), max_denominator=30),
        )
    )
    def test_image_box_contains_images_of_domain_points(self, point):
        piece = AffinePiece(unit_box(), (F(-3), F(1, 7)), (F(2), F(-1)))
        assert box_contains(piece.map_box(piece.domain), piece_image(piece, point))


class TestPAMap:
    def test_identity_map_fixes_points(self):
        m = identity_map()
        p = (F(1, 3), F(1, 2))
        assert apply_map(m, p) == p
        assert map_orbit(m, p, 4) == [p] * 5

    def test_overlapping_domains_rejected(self):
        a = AffinePiece(box_of((0, F(1, 2)), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        b = AffinePiece(box_of((F(1, 4), 1), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        nested = AffinePiece(box_of((F(1, 4), F(1, 3)), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        for pieces in [(a, b), (b, a), (a, nested), (nested, a)]:
            with pytest.raises(ValueError, match="piece domains 0 and 1 have overlapping"):
                PAMap(cube_of(0, 1, 2), pieces)

    def test_touching_domains_allowed(self):
        a = AffinePiece(box_of((0, F(1, 2)), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        b = AffinePiece(box_of((F(1, 2), 1), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        m = PAMap(cube_of(0, 1, 2), (a, b))
        assert len(m.pieces) == 2

    def test_piece_dimension_mismatch_rejected(self):
        piece = AffinePiece(unit_box(3), (F(1),) * 3, (F(0),) * 3)
        with pytest.raises(ValueError, match="ambient"):
            PAMap(cube_of(0, 1, 2), (piece,))

    @pytest.mark.parametrize("domain", [
        box_of((0, F(1, 2)), (0, F(1, 2))),        # short of the cube transversally
        box_of((0, F(1, 2)), (F(-1, 2), 1)),       # beyond it
        box_of((0, F(1, 2)), (F(1, 3), F(2, 3))),  # inside it
    ])
    def test_non_slab_domain_rejected(self, domain):
        piece = AffinePiece(domain, (F(1), F(1)), (F(0), F(0)))
        with pytest.raises(ValueError, match="piece domain 0 is not a slab"):
            PAMap(cube_of(0, 1, 2), (piece,))

    def test_zero_width_slab_rejected(self):
        wide = AffinePiece(box_of((0, F(1, 2)), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        flat = AffinePiece(box_of((F(3, 4), F(3, 4)), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        with pytest.raises(ValueError, match="piece domain 1 is not a slab of positive width"):
            PAMap(cube_of(0, 1, 2), (wide, flat))

    def test_shared_end_goes_to_the_lower_slab(self):
        # both pieces contain the shared end x = 1/2 but send it to
        # different places; the lower slab must win, in either piece order
        left = AffinePiece(box_of((0, F(1, 2)), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        right = AffinePiece(box_of((F(1, 2), 1), (0, 1)), (F(1), F(1)), (F(10), F(0)))
        for pieces in [(left, right), (right, left)]:
            m = PAMap(cube_of(0, 1, 2), pieces)
            for y in (F(0), F(1, 3), F(1)):
                assert apply_map(m, (F(1, 2), y)) == (F(1, 2), y)
                assert piece_at(m, (F(1, 2), y)) is left
            assert piece_at(m, (F(1, 2) + F(1, 10**9), F(1, 3))) is right
            assert piece_at(m, (F(1), F(1))) is right

    def test_gap_point_escapes(self):
        piece = AffinePiece(box_of((0, F(1, 3)), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        m = PAMap(cube_of(0, 1, 2), (piece,))
        assert apply_map(m, (F(1, 2), F(1, 2))) is ESCAPED

    def test_point_outside_ambient_escapes(self):
        m = identity_map()
        assert apply_map(m, (F(2), F(2))) is ESCAPED

    def test_orbit_ends_before_escape(self):
        # x -> 3x on [0, 1/3]: the point 1/4 survives one step then escapes
        piece = AffinePiece(box_of((0, F(1, 3)), (0, 1)), (F(3), F(1)), (F(0), F(0)))
        m = PAMap(cube_of(0, 1, 2), (piece,))
        assert map_orbit(m, (F(1, 4), F(0)), 4) == [(F(1, 4), F(0)), (F(3, 4), F(0))]
        assert m.orbit((1, 0), 4, 4) == [(1, 0), (3, 0)]

    def test_orbit_zero_steps(self):
        m = identity_map()
        assert map_orbit(m, (F(1, 2), F(1, 2)), 0) == [(F(1, 2), F(1, 2))]
        assert m.orbit((1, 1), 0, 2) == [(1, 1)]

    def test_orbit_state_t_lies_over_den_times_s_to_the_t(self):
        # x -> (x + 1) / 3 on both axes: S = 3, and state t of an orbit of
        # p / den comes back over den 3^t, the unreduced numerators
        third = AffinePiece(unit_box(), (F(1, 3), F(1, 3)), (F(1, 3), F(1, 3)))
        m = PAMap(cube_of(0, 1, 2), (third,))
        assert m.step_den == 3
        assert m.orbit((0, 2), 2, 2) == [(0, 2), (2, 4), (8, 10)]
        assert map_orbit(m, (F(0), F(1)), 2) == [(F(0), F(1)), (F(1, 3), F(2, 3)),
                                                  (F(4, 9), F(5, 9))]


class TestHorseshoePAMap:
    """Escape and injectivity behavior on the 3-leg unit-square horseshoe."""

    def test_even_strip_points_escape(self, unit_square_h):
        grid = unit_square_h.grid
        pm = unit_square_h.pamap
        for l in range(1, grid.strip_count + 1):
            box = grid.strip_box(l)
            mid = box_center(box)
            # oracle: locate the s-cell of the point directly from the grid
            cell = next(
                i for i in range(1, len(grid.s)) if grid.s[i - 1] <= mid[0] <= grid.s[i]
            )
            assert cell == l
            if l % 2 == 0:
                assert apply_map(pm, mid) is ESCAPED
            else:
                assert apply_map(pm, mid) is not ESCAPED

    def test_injective_within_a_strip(self, unit_square_h):
        pm = unit_square_h.pamap
        lo, hi = unit_square_h.grid.strip_box(3)[0]
        pts = [
            (lo + F(i, 37) * (hi - lo), F(j, 11))
            for i in range(5)
            for j in range(5)
        ]
        images = [apply_map(pm, p) for p in pts]
        assert len(set(images)) == len(pts)

    def test_injective_across_strips(self, unit_square_h):
        # interior points of distinct strips land in distinct legs
        grid = unit_square_h.grid
        pm = unit_square_h.pamap
        images = {}
        for l in grid.odd_strip_indices():
            p = box_center(grid.strip_box(l))
            img = apply_map(pm, p)
            leg = leg_for_strip(unit_square_h, l)
            assert box_contains(grid.leg_box(leg), img)
            images[l] = img
        assert len(set(images.values())) == len(images)
