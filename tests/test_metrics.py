"""Tests for the exact Bowen metric layer."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mmdim.mapping import ESCAPED
from mmdim.estimators import greedy_separated, orbits_separate
from oracles import bowen_distance, box_center, dist_maxnorm, map_orbit, seed_set

F = Fraction

coord = st.fractions(min_value=F(0), max_value=F(1), max_denominator=50)
point2 = st.tuples(coord, coord)


class TestPointDistances:
    def test_maxnorm_example(self):
        assert dist_maxnorm((F(0), F(0)), (F(1, 5), F(2, 5))) == F(2, 5)

    @given(point2, point2)
    def test_symmetry(self, x, y):
        assert dist_maxnorm(x, y) == dist_maxnorm(y, x)

    @given(point2, point2)
    def test_zero_iff_equal(self, x, y):
        assert (dist_maxnorm(x, y) == 0) == (x == y)

    @given(point2, point2, point2)
    def test_maxnorm_triangle(self, x, y, z):
        assert dist_maxnorm(x, z) <= dist_maxnorm(x, y) + dist_maxnorm(y, z)

    @given(point2, point2)
    def test_maxnorm_squared_bounds_euclid_sq(self, x, y):
        # in dimension 2: d_max^2 <= d_2^2 <= 2 d_max^2, so the two norms give
        # the same metric mean dimension and the max norm is the only one used
        a = dist_maxnorm(x, y) ** 2
        b = sum((p - q) ** 2 for p, q in zip(x, y))
        assert a <= b <= 2 * a


class TestCompareSeparation:
    """Separation is the strict test d > eps, decided exactly."""

    def test_boundary_pair_is_exactly_at_eps(self):
        # diagonal-displaced pair: the maxnorm distance hits eps exactly, so
        # under the strict test the pair is not separated
        x, y = (F(1, 5), F(0)), (F(0), F(1, 5))
        eps = F(1, 5)
        assert dist_maxnorm(x, y) == eps
        assert not orbits_separate([x], [y], [eps])

    def test_strictness(self):
        at, past = (F(1, 5), F(0)), (F(1, 5) + F(1, 1000), F(0))
        origin = (F(0), F(0))
        assert not orbits_separate([at], [origin], [F(1, 5)])
        assert orbits_separate([past], [origin], [F(1, 5)])

    def test_rejects_nonpositive_eps(self, unit_square_h):
        seeds = seed_set([(F(1, 2), F(1, 2))])
        for eps in (F(0), F(-1, 5)):
            with pytest.raises(ValueError, match="positive"):
                greedy_separated(unit_square_h.pamap, seeds, 1, eps)


class TestBowenDistance:
    def test_m1_equals_plain_distance(self, unit_square_h):
        pm = unit_square_h.pamap
        x, y = (F(1, 10), F(1, 2)), (F(1, 2), F(1, 2))
        d = bowen_distance(pm, x, y, 1)
        assert d.value == F(2, 5) == dist_maxnorm(x, y)
        assert d.steps == 1 and not d.truncated

    def test_equal_points_stay_at_zero(self, unit_square_h):
        p = (F(1, 10), F(1, 2))
        d = bowen_distance(unit_square_h.pamap, p, p, 3)
        assert d.value == 0 and d.steps == 3

    def test_matches_orbit_oracle(self, unit_square_h):
        # the Bowen value is the max of the per-step distances, recomputed
        # here straight from the two orbits; both points sit in the first
        # strip so one application multiplies their gap by 5
        pm = unit_square_h.pamap
        x, y = (F(1, 10), F(1, 2)), (F(3, 20), F(1, 2))
        m = 2
        ox, oy = map_orbit(pm, x, m - 1), map_orbit(pm, y, m - 1)
        assert all(s is not ESCAPED for s in ox + oy)
        expected = max(dist_maxnorm(a, b) for a, b in zip(ox, oy))
        got = bowen_distance(pm, x, y, m)
        assert got.value == expected
        assert got.value > dist_maxnorm(x, y)  # expansion kicked in

    def test_truncated_when_an_orbit_escapes(self, unit_square_h):
        pm = unit_square_h.pamap
        even_mid = box_center(unit_square_h.grid.strip_box(2))
        d = bowen_distance(pm, even_mid, (F(1, 2), F(1, 2)), 4)
        assert d.truncated and d.steps == 1
        assert d.value == dist_maxnorm(even_mid, (F(1, 2), F(1, 2)))

    def test_rejects_m_below_one(self, unit_square_h):
        with pytest.raises(ValueError, match="m >= 1"):
            bowen_distance(unit_square_h.pamap, (F(0), F(0)), (F(1), F(1)), 0)

    def test_rejects_dimension_mismatch(self, unit_square_h):
        with pytest.raises(ValueError, match="dimension"):
            bowen_distance(unit_square_h.pamap, (F(0),), (F(1),), 1)

    @given(point2, point2, st.integers(min_value=1, max_value=5))
    def test_symmetric(self, unit_square_h, x, y, m):
        pm = unit_square_h.pamap
        assert bowen_distance(pm, x, y, m) == bowen_distance(pm, y, x, m)

    @given(point2, point2, st.integers(min_value=1, max_value=5))
    def test_nondecreasing_in_m(self, unit_square_h, x, y, m):
        # a longer time horizon can only add steps to the max, even when an
        # orbit escapes (the surviving prefix never shrinks)
        pm = unit_square_h.pamap
        assert bowen_distance(pm, x, y, m + 1).value >= bowen_distance(pm, x, y, m).value

    @given(point2, point2, point2, st.integers(min_value=1, max_value=4))
    def test_triangle_inequality_maxnorm(self, unit_square_h, x, y, z, m):
        # the triangle inequality is only claimed on the survivor stratum:
        # once a pair truncates, its value is a prefix max over fewer steps
        # and can undershoot (see test_truncation_breaks_triangle)
        pm = unit_square_h.pamap
        dxz = bowen_distance(pm, x, z, m)
        dxy = bowen_distance(pm, x, y, m)
        dyz = bowen_distance(pm, y, z, m)
        if not (dxz.truncated or dxy.truncated or dyz.truncated):
            assert dxz.value <= dxy.value + dyz.value

    def test_truncation_breaks_triangle(self, unit_square_h):
        # x and z sit in strip 1 and feel the x5 expansion at step 1; y sits
        # in even strip 2 and escapes immediately, so both distances through
        # y stop at step 0.  The triangle fails, and the truncated flags on
        # the two short legs are the advertised warning.
        pm = unit_square_h.pamap
        x, z, y = (F(9, 50), F(1, 2)), (F(7, 50), F(1, 2)), (F(11, 50), F(1, 2))
        dxz = bowen_distance(pm, x, z, 2)
        dxy = bowen_distance(pm, x, y, 2)
        dyz = bowen_distance(pm, y, z, 2)
        assert dxz.value == F(1, 5) and not dxz.truncated
        assert dxy.truncated and dyz.truncated
        assert dxz.value > dxy.value + dyz.value


class TestOrbitsSeparate:
    def test_escaped_prefix_only(self):
        ox = [(F(0), F(0)), ESCAPED]
        oy = [(F(1), F(1)), (F(0), F(0))]
        assert orbits_separate(ox, oy, [F(1, 2)] * 2)
        assert not orbits_separate([ESCAPED], [(F(0), F(0))], [F(1, 100)])

    @given(point2, point2, st.integers(min_value=1, max_value=4))
    def test_agrees_with_bowen_distance(self, unit_square_h, x, y, m):
        pm = unit_square_h.pamap
        eps = F(1, 5)
        ox, oy = map_orbit(pm, x, m - 1), map_orbit(pm, y, m - 1)
        want = bowen_distance(pm, x, y, m).value > eps
        assert orbits_separate(ox, oy, [eps] * m) == want
