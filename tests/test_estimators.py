"""Tests for the greedy separated/spanning machinery and numeric profiles."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mmdim import estimators
from mmdim.constructions import (
    ACTIVE_SELF_POWERS,
    GEOMETRY_BUDGET,
    Schedule,
    build_stacked,
)
from mmdim.estimators import (
    CYLINDER_BUDGET,
    cylinder_centers,
    fit_slope,
    greedy_separated,
    mdim_numeric_profile,
)
from mmdim.geometry import Cube
from mmdim.horseshoe import build_horseshoe, square
from mmdim.mapping import AffinePiece, PAMap
from mmdim.symbolic import rate_profile
from oracles import (
    bowen_distance,
    box_center,
    box_of,
    cube_box,
    cube_of,
    map_orbit,
    seed_points,
    seed_set,
)
from system_maps import unit_system

F = Fraction


def identity_pamap(dim=2) -> PAMap:
    box = box_of(*(((0, 1),) * dim))
    return PAMap(cube_of(0, 1, dim), (AffinePiece(box, (F(1),) * dim, (F(0),) * dim),))


def naive_greedy(pamap, seeds, m, eps):
    """Reference scan: keep a seed when its Bowen distance to every point
    kept so far exceeds eps, computed pair by pair from scratch on the
    seeds as `Fraction` points; returns the kept seeds' lattice points."""
    chosen = []
    for p, x in zip(seeds.points, seed_points(seeds)):
        if all(bowen_distance(pamap, x, c, m).value > eps for _, c in chosen):
            chosen.append((p, x))
    return tuple(p for p, _ in chosen)


def measured_growth(pamap, seeds_at, eps, ms):
    """Greedy counts at each depth m, and the least-squares slope and RMS
    residual of ln(count) against m."""
    counts = {m: len(greedy_separated(pamap, seeds_at(m), m, eps).chosen) for m in ms}
    xs, ys = list(counts), [math.log(c) for c in counts.values()]
    slope = fit_slope(xs, ys)
    intercept = sum(ys) / len(ys) - slope * sum(xs) / len(xs)
    residual = (sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys)) / len(xs)) ** 0.5
    return counts, slope, residual


# name -> (cube lo, hi, dim, legs L, squared?) of the maps the hardened
# equivalence property scans: a negative lower corner makes `//` floor
# negative integers, and three axes exceed the two the cells are keyed on
SCAN_MAPS = {
    "unit square, squared": (0, 1, 2, 3, True),
    "[-1, 1]^2": (-1, 1, 2, 3, False),
    "unit cube, n=3": (0, 1, 3, 3, False),
}


@pytest.fixture(scope="module")
def scan_maps():
    out = {}
    for name, (lo, hi, dim, legs, squared) in SCAN_MAPS.items():
        h = build_horseshoe(cube_of(lo, hi, dim), legs)
        out[name] = (square(h) if squared else h.pamap, h.grid)
    return out


def hard_seeds(grid, eps):
    """Up to 40 points mixing three kinds: on a grid of step eps/2 (exact
    ties d == eps on cell boundaries), anywhere in the cube, and in the
    even strips, whose orbits escape at step 1."""
    lo, hi, n = grid.cube.lo, grid.cube.hi, grid.n
    steps = int(grid.cube.side / (eps / 2))
    on_grid = st.integers(0, steps).map(lambda i: lo + i * eps / 2)
    anywhere = st.fractions(min_value=lo, max_value=hi, max_denominator=30)
    evens = [grid.strip_box(l)[0] for l in range(2, grid.strip_count, 2)]
    in_even = st.sampled_from(evens).flatmap(
        lambda iv: st.fractions(min_value=iv[0], max_value=iv[1], max_denominator=60)
    )
    point = st.one_of(
        st.tuples(*[on_grid] * n),
        st.tuples(*[anywhere] * n),
        st.tuples(in_even, *[anywhere] * (n - 1)),
    )
    return st.lists(point, max_size=40)


@st.composite
def leg_cases(draw):
    """(n, L, cube, m): an odd L in 3..11 on a cube of side 1/3^j inside
    [0, 1]^n, at a depth m with at most 2,000 cylinders."""
    n = draw(st.sampled_from((2, 3)))
    L = draw(st.sampled_from(range(3, 12, 2)))
    side = F(1, 3 ** draw(st.integers(0, 4)))
    lo = side * draw(st.integers(0, int(1 / side) - 1))
    m = draw(st.integers(1, max(d for d in (1, 2, 3) if L ** (n * d) <= 2000)))
    return n, L, Cube(lo, lo + side, n), m


class TestSeedSet:
    def test_dedup_and_order(self):
        pts = [(F(1), F(0)), (F(0), F(1)), (F(1), F(0)), (F(0), F(0))]
        seeds = seed_set(pts)
        assert seeds.points == ((0, 0), (0, 1), (1, 0)) and seeds.den == 1
        assert seed_set([(F(1, 2), F(1, 3))]) == (((3, 2),), 6)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(st.tuples(*[st.fractions(-2, 2, max_denominator=60)] * n),
                           max_size=40)))
    def test_matches_sorting_the_fractions(self, pts):
        # lattice points over one den sort and dedup as the Fractions do
        pts += pts[::2]
        assert seed_points(seed_set(pts)) == sorted(set(pts))


class TestCylinderCenters:
    def test_counts(self, geometric_system):
        h = geometric_system.block(1).geometry()
        assert len(cylinder_centers(h, 1).points) == 9
        assert len(cylinder_centers(h, 3).points) == 729

    def test_centers_live_in_the_block(self, geometric_system):
        block = geometric_system.block(1)
        seeds = cylinder_centers(block.geometry(), 2)
        for p in seed_points(seeds):
            assert all(lo < x < hi for x, (lo, hi) in zip(p, cube_box(block.cube)))

    @pytest.mark.parametrize("kept", [-1, None])
    def test_duplicate_centers_raise(self, geometric_system, monkeypatch, kept):
        # a copy of the first cylinder replaces the last one, or is added
        # after all of them: either way fewer centers than codes
        real = estimators.enumerate_cylinders

        def with_duplicate(*args):
            cylinders = list(real(*args))
            yield from cylinders[:kept]
            yield cylinders[0]

        monkeypatch.setattr(estimators, "enumerate_cylinders", with_duplicate)
        with pytest.raises(AssertionError, match="pairwise distinct"):
            cylinder_centers(geometric_system.block(1).geometry(), 1)

    @settings(max_examples=25, deadline=None)
    @given(leg_cases())
    @example((2, 5, Cube(F(8, 9), F(73, 81), 2), 2))  # block 2's cube of the r = 2 square
    def test_any_odd_leg_count(self, case):
        # every block has L_k = 3^k; the horseshoe layer takes any odd L, and
        # at its own eps side / (2 L - 1) the greedy scan keeps every center
        n, L, cube, m = case
        h = build_horseshoe(cube, L)
        seeds = cylinder_centers(h, m)  # raises on a repeated center
        assert len(seeds.points) == L ** (n * m)
        # a depth-1 scan compares step-0 points only and never applies the map
        kept = greedy_separated(square(h) if m > 1 else h.pamap, seeds, m, cube.side / (2 * L - 1))
        assert len(kept.chosen) == L ** (n * m)


@pytest.fixture(scope="module")
def sq_unit():
    return square(build_horseshoe(cube_of(0, 1, 2), 3))


@pytest.fixture(scope="module")
def unit_seeds():
    sys = build_stacked(Schedule.geometric(1, 1), 2, 1)
    # block 1 of this single-block system is the cube [0, 1/3]^2
    return sys, {m: cylinder_centers(sys.block(1).geometry(), m) for m in (1, 2)}


class TestGreedySeparated:
    def test_huge_eps_keeps_one_point(self, sq_unit):
        seeds = seed_set([(F(i, 10), F(1, 2)) for i in range(1, 6)])
        result = greedy_separated(sq_unit, seeds, 1, F(2))
        assert len(result.chosen) == 1

    def test_identity_counts_ignore_m(self):
        pm = identity_pamap()
        seeds = seed_set([(F(i, 7), F(j, 7)) for i in range(8) for j in range(8)])
        counts = {
            m: len(greedy_separated(pm, seeds, m, F(1, 7)).chosen) for m in (1, 2, 3)
        }
        assert len(set(counts.values())) == 1

    def test_monotone_in_eps(self, sq_unit, unit_seeds):
        _, seeds = unit_seeds
        sizes = [
            len(greedy_separated(sq_unit, seeds[2], 2, eps).chosen)
            for eps in (F(1, 40), F(1, 15), F(1, 4))
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_monotone_in_m(self, unit_seeds):
        sys, seeds = unit_seeds
        sq = square(sys.block(1).geometry())
        eps = sys.schedule.eps(1)
        a = len(greedy_separated(sq, seeds[2], 1, eps).chosen)
        b = len(greedy_separated(sq, seeds[2], 2, eps).chosen)
        assert a <= b

    def test_matrix_oracle(self, unit_seeds):
        # chosen points are pairwise separated and every seed is covered,
        # verified here directly from the Bowen distance matrix
        sys, seeds = unit_seeds
        sq = square(sys.block(1).geometry())
        eps = sys.schedule.eps(1)
        result = greedy_separated(sq, seeds[2], 2, eps)
        assert len(result.chosen) == len(seeds[2].points) == 81
        chosen = seed_points(seeds[2], result.chosen)
        for a, b in itertools.combinations(chosen, 2):
            assert bowen_distance(sq, a, b, 2).value > eps
        for p in seed_points(seeds[2]):
            assert any(bowen_distance(sq, p, c, 2).value <= eps for c in chosen)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=1, max_denominator=30),
                st.fractions(min_value=0, max_value=1, max_denominator=30),
            ),
            max_size=12,
        ),
        st.fractions(min_value=F(1, 60), max_value=F(1, 2), max_denominator=60),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_naive_greedy(self, sq_unit, points, eps, m):
        seeds = seed_set(points)
        result = greedy_separated(sq_unit, seeds, m, eps)
        assert result.chosen == naive_greedy(sq_unit, seeds, m, eps)

    @settings(max_examples=150, deadline=None)
    @given(
        st.data(),
        st.sampled_from(sorted(SCAN_MAPS)),
        st.fractions(min_value=F(1, 40), max_value=F(1, 2), max_denominator=40),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_naive_greedy_on_hard_seeds(self, scan_maps, data, name, eps, m):
        pamap, grid = scan_maps[name]
        eps = eps * grid.cube.side
        seeds = seed_set(data.draw(hard_seeds(grid, eps)))
        result = greedy_separated(pamap, seeds, m, eps)
        assert result.chosen == naive_greedy(pamap, seeds, m, eps)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(*[st.integers(0, 12).map(lambda i: F(i, 12))] * 2), max_size=14),
        st.sampled_from([F(1, 7), F(2, 7), F(1, 11), F(3, 11), F(5, 13), F(2, 35), F(1, 25)]),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_naive_greedy_at_an_eps_coprime_to_the_seeds(self, sq_unit, points, eps, m):
        # the seeds' den divides 12 and eps's denominator is prime to it, so
        # the scan moves the seeds to g = lcm(den, eps.d) before their orbits
        seeds = seed_set(points)
        assert math.gcd(seeds.den, eps.denominator) == 1
        result = greedy_separated(sq_unit, seeds, m, eps)
        assert result.chosen == naive_greedy(sq_unit, seeds, m, eps)

    @pytest.mark.parametrize("eps", [F(1, 49), F(2, 77), F(1, 15)])
    def test_cylinder_centers_match_naive_greedy_off_their_lattice(self, unit_seeds, eps):
        # the 81 depth-2 centers lie over den = 3750; 49 and 77 share no
        # factor with it, and 15 divides it
        sys, seeds = unit_seeds
        sq = square(sys.block(1).geometry())
        assert seeds[2].den == 3750
        result = greedy_separated(sq, seeds[2], 2, eps)
        assert result.chosen == naive_greedy(sq, seeds[2], 2, eps)

    def test_empty_seed_set(self, sq_unit):
        result = greedy_separated(sq_unit, seed_set([]), 2, F(1, 5))
        assert result.chosen == () and result.pairs == 0

    def test_pairs_count_only_scan_comparisons(self, sq_unit):
        # three seeds within eps of each other at every step, and one far
        # off: the scan keeps two and rejects two, each after one comparison
        near = [(F(1, 2), F(1, 2) + F(i, 1000)) for i in range(3)]
        seeds = seed_set(near + [(F(1, 10), F(1, 10))])
        result = greedy_separated(sq_unit, seeds, 1, F(1, 5))
        assert len(result.chosen) == 2
        assert result.pairs == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(*[st.integers(0, 12).map(lambda i: F(i, 12))] * 2), max_size=14),
        st.sampled_from([F(1, 7), F(2, 7), F(1, 11), F(3, 11), F(5, 13), F(1, 25)]),
        st.integers(min_value=1, max_value=3),
    )
    def test_every_rejected_seed_lies_within_eps_of_a_kept_one(self, sq_unit, points, eps, m):
        # the kept points span the seeds: the Bowen distance of the naive
        # oracle puts each rejected seed within eps of some kept seed
        seeds = seed_set(points)
        kept = set(greedy_separated(sq_unit, seeds, m, eps).chosen)
        kept_points = [x for p, x in zip(seeds.points, seed_points(seeds)) if p in kept]
        for p, x in zip(seeds.points, seed_points(seeds)):
            if p not in kept:
                assert any(bowen_distance(sq_unit, x, c, m).value <= eps for c in kept_points)

    def test_pairs_count_every_kernel_call(self, geometric_system, monkeypatch):
        # the greedy_square benchmark inputs: block 1 of the geometric
        # square, m = 1..3, every one of the 9 + 81 + 729 seeds kept
        calls = 0
        real = estimators.orbits_separate

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(estimators, "orbits_separate", counted)
        row = mdim_numeric_profile(unit_system(geometric_system), 1)
        assert row.counts == row.seeds == {1: 9, 2: 81, 3: 729}
        assert sum(row.pairs.values()) == calls
        # an all-pairs scan makes 36 + 3,240 + 265,356 calls here
        assert calls <= 40_000

    def test_escaping_orbit_is_scanned_on_its_surviving_prefix(self, sq_unit, unit_square_h):
        # an even strip's center escapes before the last state; it is
        # separated from the survivor at step 0, so both are kept
        escaper = box_center(unit_square_h.grid.strip_box(2))
        survivor = (F(1, 2), F(1, 2))
        assert len(map_orbit(sq_unit, escaper, 2)) < 3
        assert len(map_orbit(sq_unit, survivor, 2)) == 3
        result = greedy_separated(sq_unit, seed_set([escaper, survivor]), 3, F(1, 100))
        assert len(result.chosen) == 2 and result.pairs == 0

    def test_validation(self, sq_unit):
        seeds = seed_set([(F(0), F(0))])
        with pytest.raises(ValueError, match="m >= 1"):
            greedy_separated(sq_unit, seeds, 0, F(1, 5))
        with pytest.raises(ValueError, match="positive"):
            greedy_separated(sq_unit, seeds, 1, F(0))


class TestGreedySpanning:
    def test_single_target(self, sq_unit):
        result = greedy_separated(sq_unit, seed_set([(F(1, 3), F(1, 3))]), 2, F(1, 9))
        assert len(result.chosen) == 1

    def test_coarse_cover_is_smaller(self, unit_seeds):
        sys, seeds = unit_seeds
        sq = square(sys.block(1).geometry())
        eps = sys.schedule.eps(1)
        fine = len(greedy_separated(sq, seeds[2], 2, eps).chosen)
        coarse = len(greedy_separated(sq, seeds[2], 2, 4 * eps).chosen)
        assert coarse < fine == 81


class TestGrowthRate:
    def test_identity_rate_is_zero(self):
        pm = identity_pamap()
        seeds = seed_set([(F(i, 9), F(0)) for i in range(10)])
        counts, rate, residual = measured_growth(pm, lambda m: seeds, F(1, 100), (1, 2, 3))
        assert rate == pytest.approx(0.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert set(counts) == {1, 2, 3}

    def test_squared_block_rate_is_two_log_three(self, unit_seeds):
        sys, _ = unit_seeds
        h = sys.block(1).geometry()
        eps = sys.schedule.eps(1)
        counts, rate, residual = measured_growth(
            square(h), lambda m: cylinder_centers(h, m), eps, (1, 2, 3)
        )
        assert counts == {1: 9, 2: 81, 3: 729}
        assert rate == pytest.approx(2 * math.log(3), abs=1e-12)
        assert residual < 1e-12


class TestNumericProfile:
    def test_matches_symbolic_lower_ratio(self, geometric_system):
        row = mdim_numeric_profile(unit_system(geometric_system), 1)
        (bound,) = rate_profile(unit_system(geometric_system), [1])
        assert row.error is None
        assert row.counts == {1: 9, 2: 81, 3: 729}
        assert abs(row.ratio - bound.lower_ratio()) <= 1e-9
        at_eps = row.rate / math.log(1 / geometric_system.schedule.eps(1))
        assert at_eps == pytest.approx(2 * math.log(3) / math.log(15), abs=1e-12)
        assert row.eps_exact == F(1, 15)

    def test_budget_produces_error_row(self, geometric_system, monkeypatch):
        monkeypatch.setattr(estimators, "CYLINDER_BUDGET", 100)
        row = mdim_numeric_profile(unit_system(geometric_system), 1)
        assert row.error == "k=1: 729 cylinders at (k=1, m=3) exceed budget 100"
        assert row.counts == {} and "expected=" not in row.error and row.eps_exact == F(1, 15)

    @pytest.mark.parametrize("budget", [728, 729])
    def test_budget_admits_exactly_its_count(self, geometric_system, monkeypatch, budget):
        # block 1 has 729 cylinders at m = 3
        monkeypatch.setattr(estimators, "CYLINDER_BUDGET", budget)
        row = mdim_numeric_profile(unit_system(geometric_system), 1)
        assert (row.error is None) == (budget == 729)

    @pytest.mark.parametrize("k", [2, 11])
    def test_inactive_row_is_zero(self, monkeypatch, k):
        # block 11 is also too large to build and every count exceeds
        # budget 1; the inactive check comes before both
        monkeypatch.setattr(estimators, "CYLINDER_BUDGET", 1)
        sched = Schedule.geometric(1, 1, active=ACTIVE_SELF_POWERS)
        sys = build_stacked(sched, 2, 11)
        row = mdim_numeric_profile(unit_system(sys), k)
        assert row.counts == {} and row.rate == 0.0 and row.error is None
        assert row.eps_exact == sys.schedule.eps(k)

    def test_out_of_range_k_is_refused(self, geometric_system):
        row = mdim_numeric_profile(unit_system(geometric_system), 9)
        assert row.error == "k=9: block 9 is outside the file (kMax = 3)"
        assert row.eps_exact is None and row.counts == {} and "expected=" not in row.error

    def test_unmaterialized_block_is_refused_by_the_budget(self, build_calls):
        # L_11 = 3^11 pieces exceed the geometry budget, and 3^22 cylinders
        # at m = 1 the cylinder budget; no geometry is asked for
        sys = build_stacked(Schedule.geometric(1, 1), 2, 11)
        assert not sys.block(11).materialized
        row = mdim_numeric_profile(unit_system(sys), 11)
        assert row.error == "k=11: 31381059609 cylinders at (k=11, m=1) exceed budget 1000000"
        assert row.eps_exact == sys.schedule.eps(11) and build_calls == []

    def test_every_unmaterialized_block_is_over_budget_at_m_2(self):
        # L^(n-1) > GEOMETRY_BUDGET gives L^(2n) > GEOMETRY_BUDGET^2, so
        # mdim_numeric_profile refuses such a block before its geometry
        assert GEOMETRY_BUDGET ** 2 > CYLINDER_BUDGET

    def test_shortfall_stops_at_the_first_short_depth(self, geometric_system, monkeypatch):
        # a symbolic row with n = 3, a rate one ln 3 too large at k = 1,
        # expects 27 of the 9 depth-1 centers
        real = estimators.rate_profile

        def plus_ln3(system, ks):
            return [b._replace(n=3) for b in real(system, ks)]

        monkeypatch.setattr(estimators, "rate_profile", plus_ln3)
        row = mdim_numeric_profile(unit_system(geometric_system), 1)
        assert row.counts == row.seeds == {1: 9} and row.error.endswith(" expected=27")
        assert row.error == "k=1 m=1 count=9 expected=27"

    @pytest.mark.parametrize("m_max", [1, 0, -1])
    def test_depths_below_two_are_refused(self, geometric_system, m_max):
        # one depth leaves no slope to fit, and none nothing to scan
        with pytest.raises(ValueError, match="m_max >= 2"):
            mdim_numeric_profile(unit_system(geometric_system), 1, m_max=m_max)

    def test_ratio_bounded_by_dimension(self, geometric_system):
        system = unit_system(geometric_system)
        row = mdim_numeric_profile(system, 1, m_max=2)
        at_eps = row.rate / math.log(1 / geometric_system.schedule.eps(row.k))
        assert row.ratio <= system.n
        assert at_eps <= system.n

    def test_eps_override_skips_symbolic_check(self, geometric_system):
        row = mdim_numeric_profile(unit_system(geometric_system), 1, m_max=2, eps_override=F(1, 5))
        assert row.eps_exact == F(1, 5)
        native = mdim_numeric_profile(unit_system(geometric_system), 1, m_max=2)
        assert row.counts != native.counts or row.ratio != native.ratio
