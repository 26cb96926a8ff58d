"""Tests for size schedules, cube placement, and the assembled systems."""

import itertools
from fractions import Fraction

import pytest

from mmdim.constructions import (
    ACTIVE_SELF_POWERS,
    QUADRATIC_SIZE_CAP,
    Chart,
    Schedule,
    ScheduleError,
    StackedSystem,
    System,
    UnmaterializedBlockError,
    build_stacked,
    build_two_block,
    place_cubes,
    solve_rate,
)
from mmdim.estimators import cylinder_centers
from mmdim.mapping import ESCAPED
from mmdim.symbolic import extrapolate

from oracles import (
    box_center,
    box_intersect,
    box_of,
    cube_box,
    cube_of,
    dist_maxnorm,
    enlarged_box,
    find_box_overlap,
    seed_points,
)
from system_maps import apply_system, unit_system

F = Fraction


class TestSchedule:
    def test_geometric_sizes(self):
        sched = Schedule.geometric(1, 1)
        assert [sched.size(k) for k in (1, 2, 3)] == [F(1, 3), F(1, 9), F(1, 27)]

    def test_geometric_rate_two(self):
        sched = Schedule.geometric(2, 2)
        assert sched.size(1) == F(2, 9)
        assert sched.size(3) == F(2, 729)

    def test_quadratic_sizes(self):
        # sides are the placed ones: B = 1 is above the packing cap
        sched = Schedule.quadratic(1)
        assert sched.placed_B == QUADRATIC_SIZE_CAP == F(500, 987)
        assert sched.size(2) == F(125, 987)
        assert sched.size(10) == F(5, 987)
        assert Schedule.quadratic(F(1, 2)).size(2) == F(1, 8)

    @pytest.mark.parametrize("r", [F(1, 2), F(5, 3), F(7, 2)])
    def test_a_fractional_rate_is_refused_at_construction(self, r):
        # odd blocks need 3^(k r) with k r not an integer, so the schedule,
        # and with it every side, is refused
        with pytest.raises(ScheduleError,
                           match=r"^cannot place cubes with irrational sides \(non-integer r\)$"):
            Schedule.geometric(1, r)

    def test_size_rejects_bad_index(self):
        with pytest.raises(ScheduleError, match="start at 1"):
            Schedule.geometric(1, 1).size(0)
        with pytest.raises(ScheduleError, match="start at 1"):
            Schedule.geometric(1, 1).legs(0)

    def test_legs_are_powers_of_3(self):
        for sched in (Schedule.geometric(1, 1), Schedule.quadratic(1, ACTIVE_SELF_POWERS)):
            assert [sched.legs(k) for k in (1, 2, 3, 10)] == [3, 9, 27, 3**10]

    def test_activity_patterns(self):
        dense = Schedule.geometric(1, 1)
        assert all(dense.is_active(k) for k in range(1, 40))
        assert not dense.is_sparse

        sparse = Schedule.geometric(1, 1, active=ACTIVE_SELF_POWERS)
        assert sparse.is_sparse
        active_ks = [k for k in range(1, 30) if sparse.is_active(k)]
        assert active_ks == [1, 4, 27]


    def test_validation_errors(self):
        with pytest.raises(ScheduleError, match="unknown schedule kind"):
            Schedule("cubic", F(1))
        with pytest.raises(ScheduleError, match="positive"):
            Schedule.geometric(0, 1)
        with pytest.raises(ScheduleError, match="r > 0"):
            Schedule.geometric(1, 0)
        with pytest.raises(ScheduleError, match="B <= 3"):
            Schedule.geometric(3, 1)  # sizes 1, 1/3, ... would overflow [0, 1]
        with pytest.raises(ScheduleError, match="no rate"):
            Schedule("quadratic", F(1), F(1))
        with pytest.raises(ScheduleError, match="B <= 1"):
            Schedule.quadratic(2)
        with pytest.raises(ScheduleError, match="active"):
            Schedule.geometric(1, 1, active=[1, 2])
        with pytest.raises(ScheduleError, match="active"):
            Schedule.geometric(1, 1, active=frozenset({2, 3}))


class TestSolveRate:
    def test_examples(self):
        assert solve_rate(1, 2).r == 1
        assert solve_rate(1, 3).r == 2
        assert solve_rate(F(1, 2), 2).r == 3
        assert solve_rate(F(2, 3), 2).r == 2

    def test_full_dimension_goes_quadratic(self):
        sched = solve_rate(2, 2)
        assert sched.kind == "quadratic"
        assert sched.r is None

    def test_rejections(self):
        with pytest.raises(ScheduleError, match="solvable"):
            solve_rate(0, 2)
        with pytest.raises(ScheduleError, match="solvable"):
            solve_rate(F(5, 2), 2)
        with pytest.raises(ScheduleError, match="n >= 2"):
            solve_rate(1, 1)


class TestPlaceCubes:
    def test_geometric_unit_anchors(self):
        assert place_cubes(Schedule.geometric(1, 1), 2, 3) == [
            (F(0), F(1, 3)),
            (F(2, 3), F(1, 9)),
            (F(8, 9), F(1, 27)),
        ]

    def test_geometric_anchors_telescope(self):
        # with B = 1, r = 1 the k-th anchor is 1 - 1/3^(k-1)
        placed = place_cubes(Schedule.geometric(1, 1), 2, 20)
        for k, (anchor, side) in enumerate(placed, start=1):
            assert anchor == 1 - F(1, 3) ** (k - 1)
            assert anchor + side <= 1

    def test_geometric_blocks_stay_in_slots(self):
        for B, r in [(1, 1), (1, 2), (F(3, 2), 1), (7, 2)]:
            placed = place_cubes(Schedule.geometric(B, r), 2, 12)
            for (a1, s1), (a2, _) in zip(placed, placed[1:]):
                assert a1 + s1 < a2
            assert all(a + s <= 1 for a, s in placed)

    def test_geometric_margin_rejection(self):
        # B = 9/5 leaves no room for the 1/10 enlargements at r = 1
        with pytest.raises(ScheduleError, match="enlargements"):
            place_cubes(Schedule.geometric(F(9, 5), 1), 2, 2)

    def test_quadratic_full_size_is_rescaled(self):
        sched = Schedule.quadratic(1)
        placed = place_cubes(sched, 2, 4)
        assert placed[0][1] == QUADRATIC_SIZE_CAP
        assert placed[1][1] == QUADRATIC_SIZE_CAP / 4
        # the schedule's sides are the placed ones
        assert [sched.size(k) for k in range(1, 5)] == [side for _, side in placed]

    def test_quadratic_small_b_unscaled(self):
        sched = Schedule.quadratic(F(1, 10))
        assert place_cubes(sched, 2, 2)[1][1] == F(1, 40)

    def test_quadratic_slots_abut_and_fit(self):
        placed = place_cubes(Schedule.quadratic(1), 2, 50)
        for (a1, s1), (a2, s2) in zip(placed, placed[1:]):
            # consecutive enlargements share exactly one face
            assert a1 + s1 + s1 / 10 == a2 - s2 / 10
        last_a, last_s = placed[-1]
        assert last_a + last_s * F(11, 10) < 1

    def test_edge_counts(self):
        assert place_cubes(Schedule.geometric(1, 1), 2, 0) == []
        with pytest.raises(ScheduleError, match="count"):
            place_cubes(Schedule.geometric(1, 1), 2, -1)
        with pytest.raises(ScheduleError, match="irrational"):
            place_cubes(Schedule.geometric(1, F(1, 2)), 2, 3)


class TestEnlargedBox:
    def test_interior_cube(self):
        box = enlarged_box(cube_of(F(2, 3), F(7, 9), 2))
        pad = F(1, 9) / 10
        assert box == box_of(
            (F(2, 3) - pad, F(7, 9) + pad), (F(2, 3) - pad, F(7, 9) + pad)
        )

    def test_clipped_at_ambient_boundary(self):
        box = enlarged_box(cube_of(0, F(1, 3), 2))
        assert box == box_of((0, F(1, 3) + F(1, 30)), (0, F(1, 3) + F(1, 30)))


class TestBuildStacked:
    def test_three_block_example(self, geometric_system):
        sys = geometric_system
        assert sys.kind == "stacked"
        assert sys.n == 2 and sys.k_max == 3
        assert len(sys.blocks) == 3
        b1, b2 = sys.block(1), sys.block(2)
        assert b1.cube == cube_of(0, F(1, 3), 2)
        assert b2.cube == cube_of(F(2, 3), F(2, 3) + F(1, 9), 2)
        assert (b1.L, b2.L) == (3, 9)
        assert sys.schedule.eps(1) == F(1, 15)
        assert sys.schedule.eps(2) == F(1, 9) / 17
        assert all(b.active and b.materialized for b in sys.blocks)

    def test_block_index_errors(self, geometric_system):
        with pytest.raises(ValueError):
            geometric_system.block(0)
        with pytest.raises(ValueError):
            geometric_system.block(4)

    def test_sparse_blocks_not_materialized(self):
        sched = Schedule.geometric(1, 1, active=ACTIVE_SELF_POWERS)
        sys = build_stacked(sched, 2, 10)
        assert [b.k for b in sys.blocks if b.active] == [1, 4]
        for b in sys.blocks:
            assert b.materialized == b.active

    @pytest.mark.parametrize("n, last", [(2, 10), (3, 5)])
    def test_budget_limits_materialization(self, n, last):
        # L^(n-1) pieces of L_k = 3^k: 3^10 and (3^5)^2 fit 100,000, the next do not
        sys = build_stacked(Schedule.geometric(1, n), n, last + 1)
        assert [b.k for b in sys.blocks if b.materialized] == list(range(1, last + 1))
        assert sys.block(last + 1).active

    def test_apply_outside_blocks_is_identity(self, geometric_system):
        p = (F(1, 2), F(1, 2))  # in the gap between blocks 1 and 2
        assert apply_system(unit_system(geometric_system), p) == p

    def test_apply_inactive_block_is_identity(self):
        sched = Schedule.geometric(1, 1, active=ACTIVE_SELF_POWERS)
        sys = build_stacked(sched, 2, 2)
        p = box_center(cube_box(sys.block(2).cube))
        assert apply_system(unit_system(sys), p) == p

    def test_apply_unmaterialized_active_block_raises(self):
        sys = build_stacked(Schedule.geometric(1, 1), 2, 11)
        p = box_center(cube_box(sys.block(11).cube))
        with pytest.raises(UnmaterializedBlockError):
            apply_system(unit_system(sys), p)

    def test_apply_block_dynamics_and_escape(self, geometric_system):
        h = geometric_system.block(1).geometry()
        whole = unit_system(geometric_system)
        corner = (F(0), F(1, 3))  # the (a, b) corner of block 1 is fixed
        assert apply_system(whole, corner) == corner
        even_mid = box_center(h.grid.strip_box(2))
        assert apply_system(whole, even_mid) is ESCAPED
        assert apply_system(whole, ESCAPED) is ESCAPED

    @pytest.mark.parametrize(
        "sched,n",
        [
            (Schedule.geometric(1, 1), 2),
            (Schedule.geometric(1, 2), 2),
            (Schedule.geometric(1, 1), 3),
            (Schedule.quadratic(1), 2),
            (Schedule.geometric(1, 1, active=ACTIVE_SELF_POWERS), 2),
        ],
    )
    def test_disjointness_and_containment(self, sched, n):
        # C1/C2: enlarged blocks have pairwise disjoint interiors and stay
        # inside the ambient cube
        sys = build_stacked(sched, n, 8)
        enlargements = [enlarged_box(b.cube) for b in sys.blocks]
        assert find_box_overlap(enlargements) is None
        unit = box_of(*(((0, 1),) * n))
        for box in enlargements:
            assert box_intersect(unit, box) == box  # inside the unit cube


class TestBlockMap:
    """The system's map on block k is g = f∘f, the map `estimate` scans.

    At the block's own eps its L^(n m) depth-m cylinder centers are pairwise
    separated under g's Bowen distance, so its separated counts grow by L^n
    per step.  Under f they would not: f keeps 27 of the 81 centers at
    n = 2, m = 2, since one step of f crosses one of L^(n-1) strips.
    """

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1)])
    def test_block_one_centers_are_pairwise_separated(self, n, m):
        system = build_stacked(Schedule.geometric(1, 1), n, 1)
        block = system.block(1)
        centers = seed_points(cylinder_centers(block.geometry(), m))
        assert len(centers) == block.L ** (n * m)
        orbits = []
        for p in centers:
            orbit = [p]
            for _ in range(m - 1):
                orbit.append(apply_system(unit_system(system), orbit[-1]))
            assert ESCAPED not in orbit
            orbits.append(orbit)
        for x, y in itertools.combinations(orbits, 2):
            bowen = max(dist_maxnorm(a, b) for a, b in zip(x, y))
            assert bowen > system.schedule.eps(1)


class TestIdentity:
    def test_identity(self):
        sys = System(2, ())
        assert build_two_block(0, 0, 2, 3) == sys  # both halves are the identity
        p = (F(1, 3), F(1, 2))
        assert apply_system(sys, p) == p
        assert apply_system(sys, ESCAPED) is ESCAPED


class TestTwoBlock:
    def test_shapes(self):
        two = build_two_block(F(2, 3), 1, 2, 5)
        (lower_chart, lower), (upper_chart, upper) = two.parts
        assert (lower_chart, upper_chart) == (Chart(0, F(1, 2)), Chart(F(1, 2), F(1, 2)))
        assert extrapolate(two, range(1, 6)) == (F(2, 3), 1)
        # superior limit beta = 1 needs r = 1 sparse; inferior alpha = 2/3
        # needs r = 2 dense
        assert lower.schedule.r == 1
        assert lower.schedule.active == ACTIVE_SELF_POWERS
        assert upper.schedule.r == 2
        assert not upper.schedule.is_sparse

    def test_equal_targets_share_one_system(self):
        (_, lower), (_, upper) = build_two_block(1, 1, 2, 4).parts
        assert lower is upper
        assert not lower.schedule.is_sparse

    def test_zero_lower_target_uses_identity(self):
        # alpha = 0: the upper corner is the identity, so the lower is the one part
        ((chart, lower),) = build_two_block(0, 1, 2, 4).parts
        assert chart == Chart(0, F(1, 2))
        assert isinstance(lower, StackedSystem)

    def test_rejections(self):
        with pytest.raises(ScheduleError, match="0 <= alpha <= beta"):
            build_two_block(1, F(1, 2), 2, 4)
        with pytest.raises(ScheduleError, match="0 <= alpha <= beta"):
            build_two_block(1, 3, 2, 4)
        with pytest.raises(ScheduleError, match="n >= 2"):
            build_two_block(1, 1, 1, 4)

    def test_chart_conjugation_fixed_points(self):
        # the (a, b) corner of block 1 of each inner system is fixed, so its
        # image under each half's chart must be fixed for the whole system
        two = build_two_block(1, 1, 2, 3)
        lower_pt = (F(0), F(1, 6))  # chart doubles to (0, 1/3)
        upper_pt = (F(1, 2), F(2, 3))  # chart sends to (0, 1/3) as well
        assert apply_system(two, lower_pt) == lower_pt
        assert apply_system(two, upper_pt) == upper_pt

    def test_chart_conjugation_matches_inner_orbit(self):
        two = build_two_block(1, 1, 2, 3)
        inner_p = (F(1, 6), F(1, 12))  # odd strip 3 of block 1, not fixed
        inner_image = apply_system(unit_system(two.parts[0][1]), inner_p)
        assert inner_image not in (ESCAPED, inner_p)
        p = tuple(c / 2 for c in inner_p)
        assert apply_system(two, p) == tuple(c / 2 for c in inner_image)

    def test_shared_boundary_belongs_to_lower_half(self):
        # (1/2, 1/2) doubles to (1, 1) in the lower chart, which is outside
        # every block and hence fixed; the upper chart would send it into
        # block 1's dynamics instead
        two = build_two_block(1, 1, 2, 3)
        mid = (F(1, 2), F(1, 2))
        assert apply_system(two, mid) == mid
        assert apply_system(unit_system(two.parts[1][1]), (F(0), F(0))) != (F(0), F(0))

    def test_outside_both_corners_fixed(self):
        two = build_two_block(1, 1, 2, 3)
        p = (F(1, 4), F(3, 4))
        assert apply_system(two, p) == p

    def test_escape_propagates(self):
        two = build_two_block(1, 1, 2, 3)
        lower = two.parts[0][1]
        h = lower.block(1).geometry()
        inner_escape = box_center(h.grid.strip_box(2))
        p = tuple(c / 2 for c in inner_escape)
        assert apply_system(unit_system(lower), inner_escape) is ESCAPED
        assert apply_system(two, p) is ESCAPED
        assert apply_system(two, ESCAPED) is ESCAPED
