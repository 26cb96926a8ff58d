"""Tests for exact log arithmetic, cylinder geometry, and rate bounds."""

import itertools
import math
import random
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from mmdim import symbolic
from mmdim.constructions import (
    ACTIVE_ALL,
    ACTIVE_SELF_POWERS,
    QUADRATIC_SIZE_CAP,
    Chart,
    Schedule,
    ScheduleError,
    System,
    build_stacked,
)
from mmdim.horseshoe import square
from mmdim.mapping import ESCAPED
from mmdim.specfile import SystemSpec, analytic_targets, build_system
from mmdim.symbolic import (
    WORKING_DPS,
    RowFault,
    _half_rows,
    _ln,
    _ln_q,
    _rank,
    RateBound,
    _stacked_bound,
    _stacked_fault,
    cylinder_geometry,
    enumerate_cylinders,
    extrapolate,
    rate_profile,
)
from oracles import (
    apply_map,
    bowen_distance,
    box_center,
    box_contains,
    box_intersect,
    find_box_overlap,
    strip_word_box,
)
from system_maps import two_block_spec, two_block_system, unit_system

F = Fraction


class TestLn:
    def test_ln_q(self):
        assert abs(float(_ln_q(F(2, 3))) - math.log(2 / 3)) < 1e-15
        assert _ln_q(F(1)) == 0
        assert _ln_q(F(6, 2)) == _ln(3)  # q is in lowest terms

    def test_ln_q_carries_the_working_precision(self):
        got = _ln_q(F(3**1000, 2))
        with mpmath.workdps(60):
            exact = 1000 * mpmath.log(3) - mpmath.log(2)
            assert abs(mpmath.mpf(str(got)) - exact) < mpmath.mpf(10) ** -24


# Log arguments as the profiles form them, up to the largest kMax a spec allows.
LOG_ARGS = st.one_of(
    st.integers(1, 10**6),
    st.integers(1, 4000).map(lambda k: 2 * 3**k - 1),
    st.integers(1, 4000).map(lambda k: 3**k),
)


def assert_close(got: float, exact, error: float) -> None:
    """got is float(exact) up to the float's own rounding plus `error`."""
    exact = float(exact)
    assert abs(got - exact) <= 2.0**-52 * abs(exact) + error + math.ulp(0.0)


@st.composite
def profile_rows(draw):
    """A row of a random buildable system at k <= 400, with the system's n."""
    n = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["geometric", "quadratic", "two_block"]))
    if kind == "two_block":
        alpha, beta = sorted(draw(st.lists(st.sampled_from(
            [F(0), *(F(n, j + 1) for j in (1, 2, 3)), F(n)]), min_size=2, max_size=2)))
        system = two_block_system(alpha, beta, n, 1)
    else:
        B = draw(st.fractions(F(1, 12), 1, max_denominator=12))
        active = draw(st.sampled_from([ACTIVE_ALL, ACTIVE_SELF_POWERS]))
        schedule = (Schedule.quadratic(B, active) if kind == "quadratic"
                    else Schedule.geometric(B, draw(st.integers(1, 3)), active))
        system = unit_system(build_stacked(schedule, n, 1))
    k = draw(st.one_of(st.integers(1, 30), st.integers(1, 400)))
    return rate_profile(system, [k])[0]


class TestDecimalAgainstMpmath:
    """The working-precision evaluation against mpmath at 60 digits."""

    @settings(max_examples=200, deadline=None)
    @given(LOG_ARGS, LOG_ARGS)
    @example(6, 6)
    @example(2 * 3**4000 - 1, 2 * 3**4000)
    def test_ln_q(self, p, d):
        # ln p and ln d are each correctly rounded to 30 digits, and so is
        # their difference, however much of it cancels
        got = _ln_q(F(p, d))
        with mpmath.workdps(60):
            exact = mpmath.log(p) - mpmath.log(d)
        assert_close(float(got), exact, 1e-28 * (1 + math.log(p) + math.log(d)))
        if abs(exact) * 1e3 >= 1 + math.log(p) + math.log(d):  # nothing much cancels
            assert float(got) == float(exact)

    @settings(max_examples=200, deadline=None)
    @given(profile_rows())
    def test_ratios(self, row):
        if row.L == 1:
            assert row.lower_ratio() == row.upper_ratio() == 0.0
            return
        with mpmath.workdps(60):
            rate = row.n * mpmath.log(row.L)
            exact = [rate / (mpmath.log(q.numerator) - mpmath.log(q.denominator))
                     for q in (1 / row.eps_next, 4 / row.eps_exact)]
        for got, value in zip((row.lower_ratio(), row.upper_ratio()), exact):
            assert_close(got, value, 1e-27 * abs(float(value)))

    @settings(max_examples=100, deadline=None)
    @given(LOG_ARGS)
    @example(2)
    @example(2 * 3**4000 - 1)
    def test_memoized_ln_is_a_fresh_ln(self, a):
        fresh = Context(prec=WORKING_DPS, Emax=MAX_EMAX, Emin=MIN_EMIN)
        assert _ln(a) == fresh.ln(a)
        assert _ln(a) == fresh.ln(a)  # the memo's answer, second time round


class TestEpsSchedule:
    def test_geometric_values(self):
        sched = Schedule.geometric(1, 1)
        assert sched.eps(1) == F(1, 15)
        assert sched.eps(2) == F(1, 153)
        vals = [sched.eps(k) for k in range(1, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_quadratic_values(self):
        # B = 1 exceeds the packing cap, so eps uses the placed B = 500/987
        sched = Schedule.quadratic(1)
        assert sched.eps(2) == QUADRATIC_SIZE_CAP / 68 == F(125, 16779)

    def test_a_rate_with_irrational_sizes_is_refused(self):
        # 3^(k/2) is irrational at odd k, active or not: no schedule, so no
        # eps, exists, not even at the exact even k
        with pytest.raises(ScheduleError, match=r"irrational sides \(non-integer r\)"):
            Schedule.geometric(1, F(1, 2), active=ACTIVE_SELF_POWERS)

    def test_profile_eps_is_the_block_eps(self):
        # every block's eps_k is one number: the profile's rows hold the
        # built blocks' side / (2 L_k - 1), and an active row the next one's
        dense_to_full = two_block_system(1, 2, 2, 5)
        systems = [
            build_stacked(Schedule.geometric(1, 1), 2, 4),
            build_stacked(Schedule.quadratic(1), 2, 4),  # B above the cap
            build_stacked(Schedule.quadratic(1, active=ACTIVE_SELF_POWERS), 2, 5),
            build_stacked(Schedule.geometric(1, 2), 3, 3),
            dense_to_full.parts[0][1],  # sparse quadratic half, beta = n
            dense_to_full.parts[1][1],
            two_block_system(F(2, 3), 1, 2, 5).parts[0][1],
        ]
        for system in systems:
            rows = rate_profile(unit_system(system), range(1, len(system.blocks) + 1))
            for row, block in zip(rows, system.blocks):
                assert row.eps_exact == block.cube.side / (2 * block.L - 1)
            for row, after in zip(rows, rows[1:]):
                assert row.eps_next == (after.eps_exact if row.L != 1 else None)


def follows_itinerary(h, sq, word, p) -> bool:
    """Membership oracle: the point's squared-map itinerary equals the word."""
    grid = h.grid
    cur = p
    for l, leg in word:
        if cur is ESCAPED:
            return False
        cell = box_intersect(grid.strip_box(l), grid.leg_box(leg))
        if not box_contains(cell, cur):
            return False
        cur = apply_map(sq, cur)
    return True


class TestCylinderGeometry:
    def test_depth_one_is_the_cell(self, unit_square_h):
        h = unit_square_h
        box = cylinder_geometry(h, ((3, (5,)),))
        assert box == box_intersect(h.grid.strip_box(3), h.grid.leg_box((5,)))
        assert [hi - lo for lo, hi in box] == [F(1, 5), F(1, 5)]

    def test_unknown_strip_rejected(self, unit_square_h):
        with pytest.raises(ValueError, match="not an odd strip"):
            cylinder_geometry(unit_square_h, ((7, (5,)),))

    def test_depth_two_family(self, unit_square_h):
        h = unit_square_h
        sq = square(h)
        boxes = []
        for word, box in enumerate_cylinders(h, 2):
            # each squared step divides the first-axis width by 25
            lo, hi = box[0]
            assert hi - lo == F(1, 125)
            # nesting: the depth-2 box refines its depth-1 prefix
            prefix = cylinder_geometry(h, word[:1])
            assert box_intersect(prefix, box) == box
            assert follows_itinerary(h, sq, word, box_center(box))
            boxes.append(box)
        assert len(boxes) == 3 ** (2 * 2) == 81
        assert find_box_overlap(boxes) is None

    def test_center_itineraries_are_distinct(self, unit_square_h):
        # two different words never share a center
        h = unit_square_h
        sq = square(h)
        seen = {}
        for word, box in enumerate_cylinders(h, 2):
            c = box_center(box)
            assert c not in seen
            seen[c] = word
            # the center fails every other word's membership test by
            # construction; spot-check one competitor
            other = next(w for w, _ in enumerate_cylinders(h, 1) if w != word[:1])
            assert not follows_itinerary(h, sq, other, c)

    def test_depth_two_centers_separate(self, unit_square_h):
        # the 81 depth-2 centers are (2, eps)-separated for the squared map
        # at eps = 1/5, strictly
        h = unit_square_h
        sq = square(h)
        centers = [box_center(box) for _, box in enumerate_cylinders(h, 2)]
        eps = F(1, 5)
        for a, b in itertools.combinations(centers, 2):
            assert bowen_distance(sq, a, b, 2).value > eps

    def test_depth_three_sampled_separation(self, unit_square_h):
        h = unit_square_h
        sq = square(h)
        centers = [box_center(box) for _, box in enumerate_cylinders(h, 3)]
        assert len(centers) == 729
        rng = random.Random(7)
        eps = F(1, 5)
        for a, b in [rng.sample(centers, 2) for _ in range(40)]:
            assert bowen_distance(sq, a, b, 3).value > eps


class TestStripWordBox:
    def test_single_strip(self, unit_square_h):
        assert strip_word_box(unit_square_h, [3]) == unit_square_h.grid.strip_box(3)

    def test_length_two_words(self, unit_square_h):
        h = unit_square_h
        words = list(itertools.product([1, 3, 5], repeat=2))
        boxes = [strip_word_box(h, w) for w in words]
        for w, box in zip(words, boxes):
            lo, hi = box[0]
            assert hi - lo == F(1, 25)
            assert box_intersect(h.grid.strip_box(w[0]), box) == box
        assert find_box_overlap(boxes) is None
        assert len(boxes) == 9


def direct_lower_ratio(k: int, dps: int = 40) -> float:
    """Independent closed form for the dense r = 1, n = 2 stack."""
    with mpmath.workdps(dps):
        num = 2 * k * mpmath.log(3)
        den = (k + 1) * mpmath.log(3) + mpmath.log(2 * 3 ** (k + 1) - 1)
        return float(num / den)


def direct_upper_ratio(k: int, dps: int = 40) -> float:
    with mpmath.workdps(dps):
        num = 2 * k * mpmath.log(3)
        den = mpmath.log(4) + k * mpmath.log(3) + mpmath.log(2 * 3**k - 1)
        return float(num / den)


class TestRateProfile:
    def test_dense_geometric_matches_closed_form(self, geometric_system):
        rows = rate_profile(unit_system(geometric_system), range(1, 25))
        for row in rows:
            assert row.L == 3**row.k
            assert abs(row.lower_ratio() - direct_lower_ratio(row.k)) < 1e-12
            assert abs(row.upper_ratio() - direct_upper_ratio(row.k)) < 1e-12

    def test_k_twelve_spot_values(self, geometric_system):
        row = rate_profile(unit_system(geometric_system), [12])[0]
        assert abs(row.upper_ratio() - direct_upper_ratio(12)) < 1e-12
        assert 0.9 < row.upper_ratio() < 1
        assert row.lower_ratio() < 1

    def test_ratios_increase_toward_target(self, geometric_system):
        rows = rate_profile(unit_system(geometric_system), range(1, 25))
        lows = [r.lower_ratio() for r in rows]
        assert all(a < b for a, b in zip(lows, lows[1:]))
        assert all(v < 1 for v in lows)  # n/(r+1) = 1 bounds the profile
        assert lows[-1] > 0.9

    def test_eps_fields(self, geometric_system):
        row = rate_profile(unit_system(geometric_system), [2])[0]
        assert row.eps_exact == F(1, 153)
        assert row.eps_next == F(1, 1431)

    def test_rate_is_n_ln_L(self):
        # a row's rate is n ln L for any leg count, not only L_k = 3^k
        row = RateBound(1, 2, 5, F(1, 27), F(1, 729))
        assert abs(float(row.rate) - 2 * math.log(5)) < 1e-15

    def test_quadratic_ratio_approaches_dimension(self):
        sys = unit_system(build_stacked(Schedule.quadratic(1), 2, 2))
        rows = rate_profile(sys, range(1, 101))
        lows = [r.lower_ratio() for r in rows]
        assert all(a < b for a, b in zip(lows, lows[1:]))
        assert lows[-1] > 1.8  # > 0.9 n on its way to n = 2

    def test_sparse_rows_inactive_with_eps(self):
        sched = Schedule.geometric(1, 1, active=ACTIVE_SELF_POWERS)
        sys = unit_system(build_stacked(sched, 2, 10))
        rows = rate_profile(sys, range(1, 11))
        for row in rows:
            assert (row.L != 1) == (row.k in (1, 4))
            if row.L == 1:
                assert row.lower_ratio() == 0.0
                assert row.eps_exact is not None

    def test_identity_rows_are_zero(self):
        rows = rate_profile(System(2, ()), range(1, 5))
        for row in rows:
            assert row.lower_ratio() == row.upper_ratio() == 0.0
            assert row.L == 1 and row.eps_exact is None

    def test_rejects_bad_indices(self, geometric_system):
        with pytest.raises(ValueError):
            rate_profile(unit_system(geometric_system), [])
        with pytest.raises(ValueError):
            rate_profile(unit_system(geometric_system), [0, 1])

    @pytest.mark.parametrize("alpha,beta", [(F(2, 3), 1), (1, 2), (0, 2), (1, 1)])
    def test_two_block_rows_are_their_larger_halfs(self, alpha, beta):
        # the sparse lower half carries the row at its spikes k = 1, 4, 27
        # (at alpha = beta by the tie rule), and the dense upper half between
        # them; at alpha = 0 the upper half is the identity, and the lower
        # half's own zero rows win the tie
        two = two_block_system(alpha, beta, 2, 30)
        halves = [unit_system(part) for _, part in two.parts]
        if alpha == 0:
            halves.append(System(2, ()))  # the identity upper half
        ks = range(1, 31)
        for row, low, up in zip(*(rate_profile(s, ks) for s in (two, *halves))):
            assert row == (low if row.k in (1, 4, 27) or alpha == 0 else up), row.k
            assert row.lower_ratio() == max(low.lower_ratio(), up.lower_ratio())


def stacked_spec(kind: str, n: int, k_max: int, r=None) -> SystemSpec:
    """A stacked spec at B = 1 (placed at the quadratic cap 500/987 when the
    sizes are quadratic, that is when r is None)."""
    return SystemSpec(kind, n, F(1), None if r is None else F(r), k_max)


# the spec of every leg and size law
GROWTH_SPECS = {
    "geometric r=1": stacked_spec("geometric", 2, 1, r=1),
    "geometric r=2": stacked_spec("geometric", 2, 1, r=2),
    "geometric r=3": stacked_spec("geometric", 3, 1, r=3),
    "quadratic": stacked_spec("quadratic", 2, 1),
    "sparse": stacked_spec("sparse", 2, 1, r=1),
    "sparse quadratic": stacked_spec("sparse", 3, 1),
}


def _smaller_half(rows):
    """The max rule reversed: the half with the smaller lower ratio wins."""
    return min(rows, key=RateBound.lower_ratio)


class TestRowFault:
    @pytest.mark.parametrize("name", sorted(GROWTH_SPECS))
    def test_rows_to_k_400_grow_at_the_stated_coefficients(self, name):
        spec = GROWTH_SPECS[name]
        assert extrapolate(build_system(spec), range(1, 401)) == analytic_targets(spec)

    @pytest.mark.parametrize("alpha,beta,n", [(F(2, 3), 1, 2), (1, 2, 2), (0, 1, 2), (1, 3, 3)])
    def test_two_block_rows_to_k_400_pass(self, alpha, beta, n):
        assert extrapolate(two_block_system(alpha, beta, n, 1), range(1, 401)) == (alpha, beta)

    def test_identity_has_no_rows_to_check(self):
        assert extrapolate(System(2, ()), range(1, 31)) == (0, 0)

    @pytest.mark.parametrize(
        "field,value,fault",
        [
            ("n", 1, "k=3 rate is not 2 k ln 3"),
            ("L", 9, "k=3 rate is not 2 k ln 3"),
            ("eps_exact", F(1, 27 * 51),
             "k=3 |ln eps| is not 3 j ln 3 + 0 ln j + ln(1/B) + [ln(5/3), ln 2) at j=3"),
            ("eps_next", Schedule.geometric(1, 2).eps(3),
             "k=3 lower_den is not 3 j ln 3 + 0 ln j + ln(1/B) + [ln(5/3), ln 2) at j=4"),
        ],
    )
    def test_a_row_off_its_growth_is_reported(self, field, value, fault):
        # (n - 1) k ln 3 or (n/2) k ln 3 as the rate, eps_k over 2 L_k - 3,
        # row k's own eps as the next one: each would move the limits or the
        # printed ratios
        schedule = Schedule.geometric(1, 2)
        row = _stacked_bound(schedule, 2, 3)._replace(**{field: value})
        assert _stacked_fault(schedule, 2, row) == fault

    def test_an_eps_without_its_2_ln_k_is_reported(self):
        # the quadratic size lost its 1/k^2
        schedule = Schedule.quadratic(1)
        row = _stacked_bound(schedule, 2, 3)
        row = row._replace(eps_exact=row.eps_exact * 9)
        assert _stacked_fault(schedule, 2, row).endswith("at j=3")

    def test_the_remainder_range_is_tight(self):
        # ln((2 L_j - 1) / L_j) is ln(5/3) at j = 1 and tends to ln 2
        schedule = Schedule.geometric(1, 1)
        first, far = _stacked_bound(schedule, 2, 1), _stacked_bound(schedule, 2, 400)
        assert _stacked_fault(schedule, 2, first) is None
        assert _stacked_fault(schedule, 2, far) is None
        for row in (first._replace(eps_exact=first.eps_exact * F(5, 4)),
                    far._replace(eps_exact=far.eps_exact * F(9, 10))):
            assert _stacked_fault(schedule, 2, row) is not None

    def test_a_reversed_max_rule_is_reported(self, monkeypatch):
        monkeypatch.setattr(symbolic, "_larger_half", _smaller_half)
        two = two_block_system(F(2, 3), 1, 2, 1)
        with pytest.raises(RowFault, match="^k=1 two-block row is not its larger half's$"):
            extrapolate(two, range(1, 31))

    def test_a_tie_sent_to_the_upper_half_is_reported(self, monkeypatch):
        # two sparse parts of different rates are both inactive at k = 2, so
        # their rows tie at rank 0 but differ in eps; the rule takes the lower
        # part's, and a rule that sends ties up is caught there
        sparse = [build_stacked(Schedule.geometric(1, r, active=ACTIVE_SELF_POWERS), 2, 1)
                  for r in (1, 2)]
        charts = [chart for chart, _ in two_block_system(F(2, 3), 1, 2, 1).parts]
        two = System(2, tuple(zip(charts, sparse)))
        assert rate_profile(two, [2])[0] == _stacked_bound(sparse[0].schedule, 2, 2)
        assert extrapolate(two, range(1, 31)) == (0, 1)
        monkeypatch.setattr(symbolic, "_larger_half", lambda rows: max(reversed(rows), key=_rank))
        with pytest.raises(RowFault, match="^k=2 two-block row is not its larger half's$"):
            extrapolate(two, range(1, 31))

    def test_the_losing_half_is_checked(self, monkeypatch):
        # at k = 2 the dense half wins, so the combined row never shows the
        # sparse half's shifted eps; from k = 1 the sparse spike's lower
        # denominator reads it first
        two = two_block_system(F(2, 3), 1, 2, 1)
        real = Schedule.eps
        monkeypatch.setattr(Schedule, "eps", lambda sched, k: real(sched, k) / (
            3 if sched.is_sparse and k == 2 else 1))
        assert rate_profile(two, [2])[0] == _stacked_bound(two.parts[1][1].schedule, 2, 2)
        with pytest.raises(RowFault) as fault:
            extrapolate(two, range(2, 31))
        assert str(fault.value) == (
            "k=2 |ln eps| is not 2 j ln 3 + 0 ln j + ln(1/B) + [ln(5/3), ln 2) at j=2")
        with pytest.raises(RowFault, match="^k=1 lower_den is not"):
            extrapolate(two, range(1, 31))

    @pytest.mark.parametrize("alpha,beta,n", [
        (F(2, 3), 1, 2), (1, 2, 2), (0, 2, 2), (F(1, 2), F(1, 2), 2), (1, F(3, 2), 3), (0, 3, 3),
    ])
    def test_the_exact_max_rule_picks_the_float_ratios_half(self, alpha, beta, n):
        # the rule the 30-digit ratios decided, with ties to the active row
        # and then to the lower half
        two = two_block_system(alpha, beta, n, 1)
        for rows in _half_rows(two, range(1, 401)):
            # at alpha = 0 the upper half, the identity, is no part: its zero row stands in
            low, up = (*rows, RateBound(rows[0].k, n, 1, None, None))[:2]
            floats = low if (low.lower_ratio(), low.L) >= (up.lower_ratio(), up.L) else up
            assert symbolic._larger_half([low, up]) == floats, low.k


class TestExtrapolate:
    @pytest.mark.parametrize(
        "spec,limits",
        [
            (stacked_spec("geometric", 2, 3, r=1), (1, 1)),
            (stacked_spec("geometric", 2, 3, r=2), (F(2, 3), F(2, 3))),
            (stacked_spec("geometric", 3, 2, r=2), (1, 1)),
            (stacked_spec("quadratic", 2, 3), (2, 2)),
            (stacked_spec("quadratic", 3, 2), (3, 3)),
            (stacked_spec("sparse", 2, 4, r=1), (0, 1)),
            (stacked_spec("sparse", 2, 4), (0, 2)),
            (stacked_spec("geometric", 2, 2, r=3), (F(1, 2), F(1, 2))),
            (SystemSpec("identity", 2), (0, 0)),
            (two_block_spec(F(2, 3), 1, 2, 30), (F(2, 3), 1)),
            (two_block_spec(1, 2, 2, 4), (1, 2)),
            (two_block_spec(0, 1, 2, 4), (0, 1)),
            (two_block_spec(1, 1, 2, 4), (1, 1)),
            (two_block_spec(1, 3, 3, 4), (1, 3)),
        ],
    )
    def test_exact_limits_equal_the_targets(self, spec, limits):
        got = extrapolate(build_system(spec), range(1, 31))  # rows that tend to these limits
        assert got == limits == analytic_targets(spec)
        assert all(type(limit) is Fraction for limit in got)

    def test_two_block_takes_the_larger_half_on_each_subsequence(self):
        # a dense half above the sparse half's spikes wins on both
        # subsequences: the rows tend to 1 everywhere
        sparse = build_stacked(Schedule.geometric(1, 3, active=ACTIVE_SELF_POWERS), 2, 4)
        dense = build_stacked(Schedule.geometric(1, 1), 2, 4)
        two = two_block_system(F(1, 2), 1, 2, 4)
        two = two._replace(parts=((two.parts[0][0], sparse), (two.parts[1][0], dense)))
        assert extrapolate(two, range(1, 31)) == (1, 1)

    def test_three_parts_take_the_largest_of_their_limits(self):
        # both sparse parts spike at the same self powers, so on them the
        # rows tend to the r = 1 part's 1, and off them to the dense r = 2
        # part's 2/3
        third = F(1, 3)
        parts = [build_stacked(Schedule.geometric(1, r, active), 2, 4)
                 for r, active in ((1, ACTIVE_SELF_POWERS), (3, ACTIVE_SELF_POWERS),
                                   (2, ACTIVE_ALL))]
        system = System(2, tuple((Chart(i * third, third), part)
                                 for i, part in enumerate(parts)))
        assert extrapolate(system, range(1, 31)) == (F(2, 3), 1)

    def test_rows_approach_the_limits(self):
        # the ratios at k = 400 lie within 2 / k of the limits they tend to
        two = two_block_system(F(2, 3), 1, 2, 4)
        lo, hi = extrapolate(two, [256, 400])
        on, off = rate_profile(two, [256, 400])  # 256 = 4^4 is a self power
        assert abs(off.lower_ratio() - lo) < 2 / 400
        assert abs(on.lower_ratio() - hi) < 2 / 256
        assert abs(on.upper_ratio() - hi) < 2 / 256

    def test_an_empty_range_is_refused(self):
        # limits from no checked row would be a verdict no row supports
        with pytest.raises(ValueError, match="profile indices must be >= 1"):
            extrapolate(unit_system(build_stacked(Schedule.geometric(1, 1), 2, 3)), [])

