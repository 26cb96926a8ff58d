"""End-to-end acceptance checks, one test per advertised guarantee.

Each test times its own work, checks the stated limits or tolerance, and prints a
single `ACCEPTANCE <i>: PASS -- ...` verdict line on success (pytest's -rP
summary echoes those lines); a failing check surfaces as that test's own
FAILED line, so `pytest -v` always shows one verdict per criterion.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from test_estimators import measured_growth, naive_greedy
from test_horseshoe import MUTANTS

from mmdim.constructions import (
    ACTIVE_SELF_POWERS,
    Schedule,
    build_stacked,
)
from mmdim.estimators import (
    cylinder_centers,
    greedy_separated,
    mdim_numeric_profile,
)
from mmdim.horseshoe import build_horseshoe, square
from mmdim.mapping import ESCAPED
from mmdim.symbolic import (
    enumerate_cylinders,
    extrapolate,
    rate_profile,
)
from mmdim.validation import validate_horseshoe
from oracles import (
    bowen_distance,
    box_center,
    box_intersect,
    box_of,
    cube_of,
    enlarged_box,
    find_box_overlap,
    seed_set,
    strip_word_box,
)
from system_maps import two_block_system, unit_system

F = Fraction


def _strictly_increasing(xs):
    return all(b > a for a, b in zip(xs, xs[1:]))


def test_criterion_1_unit_target_on_the_square():
    t0 = time.perf_counter()
    system = unit_system(build_stacked(Schedule.geometric(1, 1), 2, 3))
    rows = rate_profile(system, range(1, 25))
    lows = [row.lower_ratio() for row in rows]
    ups = [row.upper_ratio() for row in rows]
    assert _strictly_increasing(lows)
    assert _strictly_increasing(ups)
    assert extrapolate(system, range(1, 25)) == (1, 1)
    assert 1 - lows[-1] < 2 / 24 and 1 - ups[-1] < 2 / 24
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(
        "ACCEPTANCE 1: PASS -- n=2 r=1 ratios climb over k=1..24 "
        f"(k=24: {lows[-1]:.6f}, {ups[-1]:.6f}) to the exact limits liminf = limsup = 1 "
        f"in {elapsed:.2f}s"
    )


def test_criterion_2_prescribed_targets_in_other_dimensions():
    reports = []
    for n, target in ((3, F(1)), (2, F(1, 2))):
        t0 = time.perf_counter()
        schedule = Schedule.geometric(1, n / target - 1)
        system = unit_system(build_stacked(schedule, n, 2))
        lows = [row.lower_ratio() for row in rate_profile(system, range(1, 25))]
        assert _strictly_increasing(lows) and lows[-1] < target
        assert extrapolate(system, range(1, 25)) == (target, target)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"(n={n}) took {elapsed:.2f}s"
        reports.append(
            f"n={n} r={schedule.r} target {target}: ratio(24)={lows[-1]:.5f}, "
            f"exact limits {target} in {elapsed:.2f}s"
        )
    print("ACCEPTANCE 2: PASS -- " + "; ".join(reports))


def test_criterion_3_quadratic_sizes_reach_full_dimension():
    n = 2
    t0 = time.perf_counter()
    system = unit_system(build_stacked(Schedule.quadratic(1), n, 2))
    rows = rate_profile(system, range(1, 101))
    lows = [row.lower_ratio() for row in rows]
    assert _strictly_increasing(lows)
    assert lows[-1] > 0.9 * n
    assert extrapolate(system, range(1, 101)) == (n, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(
        "ACCEPTANCE 3: PASS -- quadratic n=2 ratios climb over k=1..100, "
        f"ratio(100)={lows[-1]:.4f} > {0.9 * n}, exact limits liminf = limsup = {n} "
        f"in {elapsed:.2f}s"
    )


def test_criterion_4_greedy_keeps_every_cylinder_center(geometric_system):
    t0 = time.perf_counter()
    block = geometric_system.block(1)
    sq = square(block.geometry())
    seeds = cylinder_centers(block.geometry(), 3)
    result = greedy_separated(sq, seeds, 3, geometric_system.schedule.eps(1))
    elapsed = time.perf_counter() - t0
    expected = block.L ** (geometric_system.n * 3)
    assert len(result.chosen) == expected == 729
    assert all(sq.orbit(p, 2, seeds.den)[-1] is not ESCAPED for p in seeds.points)
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        "ACCEPTANCE 4: PASS -- greedy scan at m=3, eps=1/15 keeps all "
        f"{len(result.chosen)}/729 cylinder centers of block 1 in {elapsed:.2f}s"
    )


def test_criterion_5_cylinder_enumeration_counts_and_disjointness():
    t0 = time.perf_counter()
    counts = []
    for n in (2, 3):
        system = build_stacked(Schedule.geometric(1, 1), n, 1)
        h = system.block(1).geometry()
        for m in (1, 2, 3):
            boxes = [box for _, box in enumerate_cylinders(h, m)]
            assert len(boxes) == 3 ** (n * m)
            assert find_box_overlap(boxes) is None
            counts.append(f"n={n} m={m}: {len(boxes)}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        "ACCEPTANCE 5: PASS -- enumerated cylinder families with pairwise "
        f"disjoint interiors ({'; '.join(counts)}) in {elapsed:.2f}s"
    )


def test_criterion_6_measured_growth_matches_exact_slopes(geometric_system):
    t0 = time.perf_counter()
    block = geometric_system.block(1)
    h = block.geometry()
    eps = geometric_system.schedule.eps(1)

    counts, squared, residual = measured_growth(
        square(h), lambda m: cylinder_centers(h, m), eps, (1, 2, 3)
    )
    assert counts == {1: 9, 2: 81, 3: 729}
    assert abs(squared - 2 * math.log(3)) < 1e-6
    assert residual < 1e-9

    odd = h.grid.odd_strip_indices()

    def word_centers(m):
        words = itertools.product(odd, repeat=m)
        return seed_set(box_center(strip_word_box(h, w)) for w in words)

    counts, single, residual = measured_growth(h.pamap, word_centers, eps, (1, 2, 3, 4))
    assert counts == {1: 3, 2: 9, 3: 27, 4: 81}
    assert abs(single - math.log(3)) < 1e-6
    assert residual < 1e-9
    elapsed = time.perf_counter() - t0
    print(
        "ACCEPTANCE 6: PASS -- measured slopes "
        f"{squared:.9f} (g = f∘f, the block's map; "
        f"2 ln 3 = {2 * math.log(3):.9f}) and "
        f"{single:.9f} (one step of its horseshoe f; ln 3 = {math.log(3):.9f}), "
        f"both within 1e-6, in {elapsed:.2f}s"
    )


def test_criterion_7_two_block_limits_split_and_obey_max_rule():
    t0 = time.perf_counter()
    alpha, beta = F(2, 3), F(1)
    system = two_block_system(alpha, beta, 2, 30)
    ks = range(1, 31)
    rows = rate_profile(system, ks)
    assert extrapolate(system, ks) == (alpha, beta)

    sparse_rows, dense_rows = (rate_profile(unit_system(part), ks) for _, part in system.parts)
    # the sparse half's row at its spikes, the dense half's between them
    assert {row.k for row, srow in zip(rows, sparse_rows) if row == srow} == {1, 4, 27}
    for row, srow, drow in zip(rows, sparse_rows, dense_rows):
        best = max(srow.lower_ratio(), drow.lower_ratio())
        assert abs(row.lower_ratio() - best) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 7: PASS -- two-block (2/3, 1): exact liminf = {alpha}, "
        f"limsup = {beta}, spikes at k in {{1, 4, 27}}, every row equals the larger "
        f"half's bound, in {elapsed:.2f}s"
    )


def test_criterion_8_property_batteries(geometric_system, unit_square_h):
    t0 = time.perf_counter()

    # round-trip validation across leg counts and dimensions, and the five
    # canonical mutants each tripping the checks named for their defect
    for L, n in itertools.product((3, 5, 9), (2, 3)):
        checks = validate_horseshoe(build_horseshoe(cube_of(0, 1, n), L))
        assert [c for c in checks if not c.passed] == [], f"L={L} n={n}"
        assert len(checks) == 10
    for name, (builder, expected_failures) in MUTANTS.items():
        failed = {c.name for c in validate_horseshoe(builder()) if not c.passed}
        assert expected_failures <= failed, f"{name}: caught {failed}"

    # orbit-metric axioms on 1000 seeded random rational pairs; the triangle
    # inequality is asserted on the survivor stratum (truncated values are
    # prefix maxima and deliberately undershoot)
    rng = random.Random(20260814)
    pm = unit_square_h.pamap

    def rational_point():
        return (F(rng.randrange(61), 60), F(rng.randrange(61), 60))

    survivors = 0
    for _ in range(1000):
        x, y, z = rational_point(), rational_point(), rational_point()
        dxy = bowen_distance(pm, x, y, 2)
        assert dxy == bowen_distance(pm, y, x, 2)
        assert bowen_distance(pm, x, x, 3).value == 0
        d1 = bowen_distance(pm, x, y, 1).value
        d3 = bowen_distance(pm, x, y, 3).value
        assert d1 <= dxy.value <= d3
        dxz = bowen_distance(pm, x, z, 2)
        dzy = bowen_distance(pm, z, y, 2)
        if not (dxy.truncated or dxz.truncated or dzy.truncated):
            survivors += 1
            assert dxy.value <= dxz.value + dzy.value
    assert survivors > 100, f"only {survivors} fully surviving triples"

    # the greedy scan keeps exactly the seeds a naive pairwise scan keeps
    block = geometric_system.block(1)
    sq = square(block.geometry())
    seeds = cylinder_centers(block.geometry(), 2)
    eps = geometric_system.schedule.eps(1)
    chosen = greedy_separated(sq, seeds, 2, eps).chosen
    assert chosen == naive_greedy(sq, seeds, 2, eps)

    # enlarged block cubes stay inside the ambient cube with pairwise
    # disjoint interiors, for every materialized family we build
    two = two_block_system(F(2, 3), F(1), 2, 4)
    systems = [
        geometric_system,
        build_stacked(Schedule.geometric(1, 2), 3, 2),
        build_stacked(Schedule.quadratic(1), 2, 3),
        build_stacked(Schedule.geometric(1, 1, active=ACTIVE_SELF_POWERS), 2, 4),
        *(part for _, part in two.parts),
    ]
    for system in systems:
        enlargements = [enlarged_box(b.cube) for b in system.blocks]
        assert find_box_overlap(enlargements) is None
        unit = box_of(*(((0, 1),) * system.n))
        for box in enlargements:
            assert box_intersect(unit, box) == box  # inside the unit cube

    # no estimate, measured or symbolic, ever exceeds the ambient dimension
    for system in (geometric_system, build_stacked(Schedule.quadratic(1), 2, 1)):
        row = mdim_numeric_profile(unit_system(system), 1, m_max=2)
        assert row.error is None and row.counts
        at_eps = row.rate / math.log(1 / system.schedule.eps(row.k))
        assert row.ratio <= 2 and row.upper_ratio <= 2 and at_eps <= 2
    for system in [*map(unit_system, systems), two]:
        for row in rate_profile(system, range(1, 41)):
            assert row.lower_ratio() <= system.n + 1e-15
            assert row.upper_ratio() <= system.n + 1e-15

    elapsed = time.perf_counter() - t0
    print(
        "ACCEPTANCE 8: PASS -- validator 6/6 + 5 mutants caught, orbit-metric "
        f"axioms x1000 ({survivors} full triangles), greedy equal to a naive "
        f"scan on {len(seeds.points)} seeds, "
        "disjoint enlargements in 6 families, all ratios <= n, "
        f"in {elapsed:.2f}s"
    )
