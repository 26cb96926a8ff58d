"""Brute-force separated/spanning estimators over exact orbit computations.

Greedy selection runs in a canonical order (lexicographic on coordinates),
decides every comparison exactly, and stops scanning a pair at the first
iterate that already separates it.  Two points separate at (m, eps) when
their Bowen distance, max over 0 <= i < m of the max-norm distance of
f^i x and f^i y, exceeds eps.

The scan works on integer lattices fixed before it starts.  The seeds are
integer numerators over one denominator den; with g = lcm(den, eps's
denominator), every orbit holds its state t as integers over g S^t, S the
map's step denominator, and step t compares them with its own integer
threshold thr_t = eps g S^t.  Each comparison is then an `int` subtraction
deciding what the `Fraction` one decided.  Kept points are filed in a trie
(a cell list, Bentley, Stanat & Williams, IPL 1977, one level per axis per
step) keyed by their cells `x // thr_t` on every axis at each of the
first t* steps, t* being the number of leading states in which no orbit has
escaped.  Two points that are not separated are within the threshold at
each of those steps, so their cells differ by at most 1 at every level; a
seed walks the trie keeping the children c - 1, c and c + 1 of its own cell
c, and is compared only with the kept points in the leaves it reaches.
Every point that could reject it is among them, so the kept set is the one
the all-pairs scan keeps.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .constructions import System
from .horseshoe import HorseshoeMap, square
from .mapping import ESCAPED, PAMap, Point
from .symbolic import enumerate_cylinders, rate_profile


class SeedSet(NamedTuple):
    """Distinct points in canonical (lexicographic) order, each as integer
    numerators over the one denominator `den`."""

    points: tuple[Point, ...]
    den: int


def cylinder_centers(h: HorseshoeMap, m: int) -> SeedSet:
    """Centers of the L^(n m) depth-m selected cylinders of a block's
    horseshoe `h`; enumerates all of them, so the caller bounds L^(n m).

    The centers lie on the lattice of D0 = 2 lo.d side.d kappa^(2m-1) (2L-1).
    A cylinder's first-axis interval is a `word_interval` of 2m - 1 strips,
    [a, a + side / kappa^(2m-1)], whose center is a D0 + side.n lo.d (2L-1)
    over D0; its other axes are the t-cells of its first leg, and only the
    2L - 1 centers lo + side (2i - 1) / (2 (2L - 1)) of those occur.
    """
    lo, side, eta = h.grid.cube.lo, h.grid.cube.side, h.grid.leg_cell_count
    power = h.grid.strip_count ** (2 * m - 1)
    den = 2 * lo.denominator * side.denominator * power * eta
    # half a first-axis width and half a t-cell's, times den
    half, t_half = side.numerator * lo.denominator * eta, side.numerator * lo.denominator * power
    base = lo.numerator * (den // lo.denominator)
    t_center = [base + (2 * i - 1) * t_half for i in range(eta + 1)]
    points, words = set(), 0
    for word, box in enumerate_cylinders(h, m):
        a, d = box.intervals[0][0].as_integer_ratio()
        points.add((a * (den // d) + half, *[t_center[i] for i in word[0][1]]))
        words += 1
    if len(points) != words:
        raise AssertionError("cylinder centers must be pairwise distinct")
    return SeedSet(tuple(sorted(points)), den)


def orbits_separate(orbit_x, orbit_y, thresholds) -> bool:
    """Early-exit kernel on precomputed orbits: does some step t differ by
    more than thresholds[t]?

    Orbits are aligned state lists (ESCAPED entries allowed); iteration stops
    at the first escaped step, so the decision uses the surviving prefix.
    `Fraction` states take eps at every step.  States may also hold integers
    with integer thresholds: state t and thresholds[t] scaled by one common
    factor, as the greedy scan passes them, give the same decision, exactly,
    with no `Fraction` arithmetic.
    """
    for sx, sy, thr in zip(orbit_x, orbit_y, thresholds):
        if sx is ESCAPED or sy is ESCAPED:
            return False
        for a, b in zip(sx, sy):
            if a - b > thr or b - a > thr:
                return True
    return False


class GreedyResult(NamedTuple):
    chosen: tuple[Point, ...]  # kept seeds, over the seeds' den
    seed_count: int
    pairs: int  # orbits_separate calls the scan made


def greedy_separated(
    pamap: PAMap,
    seeds: SeedSet,
    m: int,
    eps: Fraction,
) -> GreedyResult:
    """Maximal subset with pairwise Bowen distance strictly above eps.

    The chosen count lower-bounds the separated number of the seed set at
    (m, eps); every seed lies within eps of a chosen point, so the chosen
    points are also an eps-spanning set of the seeds.

    Seeds are taken in order and each is kept when it is separated from
    every point kept before it.  The comparisons run on the integer lattices
    of the module docstring: at step t eps becomes the integer
    `thr_t = eps g S^t`, which `orbits_separate` compares with state t
    exactly as it compared eps.  Only kept points in the trie leaves a seed
    reaches are compared with it; a point outside them differs from the
    seed by more than `thr_t` on some axis at some step t before t*, where
    neither orbit has escaped, so it is separated and cannot reject the
    seed.  Every frontier node holds a kept point, so
    the frontier at each level is at most three times the previous one and
    never larger than the kept set; after step 0's levels the candidates are
    a subset of those in the 3 x 3 step-0 cells of the first two axes.  The
    order in which the candidates are tried decides only how many are
    compared, never whether the seed is kept.
    """
    if m < 1:
        raise ValueError("greedy selection needs m >= 1")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts, den = seeds.points, seeds.den
    g = math.lcm(den, eps.denominator)
    lattice = pts if g == den else [tuple(x * (g // den) for x in p) for p in pts]
    orbits = [pamap.orbit(p, m - 1, g) for p in lattice]
    thresholds = [eps.numerator * (g // eps.denominator) * pamap.step_den**t for t in range(m)]
    # t*: the leading states in which no orbit has escaped (state 0 never has)
    steps = next((t for t in range(m) if any(o[t] is ESCAPED for o in orbits)), m)
    trie: dict = {}
    chosen: list[int] = []
    pairs = 0
    for i, orbit in enumerate(orbits):
        key = [x // thr for state, thr in zip(orbit[:steps], thresholds) for x in state]
        frontier = [trie]
        for c in key:
            frontier = [h for node in frontier for d in (c - 1, c, c + 1) if (h := node.get(d))]
            if not frontier:
                break
        for j in itertools.chain.from_iterable(frontier):
            pairs += 1
            if not orbits_separate(orbit, orbits[j], thresholds):
                break
        else:
            chosen.append(i)
            node = trie
            for c in key[:-1]:
                node = node.setdefault(c, {})
            node.setdefault(key[-1], []).append(i)
    return GreedyResult(tuple(pts[i] for i in chosen), len(pts), pairs)


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of y against x, fitted about the means; the xs
    must not all be equal."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


# Cylinders a scan may enumerate per depth.
CYLINDER_BUDGET = 1_000_000


class NumericRateRow(NamedTuple):
    """Measured growth of one block, ready for profile CSV export.

    `rate` is the growth of the greedy separated count, a lower bound; its
    ratios use the symbolic row's two denominators.  `upper_ratio` therefore
    certifies nothing yet: the kept set spans the seeds, not the block, and
    no count bounds the block's spanning number from above (ROADMAP item 5).
    A row with an `error` has no rate: either nothing was scanned, or
    `expected` is set and the last depth in `counts` kept another count.
    """

    k: int
    eps_exact: Fraction | None
    counts: dict[int, int]
    seeds: dict[int, int]  # per m, like counts
    pairs: dict[int, int]  # GreedyResult.pairs per m
    rate: float = 0.0
    ratio: float = 0.0  # rate / |ln eps_{k+1}|, comparable with the symbolic rows
    upper_ratio: float = 0.0  # rate / (ln 4 + |ln eps_k|)
    error: str | None = None
    expected: Fraction | None = None  # the symbolic count exp(m rate) the last depth missed


def mdim_numeric_profile(
    system: System,
    k: int,
    m_max: int = 3,
    eps_override: Fraction | None = None,
) -> NumericRateRow:
    """Greedy growth rate of block k of a system's one part, in the unit
    chart, over depths 1..m_max; m_max < 2 raises.

    Before any geometry is built: a k outside 1..k_max is refused (rate_profile
    would form L_k = 3^k), an inactive block gives a zero row, and a block
    whose symbolic cylinder count exp(m rate) exceeds CYLINDER_BUDGET at some
    depth is refused, naming the first such depth.  A refusal is an error row
    with no counts.  An unmaterialized block (L^(n-1) > GEOMETRY_BUDGET) is
    over the budget at m = 2 already, so its geometry is never asked for.

    Then each depth's cylinder centers are built and scanned in turn.  At
    the block's own eps they are the witness for sep(m, eps_k) >= exp(m rate),
    so the first depth that keeps another count ends the scans with an error
    row whose `expected` is that count.  With `eps_override` the scans run at
    that scale instead, and their counts decide nothing.
    """
    if m_max < 2:
        raise ValueError(f"a growth rate needs depths 1..m_max with m_max >= 2, got {m_max}")
    ((_, stacked),) = system.parts
    try:
        block = stacked.block(k)
    except ValueError as exc:
        return NumericRateRow(k, None, {}, {}, {}, error=str(exc))
    native = stacked.schedule.eps(k)
    if not block.active:
        return NumericRateRow(k, native, {}, {}, {})
    (bound,) = rate_profile(system, [k])
    per_step = bound.L**bound.n  # cylinders per step of the squared map
    expected = {}
    for m in range(1, m_max + 1):
        expected[m] = per_step**m
        if expected[m] > CYLINDER_BUDGET:
            error = f"{expected[m]} cylinders at (k={k}, m={m}) exceed budget {CYLINDER_BUDGET}"
            return NumericRateRow(k, native, {}, {}, {}, error=error)
    h = block.geometry()
    g = square(h)
    eps = native if eps_override is None else Fraction(eps_override)
    counts: dict[int, int] = {}
    seeds: dict[int, int] = {}
    pairs: dict[int, int] = {}
    for m in range(1, m_max + 1):
        # each depth's seeds are built when its scan runs
        result = greedy_separated(g, cylinder_centers(h, m), m, eps)
        counts[m], seeds[m], pairs[m] = len(result.chosen), result.seed_count, result.pairs
        if eps_override is None and counts[m] != expected[m]:
            error = f"{counts[m]} of {expected[m]} cylinder centers separated at m={m}"
            return NumericRateRow(k, eps, counts, seeds, pairs, error=error, expected=expected[m])
    rate = fit_slope(list(counts), [math.log(c) for c in counts.values()])
    return NumericRateRow(k, eps, counts, seeds, pairs, rate,
                          rate / float(bound.lower_den), rate / float(bound.upper_den))
