"""Exact separated/spanning rate bounds and cylinder combinatorics.

A profile row holds exact values: its block's leg count L_k and the scales
eps_k and eps_{k+1}, as rationals.  Each log its ratios take is the log of
one of these, evaluated only on demand, with the standard library's
`decimal` at WORKING_DPS significant digits: ln q = ln p - ln d for q = p/d,
in one module-level context whose exponent range is the widest `decimal`
allows; `ln` is correctly rounded there, and each ln(a) is computed once per
process.  No decision evaluates a log: the two-block max rule
(`_larger_half`) and `extrapolate`, which holds every row to its growth
before it returns limits, compare rationals.

For block k of a stacked system (L_k legs per transverse axis) the scale is
eps_k = |E_k| / (2 L_k - 1).  The block's map is g' (`horseshoe.square`), f∘f
on the L_k selected strips of its horseshoe f: its L_k^n pieces are the L_k
selected strips x L_k^(n-1) legs, so depth-m words number L_k^(nm) =
3^(knm), as every block has L_k = 3^k.  The quotient n ln L_k / |ln eps_{k+1}|
lower-bounds the dimension contribution of block k; n ln L_k /
ln(4 (2 L_k - 1) / |E_k|) tends to the same limit but bounds nothing yet
(ROADMAP item 30).  `extrapolate` gives that limit exactly once the rows hold
to their growth; it raises `RowFault` on the first row that does not.
"""

from __future__ import annotations

import itertools
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .constructions import GEOMETRIC, Schedule, System
from .geometry import Box

if TYPE_CHECKING:
    from .horseshoe import HorseshoeMap

# Each evaluation ends as one float (about 16 significant digits).  The
# difference ln p - ln d and the quotient of two logs cost a few of the 30
# digits, far from the float's last one.
WORKING_DPS = 30

# Not the thread's context (28 digits): every operation names this one.
_CONTEXT = Context(prec=WORKING_DPS, Emax=MAX_EMAX, Emin=MIN_EMIN)


@cache
def _ln(a: int) -> Decimal:
    # a row's rate enters its CSV value and both of its ratios
    return _CONTEXT.ln(a)


def _ln_q(q: Fraction) -> Decimal:
    """ln q of a positive rational, at the working precision."""
    return _CONTEXT.subtract(_ln(q.numerator), _ln(q.denominator))


def cylinder_geometry(h: HorseshoeMap, word: Sequence[tuple[int, tuple[int, ...]]]) -> Box:
    """Exact box of points whose squared-map itinerary follows the word, one
    (strip, leg) step per application of g.

    Raises ValueError at a step whose strip is not one of the horseshoe's odd
    strips (`h.leg_of`), or whose leg is not one of its odd legs
    (`h.strip_of`): an even, nonpositive or out-of-range index, or a leg with
    the wrong number of axes.  Transverse axes only contract, so the box is
    the first leg's t-cells (`HorseshoeMap.leg_cells`) times a first-axis
    interval: the `word_interval` of the 2m - 1 strips the unsquared map
    visits, l_t and then the strip whose leg is step t+1's (the strip-to-leg
    bijection forces it) for each squared step t, and l_(m-1) last.
    """
    leg_of, strip_of = h.leg_of, h.strip_of
    for l, leg in word:
        if l not in leg_of:
            raise ValueError(f"strip {l} is not an odd strip of the horseshoe")
        if leg not in strip_of:
            raise ValueError(f"leg {leg} is not an odd leg of the horseshoe")
    strips = [x for (l, _), (_, leg) in zip(word, word[1:]) for x in (l, strip_of[leg])]
    strips.append(word[-1][0])
    return Box((h.word_interval(strips),) + h.leg_cells[word[0][1]])


def enumerate_cylinders(h: HorseshoeMap, m: int) -> Iterator[tuple[tuple, Box]]:
    """All L^(n m) depth-m words over selected strips x legs, with their boxes;
    `estimate`'s seeds are the boxes' centers."""
    grid = h.grid
    steps = tuple(itertools.product(grid.selected_strip_indices(), grid.odd_leg_indices()))
    for word in itertools.product(steps, repeat=m):
        yield word, cylinder_geometry(h, word)


class RateBound(NamedTuple):
    """One block index's rate and the scales it is divided by, held exactly.

    Each step of the block map g' codes L^n cylinders, so the rate is n ln L;
    rate / lower_den, with lower_den = ln(1 / eps_next) = |ln eps_{k+1}|,
    bounds the separated growth from below.  rate / upper_den, upper_den =
    ln(4 / eps_exact), has the same limit but no lemma yet bounds the growth
    by it (ROADMAP item 30).  A row of zero rate (an inactive block, or the
    identity) has L = 1 and no eps_next, and every other row is active.  The
    logs are evaluated only when asked for.
    """

    k: int
    n: int
    L: int
    eps_exact: Fraction | None
    eps_next: Fraction | None

    @property
    def rate(self) -> Decimal:
        return _CONTEXT.multiply(self.n, _ln(self.L))

    @property
    def lower_den(self) -> Decimal:
        return _ln_q(1 / self.eps_next)

    @property
    def upper_den(self) -> Decimal:
        return _ln_q(4 / self.eps_exact)

    def lower_ratio(self) -> float:
        return 0.0 if self.L == 1 else float(_CONTEXT.divide(self.rate, self.lower_den))

    def upper_ratio(self) -> float:
        return 0.0 if self.L == 1 else float(_CONTEXT.divide(self.rate, self.upper_den))


def _growth(schedule: Schedule) -> tuple[Fraction, int]:
    """(a, b) with |ln eps_k| = a k ln 3 + b ln k + O(1), where an active
    row's rate is n k ln 3.

    L_k = 3^k gives the rate n ln L_k = n k ln 3 and ln(2 L_k - 1) =
    k ln 3 + O(1); the side |E_k| adds k r ln 3 (geometric) or 2 ln k
    (quadratic) to |ln eps_k|.  Active rows therefore tend to n / a, the
    n / (1 + r) or n the construction prescribes; `_stacked_fault` holds
    each row to these coefficients.
    """
    if schedule.kind == GEOMETRIC:
        return 1 + schedule.r, 0
    return Fraction(1), 2


def _stacked_bound(schedule: Schedule, n: int, k: int) -> RateBound:
    if not schedule.is_active(k):
        return RateBound(k, n, 1, schedule.eps(k), None)
    return RateBound(k, n, schedule.legs(k), schedule.eps(k), schedule.eps(k + 1))


def _half_rows(system: System, k_range: Sequence[int]) -> Iterator[list[RateBound]]:
    """Each part's `_stacked_bound` row at each k of k_range, in increasing k;
    the identity's zero row alone for a system of no parts."""
    ks = sorted(set(k_range))
    if not ks or ks[0] < 1:
        raise ValueError("profile indices must be >= 1")
    for k in ks:
        yield [_stacked_bound(part.schedule, system.n, k) for _, part in system.parts] or [
            RateBound(k, system.n, 1, None, None)]


def rate_profile(system: System, k_range: Sequence[int]) -> list[RateBound]:
    """Profile rows for each k; needs no materialized geometry."""
    return [_larger_half(rows) for rows in _half_rows(system, k_range)]


def _rank(row: RateBound) -> Fraction:
    """Orders the halves' rows at one k as their lower ratios do, exactly.

    Every block has L_k = 3^k, so the halves' active rows share n and L_k
    (`_stacked_fault` checks it), and the larger ratio n ln L_k /
    |ln eps_{k+1}| has the larger eps_{k+1}.
    A zero rate (L = 1, an inactive row) ranks lowest; rows of equal rank
    are left to `_larger_half`'s tie rule.
    """
    return Fraction(0) if row.L == 1 else row.eps_next


def _larger_half(rows: Sequence[RateBound]) -> RateBound:
    """Max rule: a system's row at index k is the row of its part of the
    highest `_rank`; ties go to the first row, the lower half's.

    Both halves of a two-block system sit in charts of scale 1/2, which shift
    |ln eps| by the constant ln 2; the constant drops out of every limit, so
    rows are compared at equal k in inner coordinates.
    """
    return max(rows, key=_rank)


def _stacked_fault(schedule: Schedule, n: int, row: RateBound) -> str | None:
    """How a stacked row strays from `_growth` and the schedule's activity, or None.

    The row at an active k must have the rate n k ln 3, with L = 3^k, and
    the row at an inactive k the rate 0, with L = 1 and no eps_next.  Each
    scale whose log the row divides by, eps_j at its own index j (k + 1 for
    the lower denominator), must have |ln eps_j| =
    a j ln 3 + b ln j + ln(1/B) + ln((2 L_j - 1) / L_j), a remainder in
    [ln(5/3), ln 2).  The upper denominator is ln 4 + |ln eps_k| by
    definition.
    """
    k = row.k
    a, b = _growth(schedule)
    scales = [("|ln eps|", row.eps_exact, k)]
    if schedule.is_active(k):
        if (row.n, row.L) != (n, 3**k):
            return f"k={k} rate is not {n} k ln 3"
        scales.append(("lower_den", row.eps_next, k + 1))
    elif (row.L, row.eps_next) != (1, None):
        return f"k={k} rate is not 0 at an inactive block"
    for name, eps, j in scales:
        excess = schedule.placed_B / (eps * 3 ** int(a * j) * j**b)
        if not Fraction(5, 3) <= excess < 2:
            return (f"k={k} {name} is not {a} j ln 3 + {b} ln j + ln(1/B) + "
                    f"[ln(5/3), ln 2) at j={j}")
    return None


class RowFault(Exception):
    """A profile row strays from the growth its limits assume: one line, and exit 1."""


def extrapolate(system: System, k_range: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Exact (liminf, limsup) over k of the profile's ratios, once every row
    at k_range (one at least) holds to them; raises RowFault on the first row
    that does not.

    Each part's own row must pass `_stacked_fault`, and a system's row must
    be `max` of its parts' rows by `_rank`: the first row of top rank, the
    lower half's on a tie.  An active stacked row's rate n k ln 3
    over either denominator, a k ln 3 + b ln k + O(1), tends to n / a, with a
    the coefficient of `_growth`, and an inactive row is 0; a sparse schedule
    is active only at the self powers k = j^j, so its rows tend to n / a on
    them and to 0 off them.  A system's row is its larger part's.  Its limits
    are the largest of the parts' limits, and 0 with no part, only because
    every sparse part is active on the same self powers: on them, and off
    them, each part's rows tend to one value, so their max tends to the
    largest.  Two sparse parts active on disjoint index sets could lift the
    liminf of the max above every part's.
    """
    limits = [(Fraction(0), Fraction(0))]
    for _, part in system.parts:
        limit = system.n / _growth(part.schedule)[0]
        limits.append((Fraction(0) if part.schedule.is_sparse else limit, limit))
    for rows in _half_rows(system, k_range):
        for (_, part), row in zip(system.parts, rows):
            if (fault := _stacked_fault(part.schedule, system.n, row)) is not None:
                raise RowFault(fault)
        if _larger_half(rows) != max(rows, key=_rank):
            raise RowFault(f"k={rows[0].k} two-block row is not its larger half's")
    return max(lo for lo, _ in limits), max(hi for _, hi in limits)
