"""Exact separated/spanning rate bounds and cylinder combinatorics.

Separation scales, per-step code counts, and the log quotients that bound
metric mean dimension are all stored as integer-argument log expressions
(sums c_i * ln(a_i) with rational c_i, integer a_i >= 2) and only evaluated
numerically on demand, with the standard library's `decimal` at WORKING_DPS
significant digits.  Every operation runs in one module-level context whose
exponent range is the widest `decimal` allows; `ln` is correctly rounded
there, and each ln(a) is computed once per process.  With integer
coefficients an expression is the log of a rational; `LogExpr.exp` returns it.

For block k of a stacked system (L_k legs per transverse axis) the scale is
eps_k = |E_k| / (2 L_k - 1).  The block's map is g = f∘f, f its horseshoe:
one step of f tells apart only its L_k^(n-1) strips at eps_k, while each
step of g codes L_k selected strips x L_k^(n-1) legs = L_k^n cylinders, so
depth-m words number L_k^(nm) (= 3^(knm) on the default leg schedule).  The quotient
n ln L_k / |ln eps_{k+1}| lower-bounds the dimension contribution of block k
and n ln L_k / ln(4 (2 L_k - 1) / |E_k|) upper-bounds it; both converge to
the same limit, which `extrapolate` gives exactly for rows that pass
`row_fault`.
"""

from __future__ import annotations

import itertools
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .constructions import (
    GEOMETRIC,
    IdentitySystem,
    Schedule,
    StackedSystem,
    System,
    TwoBlockSystem,
)
from .geometry import Box

if TYPE_CHECKING:
    from .horseshoe import HorseshoeMap

# Each evaluation ends as one float (about 16 significant digits).  Cancelling
# terms of a sum and dividing two sums cost a few of the 30 digits, far from
# the float's last one.
WORKING_DPS = 30

# Not the thread's context (28 digits): every operation names this one.
_CONTEXT = Context(prec=WORKING_DPS, Emax=MAX_EMAX, Emin=MIN_EMIN)


@cache
def _ln(a: int) -> Decimal:
    # a profile row reuses the arguments of its neighbours' rows
    return _CONTEXT.ln(a)


class LogExpr(NamedTuple):
    """Exact sum of rational multiples of logs of integers >= 2."""

    terms: tuple[tuple[int, Fraction], ...]  # (argument, coefficient), sorted

    @staticmethod
    def _normalize(parts: dict[int, Fraction]) -> "LogExpr":
        clean = {a: c for a, c in parts.items() if c != 0 and a != 1}
        return LogExpr(tuple(sorted(clean.items())))

    @staticmethod
    def zero() -> "LogExpr":
        return LogExpr(())

    @staticmethod
    def of(argument: int, coefficient=1) -> "LogExpr":
        if argument < 1:
            raise ValueError("log arguments must be positive integers")
        return LogExpr._normalize({argument: Fraction(coefficient)})

    @staticmethod
    def of_rational(q: Fraction, coefficient=1) -> "LogExpr":
        """ln(p/q) as ln p - ln q."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError("log arguments must be positive")
        c = Fraction(coefficient)
        return LogExpr._normalize({q.numerator: c, q.denominator: -c})

    def __add__(self, other: "LogExpr") -> "LogExpr":
        parts = dict(self.terms)
        for a, c in other.terms:
            parts[a] = parts.get(a, Fraction(0)) + c
        return LogExpr._normalize(parts)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def eval(self) -> Decimal:
        ctx = _CONTEXT
        total = Decimal(0)
        for a, c in self.terms:
            total = ctx.add(total, ctx.multiply(ctx.divide(c.numerator, c.denominator), _ln(a)))
        return total

    def to_float(self) -> float:
        return float(self.eval())

    def exp(self) -> Fraction:
        """exp of the expression, exactly; raises ValueError unless every
        coefficient is an integer."""
        value = Fraction(1)
        for a, c in self.terms:
            if c.denominator != 1:
                raise ValueError(f"exp is not rational: ln {a} has coefficient {c}")
            value *= Fraction(a) ** c.numerator
        return value


def log_ratio(num: LogExpr, den: LogExpr) -> float:
    """num/den at the working precision; zero numerator short-circuits to 0."""
    if num.is_zero:
        return 0.0
    d = den.eval()
    if d <= 0:
        raise ZeroDivisionError("log-expression denominator is not positive")
    return float(_CONTEXT.divide(num.eval(), d))


def _selected_strip_indices(L: int, n: int) -> list[int]:
    """L odd strip indices of an L-leg block whose mutual gaps beat its eps.

    There are L^(n-1) odd strips; taking every L^(n-2)-th one spaces the
    selected strips at least two s-cells apart relative to the eps grid, so
    cylinder seeds in distinct selected strips separate strictly in one
    application.  For n = 2 every odd strip is selected.
    """
    stride = L ** (n - 2)
    return [2 * j * stride + 1 for j in range(L)]


class _CodeFields(NamedTuple):
    k: int
    word: tuple[tuple[int, tuple[int, ...]], ...]


class CylinderCode(_CodeFields):
    """Depth-m itinerary of the squared block map: one (strip, leg) per step."""

    __slots__ = ()

    def __new__(cls, k, word):
        if not word:
            raise ValueError("cylinder codes need depth >= 1")
        for l, leg in word:
            _check_step(l, leg)
        return tuple.__new__(cls, (k, word))


@cache
def _check_step(l: int, leg: tuple[int, ...]) -> None:
    """Raise on an even or nonpositive index; a bad step raises every time."""
    if l % 2 == 0 or l < 1:
        raise ValueError(f"strip index {l} must be odd and positive")
    if any(i % 2 == 0 or i < 1 for i in leg):
        raise ValueError(f"leg index {leg} must be odd and positive")


def cylinder_geometry(h: HorseshoeMap, code: CylinderCode) -> Box:
    """Exact box of points whose squared-map itinerary follows the code.

    Transverse axes only contract, so the box is the first leg's t-cells
    times a first-axis interval: `HorseshoeMap.word_interval` of the 2m - 1
    strips the unsquared map visits, l_t and then the strip whose leg is
    step t+1's (the strip-to-leg bijection forces it) for each squared step
    t, and l_(m-1) last.
    """
    grid = h.grid
    for l, leg in code.word:
        if l not in h.leg_of:
            raise ValueError(f"strip {l} is not an odd strip of block {code.k}")
        if leg not in h.strip_of:
            grid.leg_box(leg)  # raises on a bad leg index
    strips = []
    for (l, _), (_, leg) in zip(code.word, code.word[1:]):
        strips += [l, h.strip_for_leg(leg)]
    first = h.word_interval(strips + [code.word[-1][0]])
    return Box((first,) + tuple((grid.t[i - 1], grid.t[i]) for i in code.word[0][1]))


def enumerate_cylinders(h: HorseshoeMap, k: int, m: int) -> Iterator[tuple[CylinderCode, Box]]:
    """Brute-force oracle: all L^(n m) depth-m codes over selected strips x legs."""
    strips = _selected_strip_indices(h.grid.L, h.grid.n)
    legs = h.grid.odd_leg_indices()
    steps = list(itertools.product(strips, legs))
    for word in itertools.product(steps, repeat=m):
        code = CylinderCode(k, tuple(word))
        yield code, cylinder_geometry(h, code)


class RateBound(NamedTuple):
    """Symbolic separated/spanning dimension bounds for one block index.

    `rate` is the per-step growth n ln L_k of the cylinder count; rate /
    lower_den bounds the separated growth against |ln eps_{k+1}| from below
    and rate / upper_den the spanning growth against ln(4 / eps_k) from
    above.  Inactive blocks carry a zero rate.
    """

    k: int
    active: bool
    rate: LogExpr
    lower_den: LogExpr
    upper_den: LogExpr
    eps_exact: Fraction | None
    eps_log_inv: LogExpr

    def lower_ratio(self) -> float:
        return log_ratio(self.rate, self.lower_den)

    def upper_ratio(self) -> float:
        return log_ratio(self.rate, self.upper_den)


def _zero_bound(k: int) -> RateBound:
    z = LogExpr.zero()
    return RateBound(k, False, z, z, z, None, z)


@cache
def _eps_log_inv(sched: Schedule, k: int) -> LogExpr:
    """|ln eps_k| as an exact log expression; exp of its negation is
    sched.eps(k), which `verify` and `profile` check on every row."""
    # row k's lower denominator is row k+1's eps log: each is built once
    expr = LogExpr.of(2 * sched.legs(k) - 1) + LogExpr.of_rational(sched.placed_B, -1)
    if sched.kind == GEOMETRIC:
        return expr + LogExpr.of(3, k * sched.r)
    return expr + LogExpr.of(k, 2)


def _growth(schedule: Schedule, n: int) -> tuple[int, Fraction, int]:
    """(c, a, b) with an active row's rate c k ln 3 and |ln eps_k| =
    a k ln 3 + b ln k + O(1), at every k but the finitely many leg overrides.

    L_k = 3^k gives the rate n ln L_k = n k ln 3 and ln(2 L_k - 1) =
    k ln 3 + O(1); the side |E_k| adds k r ln 3 (geometric) or 2 ln k
    (quadratic) to |ln eps_k|.  Active rows therefore tend to c / a, the
    n / (1 + r) or n the construction prescribes; `_stacked_fault` holds
    each row to these coefficients.
    """
    if schedule.kind == GEOMETRIC:
        return n, 1 + schedule.r, 0
    return n, Fraction(1), 2


def _stacked_bound(schedule: Schedule, n: int, k: int) -> RateBound:
    eps, log_inv = schedule.eps(k), _eps_log_inv(schedule, k)
    if not schedule.is_active(k):
        z = LogExpr.zero()
        return RateBound(k, False, z, z, z, eps, log_inv)
    L = schedule.legs(k)
    rate = LogExpr.of(3, n * k) if L == 3**k else LogExpr.of(L, n)
    lower_den = _eps_log_inv(schedule, k + 1)
    upper_den = LogExpr.of(4) + log_inv
    return RateBound(k, True, rate, lower_den, upper_den, eps, log_inv)


def rate_profile(system: System, k_range: Sequence[int]) -> list[RateBound]:
    """Symbolic profile rows for each k; needs no materialized geometry."""
    ks = sorted(set(k_range))
    if not ks or ks[0] < 1:
        raise ValueError("profile indices must be >= 1")
    if isinstance(system, IdentitySystem):
        return [_zero_bound(k) for k in ks]
    if isinstance(system, StackedSystem):
        return [_stacked_bound(system.schedule, system.n, k) for k in ks]
    if isinstance(system, TwoBlockSystem):
        halves = (system.lower, system.upper)
        return [_two_block_bound(system, *(_half_bound(h, system.n, k) for h in halves))
                for k in ks]
    raise TypeError(f"unknown system type {type(system).__name__}")


def _half_bound(half, n: int, k: int) -> RateBound:
    if isinstance(half, IdentitySystem):
        return _zero_bound(k)
    return _stacked_bound(half.schedule, n, k)


def _two_block_bound(system: TwoBlockSystem, low: RateBound, up: RateBound) -> RateBound:
    """Max rule: the combined bound at index k is the larger half's bound.

    Both halves sit in scale-2 charts, which shift |ln eps| by the constant
    ln 2; the constant drops out of every limit, so bounds are compared at
    equal k in inner coordinates.  The combined row is flagged active only
    at the sparse half's spikes, which is what separates the superior-limit
    subsequence from the inferior one downstream.
    """
    if (low.lower_ratio(), low.active) >= (up.lower_ratio(), up.active):
        winner, half = low, system.lower
    else:
        winner, half = up, system.upper
    spike = winner.active and isinstance(half, StackedSystem) and half.schedule.is_sparse
    return winner._replace(active=spike)


def _stacked_fault(schedule: Schedule, n: int, row: RateBound) -> str | None:
    """How a stacked row strays from its exact eps or from `_growth`, or None.

    exp(-|ln eps_k|) must be eps_k.  Outside the leg overrides the rate must
    be c k ln 3 exactly, and each log the row divides by, at its own index
    j (k + 1 for the lower denominator), must be a j ln 3 + b ln j + ln(1/B)
    plus a remainder in [0, ln 8]: ln((2 L_j - 1) / L_j) < ln 2 for |ln
    eps_j|, and ln 4 more for the upper denominator.
    """
    k, inverse = row.k, row.eps_log_inv.exp()
    if 1 / inverse != row.eps_exact:
        return f"k={k} eps={row.eps_exact} exp(-|ln eps|)={1 / inverse}"
    c, a, b = _growth(schedule, n)
    overridden = {kk for kk, _ in schedule.leg_override or ()}
    logs = [("|ln eps|", inverse, k)]
    if row.active:
        if k not in overridden and row.rate.exp() != 3 ** (c * k):
            return f"k={k} rate is not {c} k ln 3"
        logs += [("lower_den", row.lower_den.exp(), k + 1), ("upper_den", row.upper_den.exp(), k)]
    for name, value, j in logs:
        excess = value * schedule.placed_B / (3 ** int(a * j) * j**b)
        if j not in overridden and not 1 <= excess <= 8:
            return f"k={k} {name} is not {a} j ln 3 + {b} ln j + ln(1/B) + [0, ln 8] at j={j}"
    return None


def row_fault(system: System, k_range: Sequence[int]) -> str | None:
    """The first way a row at k_range strays from what `extrapolate` assumes, or None.

    Every stacked half's own rows pass `_stacked_fault`, and a two-block row
    is, but for its active flag, the row of a half with the larger lower
    ratio.  Rows that do, at every k, have the limits `extrapolate` gives.
    """
    two_block = isinstance(system, TwoBlockSystem)
    halves = (system.lower, system.upper) if two_block else (system,)
    for k in sorted(set(k_range)):
        rows = [_half_bound(half, system.n, k) for half in halves]
        for half, row in zip(halves, rows):
            if isinstance(half, StackedSystem):
                if (fault := _stacked_fault(half.schedule, system.n, row)) is not None:
                    return fault
        if two_block:
            row, best = _two_block_bound(system, *rows), max(half.lower_ratio() for half in rows)
            if not any(row._replace(active=half.active) == half and half.lower_ratio() == best
                       for half in rows):
                return f"k={k} two-block row is not its larger half's"
    return None


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float] | None:
    """Least-squares line y ~ intercept + slope * x, fitted about the means.

    Returns (slope, intercept, RMS residual), or None when all xs are equal.
    """
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residual = (sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / n) ** 0.5
    return slope, intercept, residual


def extrapolate(system: System) -> tuple[Fraction, Fraction]:
    """Exact (liminf, limsup) over k of the profile's ratios, for rows that
    pass `row_fault`.

    An active stacked row's rate c k ln 3 over either denominator, a k ln 3 +
    b ln k + O(1) (`_growth`), tends to c / a, and an inactive row is 0; a
    sparse schedule is active only at the self powers k = j^j, so its rows
    tend to c / a on them and to 0 off them.  Those are the stacked system's
    `analytic_targets`.  A two-block row is the larger half's, and both
    halves share the self powers, so on each subsequence it tends to the
    larger half's limit.
    """
    if isinstance(system, TwoBlockSystem):
        low, up = analytic_targets(system.lower), analytic_targets(system.upper)
        return max(low[0], up[0]), max(low[1], up[1])
    return analytic_targets(system)


def analytic_targets(system: System) -> tuple[Fraction, Fraction]:
    """Exact (liminf, limsup) the construction prescribes."""
    if isinstance(system, IdentitySystem):
        return Fraction(0), Fraction(0)
    if isinstance(system, StackedSystem):
        c, a, _ = _growth(system.schedule, system.n)
        return (Fraction(0) if system.schedule.is_sparse else c / a), c / a
    if isinstance(system, TwoBlockSystem):
        return system.alpha, system.beta
    raise TypeError(f"unknown system type {type(system).__name__}")
