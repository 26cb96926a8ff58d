"""Horseshoe systems with prescribed size/leg schedules, as charted stacked parts.

A schedule assigns block k (k = 1, 2, ...) a cube side |E_k| and the leg count
L_k = 3^k, plus an activity predicate.  Sizes follow either

* geometric decay  |E_k| = B / 3^(k r)  with an integer rate r >= 1 (any other
  r makes some side irrational, and `Schedule` refuses it), or
* quadratic decay  |E_k| = B / k^2, with B capped at QUADRATIC_SIZE_CAP.

A stacked system lays its blocks along the diagonal of [0, 1]^n: block k is
the cube [a_k, a_k + |E_k|]^n, with disjoint enlargements (a 1/10 side
margin per face, clipped to the unit cube).  The active blocks carry an
L_k-leg horseshoe f and the inactive ones the identity.  An active block's
map is g = f∘f, the map `estimate` scans: at the block's own eps, f's
separated counts grow by L_k^(n-1) per step and g's by L_k^n.

A `System` is its parts: each is a stacked system seen through a `Chart`, a
homothety of [0, 1]^n onto a cube inside it; everything outside the parts is
the identity.  Which parts a spec has, in which charts, is decided in
`specfile.spec_parts`: a stacked spec is one part in the unit chart, a
two-block spec two parts in the corner charts [0, 1/2]^n and [1/2, 1]^n,
and the identity none.

The systems record that layout; no command steps a whole system.  A block's
horseshoe, and with it the `horseshoe` and `mapping` layers, loads only when
`Block.geometry()` is first called.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .geometry import Cube

if TYPE_CHECKING:
    from .horseshoe import HorseshoeMap

GEOMETRIC = "geometric"
QUADRATIC = "quadratic"

ACTIVE_ALL = "all"
ACTIVE_SELF_POWERS = "self-powers"  # active exactly at k = j^j for j = 1, 2, ...

# Blocks whose horseshoe has more than this many pieces, L^(n-1), stay
# symbolic-only: their geometry is never built.
GEOMETRY_BUDGET = 100_000

# Each block's cube is enlarged by this fraction of its side per face; the
# enlargements of distinct blocks must have disjoint interiors.
MARGIN = Fraction(1, 10)

# Conservative rational bound: sum over k of 1/k^2 < 329/200, and each block
# consumes a slot of 1 + 2 MARGIN = 6/5 times its side, so quadratic sides
# rescale to keep B_eff * (6/5) * (329/200) <= 1, i.e. B_eff <= 500/987.
QUADRATIC_SIZE_CAP = 1 / ((1 + 2 * MARGIN) * Fraction(329, 200))


class ScheduleError(ValueError):
    pass


def _self_power_set(limit: int) -> set[int]:
    out, j = set(), 1
    while j**j <= limit:
        out.add(j**j)
        j += 1
    return out


class _ScheduleFields(NamedTuple):
    kind: str
    B: Fraction
    r: Fraction | None = None
    active: str = ACTIVE_ALL  # "all" | "self-powers"


class Schedule(_ScheduleFields):
    """Size law and activity pattern for a stacked system; L_k = 3^k."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (GEOMETRIC, QUADRATIC):
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")
        if self.B <= 0:
            raise ScheduleError("B must be positive")
        if self.kind == GEOMETRIC:
            if self.r is None or self.r <= 0:
                raise ScheduleError("geometric schedules need r > 0")
            if self.r.denominator != 1:
                raise ScheduleError("cannot place cubes with irrational sides (non-integer r)")
            if self.B > 3**self.r.numerator - 1:
                raise ScheduleError("geometric sizes must sum to at most 1 (B <= 3^r - 1)")
        else:
            if self.r is not None:
                raise ScheduleError("quadratic schedules take no rate r")
            if self.B > 1:
                raise ScheduleError("quadratic schedules need B <= 1")
        if self.active not in (ACTIVE_ALL, ACTIVE_SELF_POWERS):
            raise ScheduleError("active must be 'all' or 'self-powers'")
        return self

    @staticmethod
    def geometric(B, r, active=ACTIVE_ALL) -> "Schedule":
        return Schedule(GEOMETRIC, Fraction(B), Fraction(r), active)

    @staticmethod
    def quadratic(B, active=ACTIVE_ALL) -> "Schedule":
        return Schedule(QUADRATIC, Fraction(B), None, active)

    @property
    def is_sparse(self) -> bool:
        return self.active != ACTIVE_ALL

    @property
    def placed_B(self) -> Fraction:
        """B as placed: quadratic sides above the packing cap shrink to it."""
        if self.kind == QUADRATIC:
            return min(self.B, QUADRATIC_SIZE_CAP)
        return self.B

    def size(self, k: int) -> Fraction:
        """Exact placed side |E_k|."""
        if k < 1:
            raise ScheduleError("block indices start at 1")
        if self.kind == QUADRATIC:
            return self.placed_B / k**2
        return self.B / 3 ** (k * self.r.numerator)

    def eps(self, k: int) -> Fraction:
        """The one eps_k = |E_k| / (2 L_k - 1) every output prints."""
        return self.size(k) / (2 * self.legs(k) - 1)

    def legs(self, k: int) -> int:
        if k < 1:
            raise ScheduleError("block indices start at 1")
        return 3**k

    def is_active(self, k: int) -> bool:
        return self.active == ACTIVE_ALL or k in _self_power_set(k)


def place_cubes(schedule: Schedule, n: int, count: int) -> list[tuple[Fraction, Fraction]]:
    """Anchors a and sides for blocks 1..count inside [0, 1]^n; block k is
    the cube [a, a + side]^n.

    Geometric schedules use the closed-form anchors a_m = 1 - 3^(-m r), the
    partial sums of the slot lengths (1 - 3^(-r)) 3^(-i r), which sum to
    exactly 1; block k occupies the slot [a_{k-1}, a_k).  Quadratic
    schedules pack abutting slots of width (6/5)|E_k|; `Schedule.size` has
    already rescaled the sides when B exceeds the packing cap.
    """
    if n < 2:
        raise ScheduleError("systems need dimension n >= 2")
    if count < 0:
        raise ScheduleError("count must be >= 0")
    if count == 0:
        return []

    out: list[tuple[Fraction, Fraction]] = []
    if schedule.kind == GEOMETRIC:
        pow_r = 3**schedule.r.numerator
        # margins of MARGIN of each side must fit between consecutive blocks
        if schedule.B * (1 + MARGIN + MARGIN / pow_r) > pow_r - 1:
            raise ScheduleError(
                f"B too large for disjoint {MARGIN} enlargements under geometric placement"
            )
        for k in range(1, count + 1):
            out.append((1 - Fraction(1, pow_r ** (k - 1)), schedule.size(k)))
    else:
        slot_lo = Fraction(0)
        for k in range(1, count + 1):
            side = schedule.size(k)
            out.append((slot_lo + side * MARGIN, side))
            slot_lo += side * (1 + 2 * MARGIN)
    return out


class UnmaterializedBlockError(RuntimeError):
    pass


def build_horseshoe(cube: Cube, L: int) -> HorseshoeMap:
    """`horseshoe.build_horseshoe`, loaded on first use: `build`, `verify` and
    `profile` never build a horseshoe, so they never load that layer."""
    from .horseshoe import build_horseshoe as build
    return build(cube, L)


class _BlockFields(NamedTuple):
    k: int
    cube: Cube
    L: int
    active: bool


class Block(_BlockFields):
    """One cube of a stacked system.

    `materialized` says whether the block carries a horseshoe that may be
    built: it is active and its L^(n-1) pieces fit GEOMETRY_BUDGET.  The
    horseshoe itself is built by `geometry()` on first use and cached; the
    cache takes no part in equality, hashing or repr.
    """

    _horseshoe: HorseshoeMap | None = None

    @property
    def materialized(self) -> bool:
        # L > budget settles it without raising L to a huge power
        return (self.active and self.L <= GEOMETRY_BUDGET
                and self.L ** (self.cube.dim - 1) <= GEOMETRY_BUDGET)

    @property
    def horseshoe(self) -> HorseshoeMap | None:
        """The horseshoe if `geometry()` has built it, else None; builds nothing."""
        return self._horseshoe

    def geometry(self) -> HorseshoeMap:
        """The block's horseshoe, built on first use."""
        if self._horseshoe is None:
            if not self.active:
                raise UnmaterializedBlockError(f"block {self.k} is inactive; it has no horseshoe")
            if not self.materialized:
                raise UnmaterializedBlockError(f"block {self.k} exceeds the geometry budget")
            self._horseshoe = build_horseshoe(self.cube, self.L)
        return self._horseshoe


class StackedSystem(NamedTuple):
    n: int
    schedule: Schedule
    k_max: int
    blocks: tuple[Block, ...]

    def block(self, k: int) -> Block:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"block {k} is outside the file (kMax = {self.k_max})")
        return self.blocks[k - 1]


def build_stacked(schedule: Schedule, n: int, k_max: int) -> StackedSystem:
    blocks = tuple(
        Block(k, Cube(anchor, anchor + side, n), schedule.legs(k), schedule.is_active(k))
        for k, (anchor, side) in enumerate(place_cubes(schedule, n, k_max), start=1)
    )
    return StackedSystem(n, schedule, k_max, blocks)


class Chart(NamedTuple):
    """The homothety x -> offset + scale x on every axis of [0, 1]^n.

    A chart is bi-Lipschitz with constant 1/scale, which leaves metric mean
    dimension unchanged.
    """

    offset: Fraction
    scale: Fraction


UNIT = Chart(Fraction(0), Fraction(1))


class System(NamedTuple):
    """The stacked systems of `parts`, each a (Chart, StackedSystem) pair, in
    their charts; the identity outside them.  Points on a boundary two
    charts share belong to the first part."""

    n: int
    parts: tuple[tuple[Chart, StackedSystem], ...]
