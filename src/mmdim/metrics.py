"""Bowen orbit metrics with exact rational comparisons.

d_m(x, y) = max over 0 <= i < m of d(f^i x, f^i y), with d the max norm, so
every value is an exact rational and every comparison with eps is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .mapping import ESCAPED, PAMap
from .geometry import Point


def dist_maxnorm(x: Point, y: Point) -> Fraction:
    return max(abs(a - b) for a, b in zip(x, y))


class BowenDistance(NamedTuple):
    """Exact Bowen distance under the max norm.

    `truncated` means one of the orbits escaped before step m, so the max ran
    over the surviving prefix only.
    """

    value: Fraction
    steps: int
    truncated: bool


def bowen_distance(pamap: PAMap, x: Point, y: Point, m: int) -> BowenDistance:
    if m < 1:
        raise ValueError("bowen_distance needs m >= 1")
    if len(x) != pamap.ambient.dim or len(y) != pamap.ambient.dim:
        raise ValueError("point dimension differs from ambient cube")
    best = dist_maxnorm(x, y)
    cx, cy = x, y
    steps = 1
    truncated = False
    for _ in range(m - 1):
        cx = pamap.apply(cx)
        cy = pamap.apply(cy)
        if cx is ESCAPED or cy is ESCAPED:
            truncated = True
            break
        d = dist_maxnorm(cx, cy)
        if d > best:
            best = d
        steps += 1
    return BowenDistance(best, steps, truncated)


def orbits_separate(orbit_x, orbit_y, eps: Fraction) -> bool:
    """Early-exit kernel on precomputed orbits: does some step exceed eps?

    Orbits are aligned state lists (ESCAPED entries allowed); iteration stops
    at the first escaped step, so the decision uses the surviving prefix.
    States may also hold integers with an integer `eps`: orbits and eps
    scaled by one common factor, as the greedy scan passes them, give the
    same decision, exactly, with no `Fraction` arithmetic.
    """
    for sx, sy in zip(orbit_x, orbit_y):
        if sx is ESCAPED or sy is ESCAPED:
            return False
        for a, b in zip(sx, sy):
            if a - b > eps or b - a > eps:
                return True
    return False
