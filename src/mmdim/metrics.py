"""Bowen orbit metrics with exact rational comparisons.

d_m(x, y) = max over 0 <= i < m of d(f^i x, f^i y).  Under the max norm the
value is an exact rational.  Under the euclidean metric we work with squared
distances throughout, so the comparison d > eps is decided exactly as
d^2 > eps^2 without ever taking a square root.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .mapping import ESCAPED, PAMap
from .geometry import Point

MAXNORM = "maxnorm"
EUCLIDEAN = "euclidean"
METRICS = (MAXNORM, EUCLIDEAN)


def dist_maxnorm(x: Point, y: Point) -> Fraction:
    return max(abs(a - b) for a, b in zip(x, y))


def dist_euclid_sq(x: Point, y: Point) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(x, y))


def _step_dist(x: Point, y: Point, metric: str) -> Fraction:
    if metric == MAXNORM:
        return dist_maxnorm(x, y)
    if metric == EUCLIDEAN:
        return dist_euclid_sq(x, y)
    raise ValueError(f"unknown metric {metric!r}")


class BowenDistance(NamedTuple):
    """Exact Bowen distance.  `value` is the squared distance under euclidean.

    `truncated` means one of the orbits escaped before step m, so the max ran
    over the surviving prefix only.
    """

    value: Fraction
    steps: int
    truncated: bool


def bowen_distance(pamap: PAMap, x: Point, y: Point, m: int, metric: str = MAXNORM) -> BowenDistance:
    if m < 1:
        raise ValueError("bowen_distance needs m >= 1")
    if len(x) != pamap.ambient.dim or len(y) != pamap.ambient.dim:
        raise ValueError("point dimension differs from ambient cube")
    best = _step_dist(x, y, metric)
    cx, cy = x, y
    steps = 1
    truncated = False
    for _ in range(m - 1):
        cx = pamap.apply(cx)
        cy = pamap.apply(cy)
        if cx is ESCAPED or cy is ESCAPED:
            truncated = True
            break
        d = _step_dist(cx, cy, metric)
        if d > best:
            best = d
        steps += 1
    return BowenDistance(best, steps, truncated)


def compare_separation(value: Fraction, eps: Fraction, metric: str = MAXNORM) -> bool:
    """Exact strict test d > eps, with `value` in squared form for euclidean."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if metric == MAXNORM:
        return value > eps
    if metric == EUCLIDEAN:
        return value > eps * eps
    raise ValueError(f"unknown metric {metric!r}")


def orbits_separate(orbit_x, orbit_y, eps: Fraction, metric: str = MAXNORM) -> bool:
    """Early-exit kernel on precomputed orbits: does some step exceed eps?

    Orbits are aligned state lists (ESCAPED entries allowed); iteration stops
    at the first escaped step, so the decision uses the surviving prefix.
    States may also hold integers with an integer `eps`: orbits and eps
    scaled by one common factor, as the greedy scan passes them, give the
    same decision, exactly, with no `Fraction` arithmetic.
    """
    threshold = eps if metric == MAXNORM else eps * eps
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    for sx, sy in zip(orbit_x, orbit_y):
        if sx is ESCAPED or sy is ESCAPED:
            return False
        if metric == MAXNORM:
            for a, b in zip(sx, sy):
                if a - b > threshold or b - a > threshold:
                    return True
        else:
            if dist_euclid_sq(sx, sy) > threshold:
                return True
    return False
