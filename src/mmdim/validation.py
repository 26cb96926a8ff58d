"""The defining identities of a horseshoe, re-derived from its grid.

Only `validate` runs these checks, so they load with it and not with the
commands that build horseshoes to scan them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .geometry import find_interior_overlap
from .horseshoe import HorseshoeMap


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def validate_horseshoe(h: HorseshoeMap) -> tuple[CheckResult, ...]:
    """Check the defining identities; a failure is a check that did not pass."""
    grid, cube = h.grid, h.grid.cube
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str = ""):
        checks.append(CheckResult(name, passed, detail))

    L, n = grid.L, grid.n
    t_step = Fraction(cube.side, 2 * L - 1)
    s_step = Fraction(cube.side, 2 * L ** (n - 1) - 1)
    t_ok = len(grid.t) == 2 * L and all(
        b - a == t_step for a, b in zip(grid.t, grid.t[1:])
    ) and grid.t[0] == cube.lo and grid.t[-1] == cube.hi
    add("t-grid uniform spacing", t_ok)
    s_ok = len(grid.s) == 2 * L ** (n - 1) and all(
        b - a == s_step for a, b in zip(grid.s, grid.s[1:])
    ) and grid.s[0] == cube.lo and grid.s[-1] == cube.hi
    add("s-grid uniform spacing", s_ok)

    odd = grid.odd_strip_indices()
    assigned_strips = [l for l, _ in h.assignment]
    add(
        "one piece per odd strip",
        sorted(assigned_strips) == odd and len(h.pamap.pieces) == len(odd),
        f"assigned {sorted(assigned_strips)} vs odd strips {odd}",
    )
    add(
        "strip-to-leg assignment is a bijection",
        sorted(leg for _, leg in h.assignment) == sorted(grid.odd_leg_indices()),
    )

    def key(box):  # integer pairs: equal when the Fractions are, hashed with no modular inverse
        return tuple(x for lo, hi in box.intervals
                     for x in (lo.numerator, lo.denominator, hi.numerator, hi.denominator))

    by_domain = {key(p.domain): p for p in h.pamap.pieces}
    images_ok, crossing_ok, domains_ok = True, True, True
    detail = ""
    for l, leg in h.assignment:
        piece = by_domain.get(key(grid.strip_box(l)))
        if piece is None:
            domains_ok = False
            detail = f"no piece with domain = strip {l}"
            continue
        img = piece.map_box(piece.domain)
        if img != grid.leg_box(leg):
            images_ok = False
            detail = f"strip {l} image differs from leg {leg}"
        if img.intervals[0] != (cube.lo, cube.hi):
            crossing_ok = False
    add("piece domains are exactly the odd strips", domains_ok, detail)
    add("each strip maps onto its assigned leg", images_ok, detail)
    add("every leg crosses the full first axis", crossing_ok)

    # no two pieces (PAMap checks) or strips overlap: a hit is a piece and a strip
    domains = [p.domain for p in h.pamap.pieces]
    evens = [grid.strip_box(l) for l in range(2, grid.strip_count + 1, 2)]
    hit = find_interior_overlap(domains + evens)
    add("even strips escape (no piece covers them)", hit is None,
        "" if hit is None else f"piece {hit[0]} covers strip {2 * (hit[1] - len(domains)) + 2}")

    # a = lo, b = hi over den = lo.d hi.d; a fixed corner's image, over
    # den S, is the corner times S
    den, S = cube.lo.denominator * cube.hi.denominator, h.pamap.step_den
    a, b = cube.lo.numerator * cube.hi.denominator, cube.hi.numerator * cube.lo.denominator
    for name, corner in (("a,...,a,b", (a,) * (n - 1) + (b,)),
                         ("b,...,b,a", (b,) * (n - 1) + (a,))):
        before, after = h.pamap.orbit(corner, 1, den)
        add(f"corner ({name}) is fixed", after == tuple(x * S for x in before))

    return tuple(checks)
