"""One step of a whole system, for the tests that check the stacked layout.

No command steps a whole system: the scans run one block's map, so this
map lives with the tests.  Inside an active block it is the block map
g = f∘f, the squared horseshoe that `estimate` scans (`horseshoe.square`);
inside an inactive block and outside every block it is the identity.  A two-block system conjugates each corner cube [0,1/2]^n and
[1/2,1]^n to its half's unit-cube system by the scale-2 homothety chart;
points on the shared boundary belong to the lower half.  ESCAPED is
absorbing.
"""

import functools
from fractions import Fraction

from mmdim.constructions import IdentitySystem, StackedSystem
from mmdim.horseshoe import square
from mmdim.mapping import ESCAPED
from oracles import apply_map, cube_contains

HALF = Fraction(1, 2)


def half_to_unit(p, lower: bool):
    if lower:
        return tuple(2 * c for c in p)
    return tuple(2 * c - 1 for c in p)


def unit_to_half(p, lower: bool):
    if lower:
        return tuple(c / 2 for c in p)
    return tuple((c + 1) / 2 for c in p)


def in_half(p, lower: bool) -> bool:
    if lower:
        return all(0 <= c <= HALF for c in p)
    return all(HALF <= c <= 1 for c in p)


@functools.cache
def block_map(block):
    """g = f∘f for the block's horseshoe f: the map `estimate` scans."""
    return square(block.geometry())


def apply_system(system, p):
    """The image of p under one step of a stacked, identity or two-block system."""
    if p is ESCAPED or isinstance(system, IdentitySystem):
        return p
    if isinstance(system, StackedSystem):
        for block in system.blocks:
            if cube_contains(block.cube, p):
                return apply_map(block_map(block), p) if block.active else p
        return p
    for lower, half in ((True, system.lower), (False, system.upper)):
        if in_half(p, lower):
            inner = apply_system(half, half_to_unit(p, lower))
            return ESCAPED if inner is ESCAPED else unit_to_half(inner, lower)
    return p
