"""One step of a whole system, for the tests that check the stacked layout.

No command steps a whole system: the scans run one block's map, so this
map lives with the tests.  Inside an active block it is the block map
g = f∘f, the squared horseshoe that `estimate` scans (`horseshoe.square`);
inside an inactive block and outside every block it is the identity.  A
system steps a point through the first part whose chart holds it, conjugated
by that chart: the point is taken to the part's unit cube, stepped there, and
taken back.  So points on the boundary the two corner charts of a two-block
system share belong to the lower half, and points in no chart are fixed.
ESCAPED is absorbing.
"""

import functools

from mmdim.constructions import UNIT, System
from mmdim.horseshoe import square
from mmdim.mapping import ESCAPED
from oracles import apply_map, cube_contains


def unit_system(stacked) -> System:
    """A stacked system as the one part of a system, in the unit chart."""
    return System(stacked.n, ((UNIT, stacked),))


@functools.cache
def block_map(block):
    """g = f∘f for the block's horseshoe f: the map `estimate` scans."""
    return square(block.geometry())


def _apply_stacked(stacked, p):
    """The image of p in [0, 1]^n under one step of a stacked system."""
    for block in stacked.blocks:
        if cube_contains(block.cube, p):
            return apply_map(block_map(block), p) if block.active else p
    return p


def apply_system(system, p):
    """The image of p under one step of a system of charted stacked parts."""
    if p is ESCAPED:
        return p
    for chart, part in system.parts:
        inner = tuple((c - chart.offset) / chart.scale for c in p)
        if all(0 <= c <= 1 for c in inner):
            image = _apply_stacked(part, inner)
            return ESCAPED if image is ESCAPED else tuple(
                chart.offset + chart.scale * c for c in image)
    return p
