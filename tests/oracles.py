"""Oracles and constructors that only the tests use.

No command runs these, so they live beside the tests rather than in the
package: the naive Bowen distance the greedy scan's kernel is checked
against, the unsquared word boxes and block enlargements of the acceptance
criteria, the box intersections and the overlap sweep for boxes of any
shape, the `Fraction` box centers, piece images and seed sets the lattice
paths replaced, the Fraction-coercing constructors and containment tests
the tests write their cases with, and the `argparse` parser the command line
was read with before `mmdim.cli` read it from its own table.
"""

import argparse
import math
import os
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from mmdim import cli
from mmdim.constructions import MARGIN
from mmdim.estimators import SeedSet
from mmdim.geometry import Box, Cube
from mmdim.horseshoe import HorseshoeMap
from mmdim.mapping import ESCAPED, AffinePiece, PAMap
from mmdim.specfile import MAX_STORED_DIGITS

Point = tuple[Fraction, ...]


def box_of(*intervals: Sequence) -> Box:
    """Box from (lo, hi) pairs of anything Fraction accepts."""
    return Box(tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals))


def cube_of(lo, hi, dim: int) -> Cube:
    return Cube(Fraction(lo), Fraction(hi), dim)


def cube_box(cube: Cube) -> Box:
    return Box(((cube.lo, cube.hi),) * cube.dim)


def box_contains(box: Box, p: Point) -> bool:
    if len(p) != box.dim:
        raise ValueError("dimension mismatch")
    return all(lo <= x <= hi for x, (lo, hi) in zip(p, box.intervals))


def cube_contains(cube: Cube, p: Point) -> bool:
    return box_contains(cube_box(cube), p)


def is_degenerate(box: Box) -> bool:
    """True if some axis has zero width (empty interior)."""
    return any(lo == hi for lo, hi in box.intervals)


def box_intersect(a: Box, b: Box) -> Box | None:
    """Exact intersection; None when empty."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    ivs = []
    for (alo, ahi), (blo, bhi) in zip(a.intervals, b.intervals):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return None
        ivs.append((lo, hi))
    return Box(tuple(ivs))


def interiors_overlap(a: Box, b: Box) -> bool:
    hit = box_intersect(a, b)
    return hit is not None and not is_degenerate(hit)


def find_box_overlap(boxes: Sequence[Box]) -> tuple[int, int] | None:
    """Return (i, j), i < j, with boxes[i] and boxes[j] overlapping in
    interior, or None: `geometry.find_interior_overlap` for boxes of any
    shape, such as cylinders and block enlargements."""
    for i, j in first_axis_sweep(boxes):
        if interiors_overlap(boxes[i], boxes[j]):
            return min(i, j), max(i, j)
    return None


def first_axis_sweep(boxes: Sequence[Box]) -> Iterator[tuple[int, int]]:
    """Yield (i, j) for every pair of boxes whose first-axis intervals
    overlap in interior, j entered before i.

    Boxes enter in order of their lower first-axis ends (ties in index
    order) and drop out once the sweep reaches their upper ends, so boxes
    that mostly tile the first axis keep few open at once.
    """
    open_boxes: list[int] = []
    for i in sorted(range(len(boxes)), key=lambda i: boxes[i].intervals[0][0]):
        lo = boxes[i].intervals[0][0]
        open_boxes[:] = [j for j in open_boxes if boxes[j].intervals[0][1] > lo]
        for j in open_boxes:
            yield i, j
        open_boxes.append(i)


def box_center(box: Box) -> Point:
    return tuple((lo + hi) / 2 for lo, hi in box.intervals)


def piece_image(piece: AffinePiece, p: Point) -> Point:
    """The piece's image of p by plain `Fraction` arithmetic, o + s x."""
    return tuple(o + s * x for x, s, o in zip(p, piece.scale, piece.offset))


def lattice_point(p: Point) -> tuple[tuple[int, ...], int]:
    """(numerators, den): p over the lcm of its coordinates' denominators."""
    den = math.lcm(*(x.denominator for x in p))
    return tuple(x.numerator * (den // x.denominator) for x in p), den


def fraction_point(p: tuple[int, ...], den: int) -> Point:
    return tuple(Fraction(x, den) for x in p)


def seed_set(points) -> SeedSet:
    """The distinct `Fraction` points in lexicographic order, over the lcm
    of every coordinate's denominator."""
    points = list(points)
    den = math.lcm(1, *(x.denominator for p in points for x in p))
    return SeedSet(tuple(sorted({tuple(x.numerator * (den // x.denominator) for x in p)
                                 for p in points})), den)


def seed_points(seeds: SeedSet, points=None) -> list[Point]:
    """The seeds, or the given points of them, as `Fraction` points."""
    return [fraction_point(p, seeds.den) for p in (seeds.points if points is None else points)]


def piece_at(pamap: PAMap, p: Point):
    """`PAMap.piece_for` of a `Fraction` point."""
    return pamap.piece_for(*lattice_point(p))


def apply_map(pamap: PAMap, p) -> Point:
    """One step of the map's lattice path on a `Fraction` point or ESCAPED."""
    if p is ESCAPED:
        return ESCAPED
    x, den = lattice_point(p)
    image = pamap.apply(x, den)
    return image if image is ESCAPED else fraction_point(image, den * pamap.step_den)


def map_orbit(pamap: PAMap, p: Point, steps: int) -> list:
    """`PAMap.orbit` of a `Fraction` point, its states as `Fraction` points:
    state t is read over den S^t."""
    x, den = lattice_point(p)
    states = pamap.orbit(x, steps, den)
    return [s if s is ESCAPED else fraction_point(s, den * pamap.step_den ** t)
            for t, s in enumerate(states)]


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
    """d_m(x, y) = max over 0 <= i < m of |f^i x - f^i y|, stepping both
    points pair by pair: the naive oracle for `estimators.orbits_separate`."""
    if m < 1:
        raise ValueError("bowen_distance needs m >= 1")
    if len(x) != pamap.ambient.dim or len(y) != pamap.ambient.dim:
        raise ValueError("point dimension differs from ambient cube")
    best = dist_maxnorm(x, y)
    cx, cy = x, y
    steps = 1
    truncated = False
    for _ in range(m - 1):
        cx = apply_map(pamap, cx)
        cy = apply_map(pamap, cy)
        if cx is ESCAPED or cy is ESCAPED:
            truncated = True
            break
        d = dist_maxnorm(cx, cy)
        if d > best:
            best = d
        steps += 1
    return BowenDistance(best, steps, truncated)


def leg_for_strip(h: HorseshoeMap, l: int) -> tuple[int, ...]:
    if l not in h.leg_of:
        raise KeyError(f"strip {l} is not assigned")
    return h.leg_of[l]


def strip_word_box(h: HorseshoeMap, word: Sequence[int]) -> Box:
    """Box of points whose unsquared itinerary visits the given odd strips."""
    box = h.grid.strip_box(word[-1])
    for l in word[:-1]:
        leg_for_strip(h, l)  # KeyError: an even strip has no image
    return Box((h.word_interval(word),) + box.intervals[1:])


def check_word(h: HorseshoeMap, word) -> None:
    """Oracle: raise as `cylinder_geometry` does on a step whose strip is not
    an odd s-cell index in 1..2 L^(n-1) - 1, or whose leg is not n - 1 odd
    t-cell indices in 1..2 L - 1, read off the grid's counts."""
    grid = h.grid
    for l, leg in word:
        if not (l % 2 == 1 and 1 <= l <= grid.strip_count):
            raise ValueError(f"strip {l} is not an odd strip of the horseshoe")
        if not (len(leg) == grid.n - 1
                and all(i % 2 == 1 and 1 <= i <= grid.leg_cell_count for i in leg)):
            raise ValueError(f"leg {leg} is not an odd leg of the horseshoe")


def cylinder_box(h: HorseshoeMap, word) -> Box:
    """Box of a cylinder word from the grid alone: `word_interval` of the
    unsquared strip word (each step's strip, then the strip assigned to the
    next step's leg), times the first leg's t-cells read off `grid.t`."""
    check_word(h, word)
    strips = []
    for (l, _), (_, leg) in zip(word, word[1:]):
        strips += [l, next(s for s, assigned in h.assignment if assigned == leg)]
    t = h.grid.t
    first = h.word_interval(strips + [word[-1][0]])
    return Box((first,) + tuple((t[i - 1], t[i]) for i in word[0][1]))


def enlarged_box(cube: Cube) -> Box:
    """The cube fattened by MARGIN * side per face, clipped to [0, 1]^n."""
    pad = cube.side * MARGIN
    ivs = []
    for lo, hi in cube_box(cube).intervals:
        ivs.append((max(Fraction(0), lo - pad), min(Fraction(1), hi + pad)))
    return Box(tuple(ivs))


class _Formatter(argparse.HelpFormatter):
    """Head the usage "Usage:", as mmdim always has."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


def _file_path(path: str) -> str:
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"'{path}' is a directory")
    return path


def _existing_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"'{path}' does not exist")
    return _file_path(path)


def _int_range(lo: int, hi: int | None = None):
    """An integer option's type: at least lo, and at most hi unless it is None."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid integer value
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"{value} is not in the range {lo}<=x"
                                             + ("" if hi is None else f"<={hi}"))
        return value
    return integer


def argparse_parser() -> argparse.ArgumentParser:
    """The `argparse` parser of the five commands, as `mmdim.cli` built it
    before its own table: `parse_args(argv)` holds the command as `run`, its
    parser as `parser`, and the command's keyword arguments."""
    style = dict(formatter_class=_Formatter, allow_abbrev=False, add_help=False)
    parser = argparse.ArgumentParser(prog="mmdim", description=cli.main.__doc__, **style)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    sub = {}
    for run in (cli.build, cli.validate, cli.profile, cli.estimate, cli.verify):
        sub[run] = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                       **style)
        sub[run].set_defaults(run=run, parser=sub[run])
        path = "spec_path" if run is cli.build else "system_path"
        sub[run].add_argument(path, metavar=path.upper(), type=_existing_file)
    sub[cli.build].add_argument("-o", "--out", required=True, type=_file_path, metavar="PATH",
                                help="Where to write the built system JSON.")
    sub[cli.profile].add_argument("--kmax", type=_int_range(1, MAX_STORED_DIGITS), default=24,
                                  help="Profile block indices 1..kmax. (default: %(default)s)")
    sub[cli.estimate].add_argument("--k", type=_int_range(1), required=True,
                                   help="Block index to measure.")
    sub[cli.estimate].add_argument("--m", dest="m_max", metavar="M", type=_int_range(2),
                                   default=3,
                                   help="Greedy scans run at depths 1..m. (default: %(default)s)")
    sub[cli.estimate].add_argument("--eps", dest="eps_str", metavar="EPS",
                                   help='Override the separation scale (a "p/q" rational).')
    for run in (cli.profile, cli.estimate):
        sub[run].add_argument("-o", "--out", type=_file_path, metavar="PATH",
                              help="CSV output path (default: stdout).")
    sub[cli.verify].add_argument("--kmax", type=_int_range(1, MAX_STORED_DIGITS), default=30,
                                 help="Check the rows of block indices 1..kmax. "
                                      "(default: %(default)s)")
    for each in (parser, *sub.values()):  # --help alone, with no -h, as mmdim always had
        each.add_argument("--help", action="help", help="Show this message and exit.")
    return parser
