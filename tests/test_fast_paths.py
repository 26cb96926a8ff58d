"""Equivalence of the indexed piece lookup, the integer lattice step and
orbit, the lattice cylinder centers, the closed-form cylinder boxes, the
closed-form squared map and the trie-keyed greedy scan with the slow paths
they replaced, which are kept here and in tests/oracles.py as oracles."""

import functools
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_estimators import naive_greedy

from mmdim.constructions import Block, Schedule, build_stacked, build_two_block
from mmdim.estimators import cylinder_centers, greedy_separated, orbits_separate
from mmdim.geometry import Box, Cube
from mmdim.horseshoe import build_horseshoe, square
from mmdim.mapping import ESCAPED, AffinePiece, PAMap
from mmdim.symbolic import cylinder_geometry, enumerate_cylinders
from oracles import (
    apply_map,
    box_center,
    box_contains,
    box_intersect,
    box_of,
    check_word,
    cube_of,
    cylinder_box,
    fraction_point,
    is_degenerate,
    lattice_point,
    map_orbit,
    piece_at,
    piece_image,
    seed_points,
    seed_set,
    strip_word_box,
)

F = Fraction


def scan_piece_for(ordered, p):
    """Oracle: the first piece, in lexicographic domain order, containing p."""
    for piece in ordered:
        if box_contains(piece.domain, p):
            return piece
    return None


def scan_orbit(ordered, p, steps):
    """Oracle orbit: `PAMap.orbit` on `Fraction` points, with every step
    found by the linear scan and taken by plain `Fraction` arithmetic."""
    states = [p]
    for _ in range(steps):
        piece = None if states[-1] is ESCAPED else scan_piece_for(ordered, states[-1])
        states.append(ESCAPED if piece is None else piece_image(piece, states[-1]))
    return states


def check_lattice_orbit(pamap, ordered, x, den, steps):
    """`PAMap.orbit` of x / den against the scan, state t an integer tuple
    over den S^t; returns the scan's orbit."""
    want = scan_orbit(ordered, fraction_point(x, den), steps)
    got = pamap.orbit(x, steps, den)
    assert all(type(c) is int for s in got if s is not ESCAPED for c in s)
    assert [s if s is ESCAPED else fraction_point(s, den * pamap.step_den ** t)
            for t, s in enumerate(got)] == want
    return want


def _slab_piece(cube, ends, k):
    """A piece on the slab `ends` times the cube, whose scale and offset vary with k."""
    scale = tuple(F(k + 2, 3) * (-1) ** (k + i) for i in range(cube.dim))
    offset = tuple(F(i - k, 5) for i in range(cube.dim))
    return AffinePiece(Box((ends,) + ((cube.lo, cube.hi),) * (cube.dim - 1)), scale, offset)


def hand_built_maps():
    """Slab maps whose slabs touch, leave gaps, come out of order, cover the
    whole cube or have pairwise coprime denominators, at n = 2 and 3."""
    h, q, t = F(1, 2), F(1, 4), F(3, 4)
    unit2, unit3 = cube_of(0, 1, 2), cube_of(0, 1, 3)
    # the cube's corners 1/17 and 22/23 and the slab ends 1/7, 3/11, 6/13
    # and 18/19 have pairwise coprime denominators, so that the map's one
    # denominator is their product
    coprime_cube = cube_of(F(1, 17), F(22, 23), 2)
    layouts = {
        "touching": (unit2, [(0, q), (q, h), (h, 1)]),
        "gaps": (unit2, [(F(1, 8), q), (F(3, 8), h), (t, 1)]),
        "out of order": (unit2, [(h, t), (0, q), (t, 1), (q, F(3, 8))]),
        "whole cube": (unit2, [(0, 1)]),
        "3d": (unit3, [(0, F(1, 3)), (F(1, 3), h), (F(2, 3), 1)]),
        "coprime": (coprime_cube, [(F(1, 17), F(1, 7)), (F(1, 7), F(3, 11)),
                                   (F(6, 13), F(18, 19)), (F(18, 19), F(22, 23))]),
    }
    return {name: PAMap(cube, tuple(_slab_piece(cube, (F(lo), F(hi)), k)
                                    for k, (lo, hi) in enumerate(slabs)))
            for name, (cube, slabs) in layouts.items()}


# Cubes with non-dyadic corners and sides, so that no endpoint is exact in
# binary and a wrong denominator cannot cancel out; the first has lo < 0.
NON_DYADIC_CUBES = [(F(-2, 7), F(5, 3)), (F(1, 3), F(4, 5)), (F(3, 10), F(19, 11))]


@pytest.fixture(scope="module")
def lookup_maps():
    maps = hand_built_maps()
    for n in (2, 3):
        for L in (3, 5):
            cube = cube_of(0, 1, n) if n == 2 else cube_of(F(-1, 2), F(2, 3), n)
            hs = build_horseshoe(cube, L)
            maps[f"h n={n} L={L}"] = hs.pamap
            maps[f"square n={n} L={L}"] = square(hs)
        for lo, hi in NON_DYADIC_CUBES:
            hs = horseshoe_on(lo, hi, n, 3)
            maps[f"h n={n} L=3 on [{lo}, {hi}]"] = hs.pamap
            maps[f"square n={n} L=3 on [{lo}, {hi}]"] = square(hs)
    ordered = {name: sorted(m.pieces, key=lambda piece: piece.domain.intervals)
               for name, m in maps.items()}
    return maps, ordered


def lookup_points(pamap):
    """Random rationals, coordinates on piece faces and on the cube faces,
    coordinates just outside the cube, and coordinates within a few units of
    10^-31 of a face, whose denominators exceed 10^30."""
    lo, hi, dim = pamap.ambient.lo, pamap.ambient.hi, pamap.ambient.dim
    tiny = F(1, 10**9)
    axes = []
    for axis in range(dim):
        faces = sorted({x for p in pamap.pieces for x in p.domain.intervals[axis]})
        axes.append(st.one_of(
            st.fractions(min_value=lo - 1, max_value=hi + 1, max_denominator=50),
            st.fractions(min_value=lo, max_value=hi, max_denominator=10**6),
            st.sampled_from(faces),
            st.sampled_from([lo, hi, lo - tiny, hi + tiny]),
            st.builds(lambda face, k, d: face + F(k, d), st.sampled_from(faces),
                      st.integers(-3, 3), st.integers(10**31, 10**33)),
        ))
    return st.tuples(*axes)


NON_DYADIC_LOOKUP_MAPS = [f"{kind} n={n} L=3 on [{lo}, {hi}]" for kind in ("h", "square")
                          for n in (2, 3) for lo, hi in NON_DYADIC_CUBES]
ALL_LOOKUP_MAPS = sorted(hand_built_maps()) + [
    f"{kind} n={n} L={L}" for kind in ("h", "square") for n in (2, 3) for L in (3, 5)
] + NON_DYADIC_LOOKUP_MAPS
# the maps whose every face the lattice test visits: none has over 81 pieces
LATTICE_MAPS = sorted(hand_built_maps()) + [
    f"{kind} n={n} L=3" for kind in ("h", "square") for n in (2, 3)
] + NON_DYADIC_LOOKUP_MAPS


def lattice_unit(pamap):
    """1 / D, D the lcm of the denominators of every domain end."""
    return F(1, math.lcm(*{x.denominator for p in pamap.pieces
                           for iv in p.domain.intervals for x in iv}))


def face_points(pamap):
    """For every piece and axis, the piece's center moved onto each end of
    that axis and one lattice unit either side of it; and every corner of
    a few pieces, moved by -1, 0 or +1 unit on each axis at once."""
    u = lattice_unit(pamap)
    for piece in pamap.pieces:
        center = box_center(piece.domain)
        for axis, (lo, hi) in enumerate(piece.domain.intervals):
            for x in (lo - u, lo, lo + u, hi - u, hi, hi + u):
                yield center[:axis] + (x,) + center[axis + 1:]
    for piece in pamap.pieces[::math.ceil(len(pamap.pieces) / 4)]:
        yield from itertools.product(*[(lo - u, lo, lo + u, hi - u, hi, hi + u)
                                       for lo, hi in piece.domain.intervals])


class TestIndexedLookup:
    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.sampled_from(ALL_LOOKUP_MAPS))
    def test_piece_for_and_orbit_match_the_scan(self, lookup_maps, data, name):
        maps, ordered = lookup_maps
        pamap = maps[name]
        p = data.draw(lookup_points(pamap))
        piece = scan_piece_for(ordered[name], p)
        assert piece_at(pamap, p) is piece
        assert apply_map(pamap, p) == (ESCAPED if piece is None else piece_image(piece, p))
        check_lattice_orbit(pamap, ordered[name], *lattice_point(p), 3)

    @pytest.mark.parametrize("name", LATTICE_MAPS)
    def test_on_and_one_lattice_unit_off_every_face(self, lookup_maps, name):
        # every moved coordinate is on the lattice: on the first axis the
        # lookup takes its x D integer branch, and on the others a bound test
        # holds with equality or fails by one unit
        maps, ordered = lookup_maps
        pamap = maps[name]
        for p in face_points(pamap):
            piece = scan_piece_for(ordered[name], p)
            assert piece_at(pamap, p) is piece, p
            assert apply_map(pamap, p) == (ESCAPED if piece is None else piece_image(piece, p))
            check_lattice_orbit(pamap, ordered[name], *lattice_point(p), 2)

    def test_coprime_denominators_multiply(self, lookup_maps):
        maps, ordered = lookup_maps
        pamap = maps["coprime"]
        assert pamap._den == 7 * 11 * 13 * 17 * 19 * 23 == 1 / lattice_unit(pamap)
        # the shared end 1/7, the gap's ends 3/11 and 6/13 and a unit either
        # side of each, on the cube's transverse faces and a unit past them
        u = lattice_unit(pamap)
        for end in (F(1, 7), F(3, 11), F(6, 13)):
            for x in (end - u, end, end + u):
                for y in (F(1, 17) - u, F(1, 17), F(1, 2), F(22, 23), F(22, 23) + u):
                    assert piece_at(pamap, (x, y)) is scan_piece_for(ordered["coprime"], (x, y))

    def test_every_face_point_of_the_square_map(self, lookup_maps):
        # every first-axis cut of the squared map, at every transverse face
        maps, ordered = lookup_maps
        pamap = maps["square n=2 L=3"]
        cuts = sorted({x for p in pamap.pieces for x in p.domain.intervals[0]})
        ys = [F(0), F(1, 5), F(2, 5), F(1, 2), F(1)]
        for x in cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]:
            for y in ys:
                assert piece_at(pamap, (x, y)) is scan_piece_for(ordered["square n=2 L=3"], (x, y))

    def test_transverse_miss_escapes(self):
        # the first coordinate picks the slab; the other axes still decide
        piece = AffinePiece(box_of((0, F(1, 3)), (0, 1)), (F(1), F(1)), (F(0), F(0)))
        pamap = PAMap(cube_of(0, 1, 2), (piece,))
        for x in (F(0), F(1, 6), F(1, 3)):
            assert piece_at(pamap, (x, F(1))) is piece
            for y in (F(-1, 4), F(1) + F(1, 10**9)):
                assert piece_at(pamap, (x, y)) is None
                assert apply_map(pamap, (x, y)) is ESCAPED

    def test_wrong_dimension_rejected(self):
        pamap = hand_built_maps()["touching"]
        with pytest.raises(ValueError, match="dimension mismatch"):
            pamap.piece_for((1,), 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pamap.piece_for((7, 0, 0), 1)


def invert(piece):
    """Oracle: the inverse piece, defined on the image of the domain."""
    scale = tuple(1 / s for s in piece.scale)
    offset = tuple(-o / s for s, o in zip(piece.scale, piece.offset))
    return AffinePiece(piece.map_box(piece.domain), scale, offset)


def preimage_box(piece, box):
    """Oracle: the exact preimage of `box` under the piece, within its domain."""
    return box_intersect(invert(piece).map_box(box), piece.domain)


def preimage_square(h):
    """Oracle: the squared map with each piece's domain found as the preimage
    of the second strip under the first strip's piece."""
    grid = h.grid
    by_strip = {l: _piece_of(h, l) for l, _ in h.assignment}
    pieces = []
    for l, first in by_strip.items():
        for l2, second in by_strip.items():
            domain = preimage_box(first, grid.strip_box(l2))
            assert domain is not None and not is_degenerate(domain)
            pieces.append(first.then(second, domain))
    return PAMap(h.grid.cube, tuple(pieces))


def pull_back_chain(h, word):
    """Oracle: the first-axis interval of a strip word, pulled back one strip
    at a time through x -> s[l-1] + (x - lo) / kappa."""
    s, lo, kappa = h.grid.s, h.grid.cube.lo, h.grid.strip_count
    a, b = s[word[-1] - 1], s[word[-1]]
    for l in reversed(word[:-1]):
        a, b = s[l - 1] + (a - lo) / kappa, s[l - 1] + (b - lo) / kappa
    return a, b


def pull_back_box(h, word):
    """Oracle: the last strip's box pulled back through each earlier strip's
    piece, as whole boxes."""
    box = h.grid.strip_box(word[-1])
    for l in reversed(word[:-1]):
        box = preimage_box(_piece_of(h, l), box)
    return box


def _piece_of(h, l):
    target = tuple(h.grid.strip_box(l).intervals)
    for piece in h.pamap.pieces:
        if tuple(piece.domain.intervals) == target:
            return piece
    raise ValueError(f"no piece with domain = strip {l}")


def _cell_box(h, l, leg):
    box = box_intersect(h.grid.strip_box(l), h.grid.leg_box(leg))
    if box is None:
        raise AssertionError(f"strip {l} and leg {leg} do not meet")
    return box


def pullback_cylinder(h, word):
    """Oracle: the final (strip, leg) cell pulled back through the two strip
    pieces of every earlier squared step, as whole boxes."""
    check_word(h, word)
    mids = [h.strip_of[leg] for _, leg in word[1:]]
    box = _cell_box(h, *word[-1])
    for t in range(len(word) - 2, -1, -1):
        l, leg = word[t]
        pulled = preimage_box(_piece_of(h, mids[t]), box)
        pulled = preimage_box(_piece_of(h, l), pulled)
        box = box_intersect(pulled, _cell_box(h, l, leg))
    return box


def _blocks():
    geometric2 = build_stacked(Schedule.geometric(1, 1), 2, 1)
    geometric3 = build_stacked(Schedule.geometric(1, 1), 3, 1)
    two_block_upper = build_two_block(F(2, 3), 1, 2, 5).parts[1][1]
    return {
        "geometric n=2": (geometric2.block(1), 3),
        "geometric n=3": (geometric3.block(1), 2),
        # five legs on the cube of block 2 of the r = 2 square, where L_2 = 9
        "L=5": (Block(2, Cube(F(8, 9), F(73, 81), 2), 5, True), 2),
        "two_block upper half, block 1": (two_block_upper.block(1), 3),
        "two_block upper half, block 2": (two_block_upper.block(2), 1),
    }


class TestClosedFormCylinders:
    @pytest.mark.parametrize("name", sorted(_blocks()))
    def test_every_word_matches_the_pullback(self, name):
        block, max_depth = _blocks()[name]
        h = block.geometry()
        for m in range(1, max_depth + 1):
            words = set()
            for word, box in enumerate_cylinders(h, m):
                assert len(word) == m
                assert box == pullback_cylinder(h, word) == cylinder_box(h, word), word
                words.add(word)
            assert len(words) == block.L ** (h.grid.n * m)

    @pytest.mark.parametrize("word", [
        ((2, (1,)),),                  # even strip
        ((7, (1,)),),                  # strip beyond the block
        ((1, (5,)), (4, (3,))),        # even strip at a later step
        ((1, (7,)),),                  # leg beyond the t-grid
        ((3, (4,)),),                  # even leg
        ((3, (1,)), (1, (9,))),        # bad leg at a later step
        ((3, (1, 1)),),                # leg with too many entries
    ])
    def test_invalid_words_raise_as_the_oracle_does(self, unit_square_h, word):
        with pytest.raises(ValueError) as oracle:
            pullback_cylinder(unit_square_h, word)
        for run in (cylinder_box, cylinder_geometry):
            with pytest.raises(ValueError, match=re.escape(str(oracle.value))):
                run(unit_square_h, word)


@functools.cache
def horseshoe_on(lo, hi, n, L):
    return build_horseshoe(Cube(lo, hi, n), L)


@st.composite
def strip_words(draw, max_len=5):
    """A horseshoe on a non-dyadic cube (n in {2, 3}, L in {3, 5, 7}) and a
    word of its odd strips of length 1 to max_len."""
    lo, hi = draw(st.sampled_from(NON_DYADIC_CUBES))
    n, L = draw(st.sampled_from([2, 3])), draw(st.sampled_from([3, 5, 7]))
    h = horseshoe_on(lo, hi, n, L)
    odd = h.grid.odd_strip_indices()
    edges = st.sampled_from([odd[0], odd[-1]])  # the first and last digits
    word = draw(st.lists(st.one_of(st.sampled_from(odd), edges), min_size=1, max_size=max_len))
    return h, word


class TestClosedFormStripWords:
    @settings(max_examples=300, deadline=None)
    @given(strip_words())
    def test_word_interval_matches_the_pullbacks(self, case):
        h, word = case
        interval = h.word_interval(word)
        assert interval == pull_back_chain(h, word)
        assert strip_word_box(h, word) == pull_back_box(h, word)
        assert interval == strip_word_box(h, word).intervals[0]

    @settings(max_examples=200, deadline=None)
    @given(strip_words(max_len=3), st.data())
    def test_cylinder_geometry_matches_the_pullback(self, case, data):
        h, word = case
        legs = h.grid.odd_leg_indices()
        word = tuple((l, data.draw(st.sampled_from(legs))) for l in word)
        assert cylinder_geometry(h, word) == pullback_cylinder(h, word)

    @pytest.mark.parametrize("n,L", [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (3, 7)])
    @pytest.mark.parametrize("lo,hi", NON_DYADIC_CUBES[:2])
    def test_square_matches_the_preimage_composition(self, lo, hi, n, L):
        h = horseshoe_on(lo, hi, n, L)
        assert square(h).pieces == preimage_square(h).pieces


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)


class TestOneDenominatorArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(rationals, rationals, rationals.filter(bool)),
                    min_size=1, max_size=3), st.integers(1, 30))
    def test_lattice_step_matches_fraction_arithmetic(self, axes, k):
        # the point over k times its least den comes back over that den times S
        p, offset, scale = zip(*axes)
        piece = AffinePiece(box_of(*[(-3, 3)] * len(axes)), scale, offset)
        pamap = PAMap(cube_of(-3, 3, len(axes)), (piece,))
        x, den = lattice_point(p)
        image = pamap.apply(tuple(c * k for c in x), den * k)
        assert fraction_point(image, den * k * pamap.step_den) == piece_image(piece, p)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("B", [F(1), F(5, 4), F(6, 7)])
    def test_cylinder_centers_match_the_box_centers(self, B, n, m):
        # the benchmark's B choices, whose lo and side have denominators 1, 2, 7 and 4, 7
        h = build_stacked(Schedule.geometric(B, 1), n, 1).block(1).geometry()
        seeds = cylinder_centers(h, m)
        lo, side = h.grid.cube.lo, h.grid.cube.side
        kappa = 2 * 3 ** (n - 1) - 1
        assert seeds.den == 2 * lo.denominator * side.denominator * kappa ** (2 * m - 1) * 5
        boxes = enumerate_cylinders(h, m)
        assert seed_points(seeds) == sorted({box_center(box) for _, box in boxes})


def cell_list_greedy(pamap, seeds, m, eps):
    """Oracle: the greedy scan on `Fraction` orbits with kept points filed
    by the cells `x // eps` of their first two axes at step 0 only, each
    seed compared with the kept points of the 3 x 3 cells around its own."""
    orbits = [map_orbit(pamap, p, m - 1) for p in seed_points(seeds)]
    axes = min(len(orbits[0][0]), 2) if orbits else 0
    offsets = list(itertools.product((-1, 0, 1), repeat=axes))
    cells, chosen = {}, []
    for i, orbit in enumerate(orbits):
        key = tuple(x // eps for x in orbit[0][:axes])
        near = (j for off in offsets
                for j in cells.get(tuple(a + b for a, b in zip(key, off)), ()))
        if all(orbits_separate(orbit, orbits[j], [eps] * m) for j in near):
            cells.setdefault(key, []).append(i)
            chosen.append(seeds.points[i])
    return tuple(chosen)


# name -> (cube lo, hi, dim, squared?): the square and the n=3 cube, squared
# and not; the negative corners make `//` floor negative lattice coordinates
TRIE_SCAN_MAPS = {
    "unit square, squared": (0, 1, 2, True),
    "[-1, 1]^2": (-1, 1, 2, False),
    "n=3 cube": (F(-1, 2), F(2, 3), 3, False),
    "unit n=3 cube, squared": (0, 1, 3, True),
}


@functools.cache
def scan_map(name):
    """(map, horseshoe) of a `TRIE_SCAN_MAPS` entry, with L = 3."""
    lo, hi, n, squared = TRIE_SCAN_MAPS[name]
    h = build_horseshoe(cube_of(lo, hi, n), 3)
    return (square(h) if squared else h.pamap), h


def escaping_point(h, word, t):
    """A point whose unsquared itinerary starts with the strips of `word`,
    at fraction t of that word's first-axis interval; an even strip at
    position j makes the unsquared orbit escape at step j + 1."""
    a, b = h.word_interval(word)
    return (a + (b - a) * t, *[h.grid.cube.lo + h.grid.cube.side * t] * (h.grid.n - 1))


@st.composite
def scan_cases(draw):
    """A map, m, 8 to 30 seeds and an eps.  Seeds lie on a grid of step
    eps0 / 2, anywhere in the cube, or on a strip word whose even strips
    make the orbit escape at different steps, so that t* < m; half of the
    sets keep only the seeds that survive step 1, so that t* >= 2.  Half of the
    cases take eps equal to a coordinate difference of two surviving
    states at the same step, a tie that `x // thr` must not split."""
    pamap, h = scan_map(draw(st.sampled_from(sorted(TRIE_SCAN_MAPS))))
    lo, side, n = h.grid.cube.lo, h.grid.cube.side, h.grid.n
    m = draw(st.integers(1, 3))
    eps0 = side * draw(st.fractions(F(1, 40), F(1, 2), max_denominator=40))
    fraction = st.fractions(0, 1, max_denominator=12)
    on_grid = st.integers(0, int(side / (eps0 / 2))).map(lambda i: lo + i * eps0 / 2)
    anywhere = st.fractions(lo, lo + side, max_denominator=30)
    words = st.lists(st.integers(1, h.grid.strip_count), min_size=1, max_size=4)
    point = st.one_of(
        st.tuples(*[on_grid] * n),
        st.tuples(*[anywhere] * n),
        st.builds(escaping_point, st.just(h), words, fraction),
    )
    points = draw(st.lists(point, min_size=8, max_size=30))
    if draw(st.booleans()):  # survivors of step 1 only, so that t* >= 2 when m >= 2
        points = [p for p in points if map_orbit(pamap, p, 1)[1] is not ESCAPED]
    seeds = seed_set(points)
    orbits = [map_orbit(pamap, p, m - 1) for p in seed_points(seeds)]
    diffs = sorted({
        abs(a - b)
        for x, y in itertools.combinations(orbits, 2)
        for sx, sy in zip(x, y) if sx is not ESCAPED and sy is not ESCAPED
        for a, b in zip(sx, sy) if a != b
    })
    if diffs and draw(st.booleans()):
        return pamap, seeds, m, draw(st.sampled_from(diffs))
    return pamap, seeds, m, eps0


class TestTrieScan:
    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_kept_set_matches_the_cell_list_and_all_pairs(self, case):
        pamap, seeds, m, eps = case
        chosen = greedy_separated(pamap, seeds, m, eps).chosen
        assert chosen == cell_list_greedy(pamap, seeds, m, eps)
        assert chosen == naive_greedy(pamap, seeds, m, eps)

    @pytest.mark.parametrize("name", ["unit square, squared", "[-1, 1]^2", "n=3 cube"])
    def test_escapes_at_different_steps(self, name):
        # orbits escaping at steps 1 and 2 beside survivors that lie within
        # eps at step 0 and separate later: t* = 1 < m, and the scan is truncated
        pamap, h = scan_map(name)
        words = [(1,), (2,), (1, 2), (1, 1, 1, 2), (3, 1, 1, 1), (3, 1, 1, 3)]
        seeds = seed_set(escaping_point(h, w, t) for w in words for t in (F(1, 3), F(1, 2)))
        orbits = [map_orbit(pamap, p, 2) for p in seed_points(seeds)]
        assert {o.index(ESCAPED) if ESCAPED in o else None for o in orbits} == {1, 2, None}
        eps = h.grid.cube.side / 10
        result = greedy_separated(pamap, seeds, 3, eps)
        assert any(o[-1] is ESCAPED for o in orbits)
        assert result.chosen == cell_list_greedy(pamap, seeds, 3, eps)
        assert result.chosen == naive_greedy(pamap, seeds, 3, eps)

    @pytest.mark.parametrize("k,m", [(1, 1), (1, 2), (1, 3), (2, 2)])
    def test_native_eps_scans_make_no_comparison(self, geometric_system, k, m):
        # every cylinder center is kept, and no kept point shares all of a
        # seed's trie cells within 1: the scan makes no comparison
        block = geometric_system.block(k)
        h = block.geometry()
        eps = geometric_system.schedule.eps(k)
        result = greedy_separated(square(h), cylinder_centers(h, m), m, eps)
        assert len(result.chosen) == result.seed_count == block.L ** (2 * m)
        assert result.pairs == 0


# every map of the lookup tests, and the horseshoes the trie scan runs on
ORBIT_MAPS = ALL_LOOKUP_MAPS + [f"trie: {name}" for name in sorted(TRIE_SCAN_MAPS)]


def orbit_map(lookup_maps, name):
    """(map, pieces in lexicographic domain order) of an `ORBIT_MAPS` entry."""
    if name.startswith("trie: "):
        pamap = scan_map(name[len("trie: "):])[0]
        return pamap, sorted(pamap.pieces, key=lambda piece: piece.domain.intervals)
    maps, ordered = lookup_maps
    return maps[name], ordered[name]


@st.composite
def coprime_lattice_points(draw, pamap):
    """(x, den): den = q^e, q the least prime above 5 that does not divide
    the map's S, and x anywhere in the cube or up to one unit outside it."""
    q = next(q for q in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) if pamap.step_den % q)
    den = q ** draw(st.integers(1, 4))
    lo, hi = pamap.ambient.lo * den, pamap.ambient.hi * den
    ends = st.integers(math.floor(lo) - 1, math.ceil(hi) + 1)
    return tuple(draw(ends) for _ in range(pamap.ambient.dim)), den


class TestLatticeOrbit:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(ORBIT_MAPS), st.integers(0, 3))
    def test_matches_the_scan(self, lookup_maps, data, name, steps):
        # a random rational over its least den times a drawn factor, or a
        # point over a den prime to S
        pamap, ordered = orbit_map(lookup_maps, name)
        if data.draw(st.booleans()):
            x, den = lattice_point(data.draw(lookup_points(pamap)))
            k = data.draw(st.sampled_from([1, 2, 3, 7, pamap.step_den]))
            x, den = tuple(c * k for c in x), den * k
        else:
            x, den = data.draw(coprime_lattice_points(pamap))
            assert math.gcd(den, pamap.step_den) == 1
        assert pamap.piece_for(x, den) is scan_piece_for(ordered, fraction_point(x, den))
        check_lattice_orbit(pamap, ordered, x, den, steps)

    @pytest.mark.parametrize("name", sorted(TRIE_SCAN_MAPS))
    def test_escapes_at_every_step(self, name):
        # an even strip at position j of an unsquared word: the unsquared
        # orbit escapes at step j + 1, the squared one at step (j + 2) // 2
        pamap, h = scan_map(name)
        ordered = sorted(pamap.pieces, key=lambda piece: piece.domain.intervals)
        escapes = set()
        for j in range(6):
            for t in (F(1, 3), F(1, 2), F(5, 7)):
                x, den = lattice_point(escaping_point(h, (1,) * j + (2,), t))
                for steps in range(4):
                    orbit = check_lattice_orbit(pamap, ordered, x, den, steps)
                    escapes.add(orbit.index(ESCAPED) if ESCAPED in orbit else None)
        assert {1, 2, 3} <= escapes
