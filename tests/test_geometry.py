import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mmdim.geometry import Box, find_interior_overlap, rational_from_str
from oracles import (
    box_center,
    box_contains,
    box_intersect,
    box_of,
    cube_box,
    cube_contains,
    cube_of,
    find_box_overlap,
    interiors_overlap,
    is_degenerate,
)

F = Fraction


def test_rational_string_round_trip():
    for s in ["1/3", "-7/2", "0", "5", "123456789/987654321", "0.25", "-1.5"]:
        assert str(rational_from_str(s)) == str(F(s))
    assert rational_from_str(" 2/6 ") == F(1, 3)


def test_rational_from_str_rejects_garbage():
    for bad in ["", "one", "1/0", "3.x", "1e-5000"]:
        with pytest.raises(ValueError):
            rational_from_str(bad)


class TestBox:
    def test_basic_accessors(self):
        b = box_of((0, 1), (F(1, 3), F(2, 3)))
        assert b.dim == 2
        assert b.intervals == ((F(0), F(1)), (F(1, 3), F(2, 3)))
        assert box_center(b) == (F(1, 2), F(1, 2))
        assert not is_degenerate(b)
        assert is_degenerate(box_of((0, 0), (0, 1)))

    def test_containment(self):
        b = box_of((0, 1), (0, 1))
        assert box_contains(b, (F(0), F(1)))
        assert not box_contains(b, (F(3, 2), F(1, 2)))
        with pytest.raises(ValueError, match="dimension"):
            box_contains(b, (F(0),))

    def test_intersect(self):
        a = box_of((0, 1), (0, 1))
        b = box_of((F(1, 2), 2), (F(1, 4), F(3, 4)))
        assert box_intersect(a, b) == box_of((F(1, 2), 1), (F(1, 4), F(3, 4)))
        assert box_intersect(a, box_of((2, 3), (0, 1))) is None

    def test_touching_faces_do_not_overlap(self):
        a = box_of((0, 1), (0, 1))
        b = box_of((1, 2), (0, 1))
        assert not interiors_overlap(a, b)
        assert box_intersect(a, b) is not None  # they share a face, closed sets meet

    def test_validation(self):
        with pytest.raises(ValueError):
            box_of((1, 0))


class TestCube:
    def test_of_and_side(self):
        c = cube_of(F(1, 3), F(2, 3), 3)
        assert c.side == F(1, 3)
        assert cube_box(c) == box_of(*([(F(1, 3), F(2, 3))] * 3))
        assert cube_contains(c, (F(1, 2),) * 3)
        assert not cube_contains(c, (F(1), F(1, 2), F(1, 2)))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            cube_of(1, 1, 2)
        with pytest.raises(ValueError):
            cube_of(0, 1, 0)


def _grid_boxes(cells, dim):
    """cells^dim unit-fraction grid boxes tiling [0,1]^dim."""
    w = F(1, cells)
    out = []

    def rec(prefix):
        if len(prefix) == dim:
            out.append(Box(tuple(prefix)))
            return
        for i in range(cells):
            rec(prefix + [(i * w, (i + 1) * w)])

    rec([])
    return out


# the tests' sweep for boxes of any shape (tests/oracles.py), which the
# cylinder and enlargement checks run on


def test_find_box_overlap_on_disjoint_grid():
    boxes = _grid_boxes(4, 2)
    assert find_box_overlap(boxes) is None


def test_find_box_overlap_detects_planted_pair():
    boxes = _grid_boxes(3, 2)
    # shift one cell so it pokes into its right neighbour
    culprit = box_of((F(1, 3) + F(1, 100), F(2, 3) + F(1, 100)), (0, F(1, 3)))
    boxes[3] = culprit
    hit = find_box_overlap(boxes)
    assert hit is not None
    i, j = hit
    assert interiors_overlap(boxes[i], boxes[j])


def test_find_box_overlap_identical_boxes():
    fat = box_of((0, 1), (0, 1))
    assert find_box_overlap([fat, fat]) == (0, 1)
    flat = box_of((0, 0), (0, 1))
    assert find_box_overlap([flat, flat]) is None


def test_find_box_overlap_partial_interval_split():
    # distinct but overlapping first-axis intervals keep several boxes open
    # in the sweep, and only the full box test tells them apart
    a = box_of((0, F(2, 3)), (0, 1))
    b = box_of((F(1, 3), 1), (2, 3))
    c = box_of((F(1, 3), 1), (1, 2))
    assert find_box_overlap([a, b, c]) is None
    d = box_of((F(1, 2), 1), (0, F(1, 2)))
    hit = find_box_overlap([a, b, c, d])
    assert hit is not None and set(hit) == {0, 3}


# coarse grid coordinates: duplicate boxes, boxes sharing a face and boxes
# flat on the first axis are all common
grid_coord = st.integers(0, 4).map(lambda i: F(i, 4))


@st.composite
def grid_box_families(draw):
    def box():
        xs, ys = (sorted(draw(st.lists(grid_coord, min_size=2, max_size=2))) for _ in "xy")
        return box_of(tuple(xs), tuple(ys))

    boxes = [box() for _ in range(draw(st.integers(0, 8)))]
    if boxes:
        boxes = draw(st.permutations(boxes + draw(st.lists(st.sampled_from(boxes), max_size=2))))
    return boxes


@given(grid_box_families())
def test_find_box_overlap_matches_all_pairs(boxes):
    hit = find_box_overlap(boxes)
    brute = [
        (i, j)
        for i, j in itertools.combinations(range(len(boxes)), 2)
        if interiors_overlap(boxes[i], boxes[j])
    ]
    if brute:
        assert hit in brute
    else:
        assert hit is None


# the package's check, for slabs only


def test_find_interior_overlap_on_abutting_slabs():
    slabs = [box_of((F(i, 1000), F(i + 1, 1000)), (0, 1)) for i in range(1000)]
    assert find_interior_overlap(slabs) is None
    planted = box_of((F(1001, 2000), F(1002, 2000)), (0, 1))  # inside slab 500 only
    assert find_interior_overlap(slabs + [planted]) == (500, 1000)
    assert find_interior_overlap([planted] + slabs) == (0, 501)


# slab ends on a coarse grid, so that shared ends, equal slabs and nested
# slabs are common
slab_end = st.integers(0, 6).map(lambda i: F(i, 6))


@st.composite
def slab_families(draw):
    def slab():
        lo, hi = sorted(draw(st.lists(slab_end, min_size=2, max_size=2, unique=True)))
        return box_of((lo, hi), (0, 1))

    return [slab() for _ in range(draw(st.integers(0, 8)))]


@given(slab_families())
def test_find_interior_overlap_matches_all_pairs(slabs):
    hit = find_interior_overlap(slabs)
    brute = [
        (i, j)
        for i, j in itertools.combinations(range(len(slabs)), 2)
        if interiors_overlap(slabs[i], slabs[j])
    ]
    if brute:
        assert hit in brute
    else:
        assert hit is None


coord = st.fractions(min_value=-2, max_value=2, max_denominator=60)


@st.composite
def boxes_2d(draw):
    xs = sorted([draw(coord), draw(coord)])
    ys = sorted([draw(coord), draw(coord)])
    if xs[0] == xs[1]:
        xs[1] += 1
    if ys[0] == ys[1]:
        ys[1] += 1
    return box_of(tuple(xs), tuple(ys))


@given(boxes_2d(), boxes_2d())
def test_intersect_symmetric_and_consistent(a, b):
    assert box_intersect(a, b) == box_intersect(b, a)
    assert interiors_overlap(a, b) == interiors_overlap(b, a)
    inter = box_intersect(a, b)
    if interiors_overlap(a, b):
        assert inter is not None and not is_degenerate(inter)
    else:
        assert inter is None or is_degenerate(inter)


@given(boxes_2d())
def test_box_contains_own_center(b):
    # strictly inside on every axis: the drawn boxes are never degenerate
    assert all(lo < x < hi for x, (lo, hi) in zip(box_center(b), b.intervals))
