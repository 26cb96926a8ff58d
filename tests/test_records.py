"""The immutable records: validated constructors, value semantics, caches.

Every record is a `typing.NamedTuple`, except a `Box`, which is the tuple
of its per-axis intervals; the ones with an invariant check it in
`__new__`.  The construction records are plain values, their fields and
nothing else: a block's horseshoe and a cube's side are computed on each
call.  Only a horseshoe and its map cache: they keep the tables the scan
reads per seed and per step in the instance `__dict__`, outside the fields.
"""

from fractions import Fraction

import pytest

from mmdim.constructions import (
    ACTIVE_SELF_POWERS,
    Block,
    Schedule,
    ScheduleError,
    StackedSystem,
    build_stacked,
)
from mmdim.geometry import Box, Cube
from mmdim.horseshoe import build_horseshoe
from mmdim.mapping import AffinePiece, PAMap
from mmdim.symbolic import cylinder_geometry
from oracles import box_center, box_of, cube_of, lattice_point
from system_maps import two_block_system

F = Fraction
UNIT = box_of((0, 1), (0, 1))

INVALID = [
    (lambda: Box(((F(0), F(1)), (F(1, 2), F(1, 3)))), ValueError, "inverted interval [1/2, 1/3]"),
    (lambda: Box(((F(-1, 2), F(-2, 3)),)), ValueError, "inverted interval [-1/2, -2/3]"),
    (lambda: Box(((F(0), F(1)), (-1, -2))), ValueError, "inverted interval [-1, -2]"),
    (lambda: Box(((1, F(1, 2)),)), ValueError, "inverted interval [1, 1/2]"),
    (lambda: Box(((F(-1, 3), -1),)), ValueError, "inverted interval [-1/3, -1]"),
    (lambda: Cube(F(1), F(1), 2), ValueError, "cube needs lo < hi"),
    (lambda: Cube(F(1), F(0), 2), ValueError, "cube needs lo < hi"),
    (lambda: Cube(F(0), F(1), 0), ValueError, "cube dimension must be positive"),
    (lambda: AffinePiece(UNIT, (F(1),), (F(0), F(0))), ValueError, "piece dimensions disagree"),
    (lambda: AffinePiece(UNIT, (F(1), F(0)), (F(0), F(0))), ValueError,
     "piece scales must be nonzero"),
    (lambda: PAMap(cube_of(0, 1, 3), (AffinePiece(UNIT, (F(1),) * 2, (F(0),) * 2),)),
     ValueError, "piece dimension differs from ambient cube"),
    (lambda: PAMap(cube_of(0, 1, 2), (AffinePiece(UNIT, (F(1),) * 2, (F(0),) * 2),) * 2),
     ValueError, "piece domains 0 and 1 have overlapping interiors"),
    (lambda: Schedule(F(0), F(1)), ScheduleError, "B must be positive"),
    (lambda: Schedule(F(1), F(0)), ScheduleError, "geometric schedules need r > 0"),
    (lambda: Schedule(F(1), F(-1)), ScheduleError, "geometric schedules need r > 0"),
    (lambda: Schedule(F(3), F(1)), ScheduleError,
     "geometric sizes must sum to at most 1 (B <= 3^r - 1)"),
    (lambda: Schedule(F(2)), ScheduleError, "quadratic schedules need B <= 1"),
    (lambda: Schedule(F(1), F(1), active="odd"), ScheduleError,
     "active must be 'all' or 'self-powers'"),
]


@pytest.mark.parametrize("make,error,message", INVALID, ids=[m for _, _, m in INVALID])
def test_validated_constructors_raise(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_box_keeps_ordered_negative_and_mixed_ends():
    for intervals in [((F(-2, 3), F(-1, 2)),), ((-1, F(-1, 2)), (F(1, 3), 1)),
                      ((F(-1, 2), -F(1, 2)),)]:
        box = Box(intervals)
        assert box == intervals and type(box) is Box and not hasattr(box, "__dict__")


# The unit square's L = 3 horseshoe: kappa = 5 strips and 2 L - 1 = 5 t-cells,
# so odd strips 1, 3, 5 and odd legs (1,), (3,), (5,).
BAD_WORDS = [
    (((2, (1,)),), "strip 2 is not an odd strip of the horseshoe"),
    (((1, (1,)), (7, (1,))), "strip 7 is not an odd strip of the horseshoe"),
    (((3, (1,)), (3, (4,))), "leg (4,) is not an odd leg of the horseshoe"),
    (((5, (7,)),), "leg (7,) is not an odd leg of the horseshoe"),
    (((1, (3, 1)),), "leg (3, 1) is not an odd leg of the horseshoe"),
]


@pytest.mark.parametrize("word,message", BAD_WORDS, ids=[m for _, m in BAD_WORDS])
def test_a_bad_step_raises_each_time_it_is_met(word, message):
    # a good step checked first lets no bad step through, now or later
    h = build_horseshoe(cube_of(0, 1, 2), 3)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            cylinder_geometry(h, word)
        assert str(info.value) == message


def test_records_keep_value_semantics():
    cube = cube_of(0, 1, 2)
    assert repr(cube) == "Cube(lo=Fraction(0, 1), hi=Fraction(1, 1), dim=2)"
    assert cube == Cube(lo=F(0), hi=F(1), dim=2) and hash(cube) == hash(cube_of(0, 1, 2))
    with pytest.raises(AttributeError):
        cube.lo = F(1, 2)


def test_construction_records_are_their_fields():
    assert Schedule._fields == ("B", "r", "active")
    assert Block._fields == ("k", "cube", "L", "active")
    assert StackedSystem._fields == ("schedule", "blocks")
    stacked = build_stacked(Schedule.geometric(1, 1), 2, 2)
    for value in (stacked, stacked.schedule, stacked.blocks[0], stacked.blocks[0].cube):
        assert not hasattr(value, "__dict__")
    # the schedule's kind is its rate's: quadratic sizes exactly when r is None
    assert stacked.schedule.kind == "geometric" and Schedule.quadratic(1).kind == "quadratic"
    assert Schedule(F(1, 2)) == Schedule.quadratic(F(1, 2))


def test_caches_take_no_part_in_equality():
    h, fresh = build_horseshoe(cube_of(0, 1, 2), 3), build_horseshoe(cube_of(0, 1, 2), 3)
    assert h.grid.cube.side == 1 and h.leg_of and h.strip_of and h.word_lattice and h.leg_cells
    assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)
    assert set(vars(h)) == {"leg_of", "strip_of", "word_lattice", "leg_cells"}
    assert vars(fresh) == {}
    x, den = lattice_point(box_center(h.pamap.pieces[0].domain))
    h.pamap.orbit(x, 1, den)
    assert not hasattr(h.pamap.pieces[0], "__dict__")  # the step cache is the map's
    assert {"step_den", "_steps"} <= set(vars(h.pamap)) and h.pamap._steps
    assert "step_den" not in vars(fresh.pamap) and not fresh.pamap._steps
    assert h.pamap == fresh.pamap and hash(h.pamap) == hash(fresh.pamap)


@pytest.mark.parametrize("beta,direct", [
    (F(1), Schedule.geometric(1, 1, active=ACTIVE_SELF_POWERS)),
    (F(2, 3), Schedule.geometric(1, 2, active=ACTIVE_SELF_POWERS)),
    (F(2), Schedule.quadratic(1, active=ACTIVE_SELF_POWERS)),
])
def test_two_block_sparse_schedule_is_built_directly(beta, direct):
    lower = two_block_system(F(1, 2), beta, 2, 3).parts[0][1]
    assert lower.schedule == direct and type(lower.schedule) is Schedule
