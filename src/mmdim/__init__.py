"""Exact horseshoe systems on n-cubes with prescribed metric mean dimension.

The package builds piecewise-affine horseshoe maps over exact rational
arithmetic, stacks them along size/leg schedules whose separated-set growth
has known limits, and checks those limits two ways: symbolically, through
integer-log rate expressions, and numerically, through greedy separated and
spanning scans in the iterated-maximum (Bowen) metric.
"""

from .constructions import (
    ACTIVE_ALL,
    ACTIVE_SELF_POWERS,
    Block,
    IdentitySystem,
    Schedule,
    ScheduleError,
    StackedSystem,
    System,
    TwoBlockSystem,
    UnmaterializedBlockError,
    build_stacked,
    build_two_block,
    enlarged_box,
    place_cubes,
    solve_rate,
)
from .estimators import (
    BudgetExceeded,
    GreedyResult,
    GrowthRate,
    NumericRateRow,
    SeedSet,
    cylinder_centers,
    greedy_separated,
    growth_rate,
    mdim_numeric_profile,
)
from .geometry import Box, Cube, Point, as_point, rational_from_str, rational_to_str
from .horseshoe import (
    HorseshoeMap,
    Leg,
    Strip,
    SubdivisionGrid,
    ValidationReport,
    boustrophedon_legs,
    build_horseshoe,
    square,
    subdivide,
    validate_horseshoe,
)
from .mapping import ESCAPED, AffinePiece, PAMap
from .metrics import EUCLIDEAN, MAXNORM, BowenDistance, bowen_distance, orbits_separate
from .specfile import (
    SpecFileError,
    SystemSpec,
    build_system,
    canonical_dumps,
    load_system,
    system_to_jsonable,
)
from .symbolic import (
    CylinderCode,
    EpsSchedule,
    ExtrapolationResult,
    LogExpr,
    RateBound,
    analytic_targets,
    cylinder_geometry,
    enumerate_cylinders,
    extrapolate,
    rate_profile,
    strip_word_box,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
