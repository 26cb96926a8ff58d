from fractions import Fraction

import pytest

from mmdim.constructions import Schedule, build_stacked
from mmdim.geometry import Cube
from mmdim.horseshoe import build_horseshoe


@pytest.fixture(scope="session")
def unit_square_h():
    """3-leg horseshoe on [0,1]^2: 5 strips of width 1/5, 3 legs of height 1/5."""
    return build_horseshoe(Cube.of(0, 1, 2), 3)


@pytest.fixture(scope="session")
def geometric_system():
    """Geometric sizes 1/3^k, L_k = 3^k, n = 2, three materialized blocks."""
    return build_stacked(Schedule.geometric(1, 1), 2, 3)


@pytest.fixture()
def q(request):
    return Fraction
