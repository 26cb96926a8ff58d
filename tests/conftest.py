import gc
from fractions import Fraction

import pytest

from mmdim.constructions import Schedule, build_stacked
from mmdim.horseshoe import build_horseshoe

import corpus
from oracles import cube_of


@pytest.fixture(autouse=True)
def _collector_restored():
    """Turn the collector back on after each test.

    A standalone `main` run in process disables the cyclic collector and
    freezes every object, as it does for the process it owns; without this the
    rest of the session would run with the collector off.
    """
    yield
    gc.unfreeze()
    gc.enable()


@pytest.fixture(scope="session")
def unit_square_h():
    """3-leg horseshoe on [0,1]^2: 5 strips of width 1/5, 3 legs of height 1/5."""
    return build_horseshoe(cube_of(0, 1, 2), 3)


@pytest.fixture(scope="session")
def geometric_system():
    """Geometric sizes 1/3^k, L_k = 3^k, n = 2, three materialized blocks."""
    return build_stacked(Schedule.geometric(1, 1), 2, 3)


@pytest.fixture()
def q(request):
    return Fraction


@pytest.fixture(scope="session")
def cli():
    """Run `mmdim ARGS` in process, as the corpus runs its matrix: see corpus.run."""
    return corpus.run
