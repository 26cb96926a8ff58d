import contextlib
import io
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mmdim.cli import main
from mmdim.constructions import Schedule, build_stacked
from mmdim.horseshoe import build_horseshoe
from oracles import cube_of


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
    """Run `mmdim ARGS` in process: main(args, standalone_mode=False).

    Returns exit_code, stdout, stderr and output (stdout then stderr).  A
    usage error or --help ends in SystemExit, whose code is the exit code;
    any other exception propagates, so a traceback fails the test.
    """

    def run(args: list[str]) -> SimpleNamespace:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                               output=out.getvalue() + err.getvalue())

    return run
