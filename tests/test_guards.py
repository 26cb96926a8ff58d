"""Design guards: names and imports that src/mmdim must not bring back.

Each deletion of a redundant rule (one metric, one eps, one max rule, ...)
is pinned by a row of GUARDS: a step name, a pattern, the paths it is
searched in, and the reason the name went.  A pattern is searched line by
line, as `grep -E` would, so comments and docstrings count too.  A directory
path means the `*.py` files under it (never `__pycache__`, whose bytecode
holds the names of the source); a file path means that file.  A path a row
names that does not exist fails the row.  A step whose check needs two
patterns on different paths has two rows under one name, and each step is
one case, `test_guard[<step name>]`, which prints every matching
`path:line: text`.

A change that deletes a name adds a row here, not a CI step, so tier-1 sees
it.  `tests/test_reach.py` is the other design gate: it fails on a function
that no command runs.  The catalog of mutants (ROADMAP item 7) has the same
shape as this table, a file, a text and a reason, so its runner can read
its files with `source_lines`.
"""

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Guard(NamedTuple):
    name: str
    pattern: str
    paths: tuple[str, ...]
    reason: str
    skip: tuple[str, ...] = ()  # file names not read under a directory path
    absent: tuple[str, ...] = ()  # paths that must not exist


SRC = ("src/mmdim",)

GUARDS = [
    Guard("No assert statements in src/mmdim", r"^\s*assert\b", SRC,
          "python -O strips assert statements, so invariants raise explicitly"),
    Guard("One working precision in src/mmdim", r"\bdps\b|--precision", SRC,
          "the logs of the profile rows' exact rationals are evaluated at "
          "symbolic.WORKING_DPS only"),
    Guard("No mpmath in src/mmdim", r"mpmath", SRC,
          "logs are evaluated with the standard library's decimal; mpmath is only "
          "the tests' oracle, and importing it costs every command"),
    Guard("No click in src/mmdim or pyproject.toml", r"click", (*SRC, "pyproject.toml"),
          "mmdim.cli reads argv from its own table of commands; importing click "
          "cost every command about 26 ms of start-up"),
    Guard("No argparse or csv in src/mmdim", r"argparse|\bcsv\b", SRC,
          "mmdim.cli.COMMANDS is the one table of the commands and their options, "
          "and cli._parse reads argv from it; argparse with the gettext and locale "
          "it loads, and building its parsers, cost every command 4-6 ms of CPU, "
          "more than verify's own work; no profile field needs quoting, so "
          "specfile.write_profile_csv joins the fields itself and no command imports "
          "csv (the argparse parser is the tests' oracle, in tests/oracles.py)"),
    Guard("No dataclasses in src/mmdim", r"dataclass", SRC,
          "records are typing.NamedTuples; dataclasses (with the inspect it imports) "
          "and its generated methods cost every command about 30 ms of start-up"),
    Guard("No geometry layers at module level in the symbolic layer",
          r"^from \.(horseshoe|mapping) import",
          ("src/mmdim/cli.py", "src/mmdim/constructions.py", "src/mmdim/symbolic.py",
           "src/mmdim/specfile.py"),
          "build, verify and profile never build a horseshoe; compiling the horseshoe "
          "and mapping modules cost each of them about 8 ms of start-up, so those "
          "load only inside validate, estimate and Block.geometry()"),
    Guard("One metric in src/mmdim", r"EUCLIDEAN|euclid|MAXNORM", SRC,
          "orbits are compared in the max norm only; the euclidean norm is "
          "bi-Lipschitz to it on a cube, so it gives the same dimensions"),
    Guard("One geometry budget in src/mmdim",
          r"geometry_budget|MAX_GEOMETRY_BUDGET|_stored_budget", SRC,
          "constructions.GEOMETRY_BUDGET is a constant; no parameter or field "
          "overrides it, and no system file states it"),
    Guard("No test-only functions in src/mmdim",
          r"bowen_distance|dist_maxnorm|strip_word_box|enlarged_box|leg_for_strip"
          r"|from \.metrics", SRC,
          "the naive Bowen distance, the unsquared word boxes and the block "
          "enlargements are the tests' oracles, in tests/oracles.py; no command "
          "runs them, and orbits_separate, the scan's kernel, is in estimators",
          absent=("src/mmdim/metrics.py",)),
    Guard("One lattice path in src/mmdim", r"_rescale|_to_lattice", SRC,
          "seeds and orbits are built as integers over denominators fixed before "
          "the scan, so no pass rescales Fraction states to a lattice"),
    Guard("The validator loads with validate alone", r"validat|CheckResult",
          ("src/mmdim/estimators.py", "src/mmdim/horseshoe.py", "src/mmdim/mapping.py"),
          "estimate builds horseshoes but never checks them; the validator's checks "
          "and records live in mmdim.validation, which only cli.validate imports, "
          "so no estimate compiles them (test_validator_loads_with_validate_alone "
          "checks the imports)"),
    Guard("Slab maps only in src/mmdim",
          r"_first_axis_sweep|find_cross_overlap|interiors_overlap|is_degenerate"
          r"|def intersect", SRC,
          "every map the package builds is a family of first-axis slabs, so the "
          "general box-overlap sweep and the box intersection helpers are the "
          "tests' oracles, in tests/oracles.py"),
    Guard("One estimate decision in src/mmdim",
          r"--budget|DEFAULT_BUDGET|growth_rate|GrowthRate", SRC,
          "estimators.mdim_numeric_profile owns the depth loop, the fixed cylinder "
          "budget and every refusal"),
    Guard("One estimate decision in src/mmdim", r"UnmaterializedBlockError",
          ("src/mmdim/cli.py", "src/mmdim/estimators.py"),
          "the cylinder budget refuses an unmaterialized block before its geometry "
          "is asked for, so the estimate path never meets UnmaterializedBlockError"),
    Guard("One exact eps in src/mmdim",
          r"def eps_exact|def eps_float|_cylinder_count|_CONTEXT\.exp", SRC,
          "Schedule.eps is the one eps formula: each profile row holds the exact "
          "eps_k and eps_(k+1) it gives, the ratios take the logs of those "
          "rationals, and the CSV's eps_float is the exact eps rounded"),
    Guard("Rows of exact rationals in src/mmdim",
          r"LogExpr|_eps_log_inv|eps_log_inv|log_ratio|of_rational", SRC,
          "a profile row holds L_k, eps_k and eps_(k+1) as exact values and "
          "evaluates each log from them; no second, symbolic copy of those logs "
          "(and so no second eps formula) and no float max rule come back"),
    Guard("Exact limits in src/mmdim",
          r"FIT_TAIL|_fit_c_minus_d_over_k|ExtrapolationResult|FitResult"
          r"|liminf_estimate|--tol", SRC,
          "symbolic.extrapolate returns the profile's liminf and limsup as exact "
          "rationals n / a from symbolic._growth, the coefficients it holds "
          "every row to before it returns, not from the targets; "
          "specfile.analytic_targets(spec) states the targets from the spec alone, and "
          "verify compares the two for equality; no float tail fit or tolerance "
          "stands in for them"),
    Guard("No derived fields in system files", r'"(L|materialized|geometryBudget)"',
          ("src/mmdim/specfile.py",),
          "a system file stores only what its spec does not state: a "
          "block's L is 3^k, whether it is materialized follows from k, n and the "
          "budget, and the spec holds n, kMax, alpha and beta"),
    Guard("No leg overrides in src/mmdim", r"legScheduleOverride|leg_override|overridden",
          (*SRC, "README.md"),
          "every block has L_k = 3^k, so symbolic._stacked_fault checks every row; "
          "a spec or system file naming a leg override exits 2"),
    Guard("One max rule and plain cylinder words in src/mmdim",
          r"CylinderCode|_check_step|_two_block_bound|rational_to_str", SRC,
          "symbolic._larger_half is the only max rule, and a two-block row is "
          "exactly its larger half's row; a cylinder is a plain word of (strip, "
          "leg) steps that symbolic.cylinder_geometry checks; fractions print "
          "with str"),
    Guard("The collector is the CLI's alone in src/mmdim", r"\bgc\b", SRC,
          "a standalone mmdim.cli.main owns its process, so it turns the cyclic "
          "collector off while a command runs and freezes every object before it "
          "exits; no library module touches gc, so no function changes an "
          "in-process caller's collector",
          skip=("cli.py",)),
    Guard("One table of spec fields in src/mmdim",
          r"KIND_(GEOMETRIC|QUADRATIC|SPARSE|TWO_BLOCK|IDENTITY)|_check_stored_digits"
          r"|to_jsonable\(\) \|", SRC,
          "specfile.KIND_FIELDS alone says which fields each kind takes, and "
          "specfile.check_sizes alone holds a spec, or --kmax, to the digit caps "
          "without re-parsing it"),
    Guard("A row's activity is the schedule's in src/mmdim",
          r"row\.active|RateBound\(k, (True|False)", SRC,
          "a profile row is active exactly when its L is not 1, and "
          "symbolic._stacked_fault holds it to schedule.is_active(k), so no flag "
          "of its own can state an activity its L contradicts"),
    Guard("One verdict call in src/mmdim", r"row_fault", SRC,
          "symbolic.extrapolate holds every row to its growth and raises "
          "symbolic.RowFault before it returns limits, so verify and profile "
          "cannot read limits off rows that no check has seen"),
    Guard("One refusal of a non-integer rate in src/mmdim",
          r"has_rational_sizes|only integer rates materialize", SRC,
          "Schedule refuses a non-integer geometric rate when it is built, so "
          "every schedule's sides are rational and neither Schedule.size nor "
          "place_cubes asks again"),
    Guard("Commands call the deciding code directly in src/mmdim",
          r"def _load\b|ValidationReport|_half_bound|unknown system type", SRC,
          "cli.main maps spec and schedule errors to exit 2, so each command calls "
          "load_system(read_json(path)) itself; validate_horseshoe returns its checks; "
          "symbolic._half_rows builds each half's rows once for rate_profile and "
          "extrapolate; a system is one record, so no branch refuses an unknown type"),
    Guard("One write path in src/mmdim", r"write_json\b", SRC,
          "cli._write writes every output path and stdout and maps an OSError to "
          "CannotWrite, build's system file included; the tests write their files "
          "with specfile.canonical_dumps"),
    Guard("One spec table in tests", r"^(SPECS|VERIFIED_SPECS|GOLDEN|BUILT|REFUSED|CORPUS) =",
          ("tests",),
          "tests/corpus.py holds the one table of specs and the one command matrix; "
          "tests/pins.json pins every output of the matrix, and test_reach runs it",
          skip=("corpus.py",)),
    Guard("One system record in src/mmdim",
          r"IdentitySystem|TwoBlockSystem|\b_halves\b|isinstance\([^)]*System\b", SRC,
          "a System is its (Chart, StackedSystem) parts: a stacked spec is one part in "
          "the unit chart, a two-block spec its halves in the corner charts, and the "
          "identity no part, so every consumer loops over system.parts and none "
          "tells systems apart by type"),
    Guard("One part layout in src/mmdim", r'solve_rate|"(two-block|lower|upper)"|kind = "stacked"',
          SRC,
          "specfile.spec_parts alone turns a spec into its charted stacked specs and "
          "the field that sets each rate, and check_sizes, build_system and "
          "analytic_targets loop over them; a system file lists each distinct part's "
          "payload once and names no corner and no kind of system"),
    Guard("One part layout in src/mmdim", r"build_two_block", SRC,
          "specfile.build_two_block is where a two_block spec expands into its parts",
          skip=("specfile.py",)),
    Guard("One system format in src/mmdim", r"mmdim-system/[1-4]", SRC,
          "the loader reads format /5 alone and refuses every older file with the "
          "rebuild hint, so no code path reads or writes an older layout"),
    Guard("One system format in src/mmdim", r"schedule\.eps\(|\.eps\(block",
          ("src/mmdim/specfile.py",),
          "a system file stores each block's cube and activity only: block i of a "
          "part is k = i + 1 and its eps is Schedule.eps(k), so the writer computes "
          "no eps, and a file that restates k or eps does not match its rebuild"),
]


def source_lines(path: str, skip: tuple[str, ...] = ()) -> list[tuple[str, int, str]]:
    """(path, line number, text) of every line `path` names, relative to the
    repository root: a file, or the `*.py` files under a directory but for the
    file names in `skip`.  A missing path raises FileNotFoundError."""
    target = ROOT / path
    if not target.exists():
        raise FileNotFoundError(f"{path} does not exist")
    if target.is_dir():
        files = sorted(f for f in target.rglob("*.py")
                       if "__pycache__" not in f.parts and f.name not in skip)
    else:
        files = [target]
    return [(f.relative_to(ROOT).as_posix(), n, line)
            for f in files
            for n, line in enumerate(f.read_text(encoding="utf-8").splitlines(), 1)]


@pytest.mark.parametrize("name", list(dict.fromkeys(g.name for g in GUARDS)))
def test_guard(name):
    rows = [g for g in GUARDS if g.name == name]
    faults = []
    for guard in rows:
        regex = re.compile(guard.pattern)
        for path in guard.paths:
            try:
                lines = source_lines(path, guard.skip)
            except FileNotFoundError as exc:
                faults.append(f"{exc}; the row names it")
                continue
            faults += [f"{p}:{n}: {text}" for p, n, text in lines if regex.search(text)]
        faults += [f"{path} exists" for path in guard.absent if (ROOT / path).exists()]
    assert not faults, "\n".join(faults + [g.reason for g in rows])


def test_validator_loads_with_validate_alone():
    # a fresh interpreter, so no other test's imports count
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, mmdim.cli, mmdim.estimators; "
            "print('mmdim.validation' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n"


def test_commands_load_no_argparse_locale_or_csv(tmp_path):
    # a fresh interpreter runs verify, profile and estimate through main, then
    # lists what they loaded beyond what the interpreter had loaded before
    spec, system = tmp_path / "spec.json", tmp_path / "system.json"
    spec.write_text('{"kind": "geometric", "n": 2, "B": "1", "r": "1", "kMax": 3}')
    code = f"""
import contextlib, io, sys
before = set(sys.modules)
from mmdim.cli import main
commands = [["build", {str(spec)!r}, "-o", {str(system)!r}], ["verify", {str(system)!r}],
            ["profile", {str(system)!r}], ["estimate", {str(system)!r}, "--k", "1", "--m", "2"]]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv, standalone_mode=False) == 0, argv
print(sorted(set(sys.modules) - before))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    loaded = eval(result.stdout)
    assert "mmdim.estimators" in loaded  # the listing sees a module loaded inside a command
    assert [m for m in loaded if m.lstrip("_") in {"argparse", "gettext", "locale", "csv"}] == []
