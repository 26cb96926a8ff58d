"""Command-line front end.

Commands: build a system from a JSON spec, validate its geometry, export
symbolic or numeric rate profiles as CSV, and verify the profile's rows and
exact limits against the schedule's analytic targets; `--help` lists each
command's options with their defaults.  `main(argv, standalone_mode=False)`
returns the exit code instead of exiting; a usage error exits 2 either way.
A standalone `main` owns its process: it runs the command with the cyclic
garbage collector off and freezes every object before it exits, so neither
the command nor the interpreter's exit walks the long-lived objects, while an
in-process caller keeps its collector as it was.

Exit codes: 0 success, 1 verification failure (`verify` finding a limit
other than its target, `verify` or `profile` meeting a row that strays
from the growth its limits assume (`symbolic.row_fault`), or `estimate`
keeping another count than the symbolic row's L^(n m) cylinder centers at
a block's own eps), 2
usage or spec error, a refused `estimate` (a block outside the file, or
more cylinders than the budget at some depth), or an unwritable output
path.
CSV and JSON go to the requested output path (stdout by default for CSV);
human-readable progress and reports go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .constructions import (
    IdentitySystem,
    ScheduleError,
    StackedSystem,
    TwoBlockSystem,
)
from .geometry import rational_from_str
from .specfile import (
    MAX_STORED_DIGITS,
    SpecFileError,
    SystemSpec,
    build_system,
    load_system,
    numeric_csv_rows,
    read_json,
    symbolic_csv_rows,
    system_to_jsonable,
    write_json,
    write_profile_csv,
)
from .symbolic import analytic_targets, extrapolate, rate_profile, row_fault


class UsageError(Exception):
    """Unusable arguments or input: the command prints its usage and exits 2."""


class CannotWrite(Exception):
    """An output path could not be opened or written: one line, and exit 2."""


class _Formatter(argparse.HelpFormatter):
    """Head the usage "Usage:", as mmdim always has; the benchmark's --help check reads it."""

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


def _load(path: str):
    try:
        return load_system(read_json(path))
    except (SpecFileError, ScheduleError) as exc:
        raise UsageError(str(exc))


def _check_kmax(spec: SystemSpec, kmax: int) -> None:
    """Hold --kmax to the size caps a spec file with kMax = kmax would meet."""
    if spec.k_max is None:
        return
    try:
        SystemSpec.from_jsonable(spec.to_jsonable() | {"kMax": kmax})
    except SpecFileError as exc:
        raise UsageError(f"--kmax {kmax}: {exc}")


def _write_rows(out: str | None, rows) -> None:
    if out is None:
        write_profile_csv(sys.stdout, rows)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_profile_csv(fh, rows)
    except OSError as exc:
        raise CannotWrite(f"cannot write {out}: {exc.strerror or exc}") from None


def build(spec_path: str, out: str) -> int:
    """Build the system a spec file describes and write it with its geometry."""
    try:
        spec = SystemSpec.from_jsonable(read_json(spec_path))
        system = build_system(spec)
        payload = system_to_jsonable(system, spec)
    except (SpecFileError, ScheduleError) as exc:
        raise UsageError(str(exc))
    try:
        write_json(out, payload)
    except OSError as exc:
        raise CannotWrite(f"cannot write {out}: {exc.strerror or exc}") from None
    print(f"wrote {out}", file=sys.stderr)
    return 0


def validate(system_path: str) -> int:
    """Re-derive and check every materialized block's geometry."""
    # the horseshoe layer loads here, not with the symbolic commands
    from .horseshoe import validate_horseshoe

    _, system = _load(system_path)
    halves = [system]
    if isinstance(system, TwoBlockSystem):
        halves = [system.lower, system.upper]
    failures = 0
    blocks_seen = 0
    for half in halves:
        if isinstance(half, IdentitySystem):
            continue
        for block in half.blocks:
            if not block.materialized:
                continue
            blocks_seen += 1
            report = validate_horseshoe(block.geometry())
            status = "ok" if report.passed else "FAILED"
            print(f"block k={block.k} (L={block.L}): "
                  f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks {status}",
                  file=sys.stderr)
            for check in report.failures():
                print(f"  FAIL {check.name}: {check.detail}", file=sys.stderr)
                failures += 1
    if blocks_seen == 0:
        print("no materialized blocks; file-level checks passed", file=sys.stderr)
    return 1 if failures else 0


def profile(system_path: str, kmax: int, out: str | None) -> int:
    """Export the symbolic rate profile as CSV, with its exact limits."""
    spec, system = _load(system_path)
    _check_kmax(spec, kmax)
    rows = rate_profile(system, range(1, kmax + 1))
    if (fault := row_fault(system, range(1, kmax + 1))) is not None:
        print(fault, file=sys.stderr)
        return 1
    _write_rows(out, symbolic_csv_rows(rows))
    (lo, hi), (target_lo, target_hi) = extrapolate(system), analytic_targets(system)
    print(f"limits: liminf = {lo} (target {target_lo}), limsup = {hi} (target {target_hi})",
          file=sys.stderr)
    return 0


def estimate(system_path, k, m_max, eps_str, out) -> int:
    """Measure separated-set growth on one block by exact greedy scans."""
    # the scan's layers load here, not with the commands that never scan
    from .estimators import mdim_numeric_profile

    _, system = _load(system_path)
    if not isinstance(system, StackedSystem):
        raise UsageError(f"estimates run on stacked systems (got {type(system).__name__})")
    eps_value = None
    if eps_str is not None:
        try:
            eps_value = rational_from_str(eps_str)
        except ValueError as exc:
            raise UsageError(f"--eps: {exc}")
        if eps_value <= 0:
            raise UsageError("--eps must be positive")
    row = mdim_numeric_profile(system, k, m_max, eps_value)
    _write_rows(out, numeric_csv_rows([row]))
    for m, count in row.counts.items():
        print(f"k={k} m={m} eps={row.eps_exact} count={count} "
              f"seeds={row.seeds[m]} pairs={row.pairs[m]}", file=sys.stderr)
    if row.expected is not None:
        m = max(row.counts)
        print(f"k={k} m={m} count={row.counts[m]} expected={row.expected}", file=sys.stderr)
        return 1
    if row.error is not None:
        print(f"k={k}: {row.error}", file=sys.stderr)
        return 2
    if eps_value is not None:
        print(f"--eps {eps_value} is a probe, not block {k}'s own eps: its counts decide nothing",
              file=sys.stderr)
    return 0


def verify(system_path: str, kmax: int) -> int:
    """Check the profile's rows, then its exact limits against the analytic targets."""
    spec, system = _load(system_path)
    _check_kmax(spec, kmax)
    if (fault := row_fault(system, range(1, kmax + 1))) is not None:
        print(fault, file=sys.stderr)
        return 1
    targets, limits = analytic_targets(system), extrapolate(system)
    print(f"{'quantity':<10}{'target':>12}{'limit':>12}  equal")
    for name, target, limit in zip(("liminf", "limsup"), targets, limits):
        print(f"{name:<10}{str(target):>12}{str(limit):>12}  {'yes' if limit == target else 'NO'}")
    return 0 if limits == targets else 1


def _parser() -> argparse.ArgumentParser:
    style = dict(formatter_class=_Formatter, allow_abbrev=False, add_help=False)
    parser = argparse.ArgumentParser(prog="mmdim", description=main.__doc__, **style)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    sub = {}
    for run in (build, validate, profile, estimate, verify):
        sub[run] = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                       **style)
        sub[run].set_defaults(run=run, parser=sub[run])
        path = "spec_path" if run is build else "system_path"
        sub[run].add_argument(path, metavar=path.upper(), type=_existing_file)
    sub[build].add_argument("-o", "--out", required=True, type=_file_path, metavar="PATH",
                            help="Where to write the built system JSON.")
    sub[profile].add_argument("--kmax", type=_int_range(1, MAX_STORED_DIGITS), default=24,
                              help="Profile block indices 1..kmax. (default: %(default)s)")
    sub[estimate].add_argument("--k", type=_int_range(1), required=True,
                               help="Block index to measure.")
    sub[estimate].add_argument("--m", dest="m_max", metavar="M", type=_int_range(2), default=3,
                               help="Greedy scans run at depths 1..m. (default: %(default)s)")
    sub[estimate].add_argument("--eps", dest="eps_str", metavar="EPS",
                               help='Override the separation scale (a "p/q" rational).')
    for run in (profile, estimate):
        sub[run].add_argument("-o", "--out", type=_file_path, metavar="PATH",
                              help="CSV output path (default: stdout).")
    sub[verify].add_argument("--kmax", type=_int_range(1, MAX_STORED_DIGITS), default=30,
                             help="Check the rows of block indices 1..kmax. "
                                  "(default: %(default)s)")
    for each in (parser, *sub.values()):  # --help alone, with no -h, as mmdim always had
        each.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Exact horseshoe systems with prescribed metric mean dimension."""
    args = vars(_parser().parse_args(argv))
    run, parser = args.pop("run"), args.pop("parser")
    if standalone_mode:
        gc.disable()  # a command makes no cyclic garbage that grows with its work
    try:
        code = run(**args)
    except UsageError as exc:
        parser.error(str(exc))
    except CannotWrite as exc:
        print(exc, file=sys.stderr)
        code = 2
    finally:
        if standalone_mode:
            gc.freeze()  # the exit's forced collections find nothing to walk
    if not standalone_mode:
        return code
    sys.exit(code)


if __name__ == "__main__":
    main()
