"""Command-line front end.

Commands: build a system from a JSON spec, validate its geometry, export
symbolic or numeric rate profiles as CSV, and verify the profile's rows and
exact limits against the spec's analytic targets.  One table, `COMMANDS`,
gives each command its positional and options; `_parse` reads argv from it
as the standard library's parser did (tests/oracles.py keeps that parser as
its oracle), and `--help` and the usage lines are printed from it.
`main(argv, standalone_mode=False)` returns the exit code instead of exiting;
a usage error exits 2 and --help 0 either way.  A standalone `main` owns its
process: it runs the command with the cyclic garbage collector off and
freezes every object before it exits, so the interpreter's exit walks none
of them, while an in-process caller keeps its collector as it was.

Exit codes: 0 success, 1 a failed verification (a limit off its target, a
row off its growth, or an `estimate` count other than L^(n m) at a block's
own eps), 2 a usage or spec error, a refused `estimate`, or an output path
or stdout that cannot be written.  Commands raise and `main` maps: a
`UsageError`, `SpecFileError` or `ScheduleError` prints the command's usage
and its one line (exit 2), a `CannotWrite` its line (exit 2), and a
`symbolic.RowFault`, which `extrapolate` raises before `verify` or `profile`
writes anything, the fault's line (exit 1).  CSV and JSON go to the output
path (stdout by default for CSV); progress and reports go to stderr.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from typing import NamedTuple

from .constructions import UNIT, ScheduleError
from .geometry import rational_from_str
from .specfile import (
    MAX_STORED_DIGITS,
    SpecFileError,
    SystemSpec,
    analytic_targets,
    build_system,
    check_sizes,
    load_system,
    numeric_csv_rows,
    read_json,
    symbolic_csv_rows,
    system_to_jsonable,
    write_json,
    write_profile_csv,
)
from .symbolic import RowFault, extrapolate, rate_profile


class UsageError(Exception):
    """Unusable arguments or input: the command prints its usage and exits 2."""


class CannotWrite(Exception):
    """An output path, or stdout, could not be written: one line, and exit 2."""


def _file_path(path: str) -> str:
    if os.path.isdir(path):
        raise UsageError(f"'{path}' is a directory")
    return path


def _existing_file(path: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"'{path}' does not exist")
    return _file_path(path)


def _int_range(lo: int, hi: int | None = None):
    """An integer option's check: at least lo, and at most hi unless it is None."""
    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"invalid integer value: {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            raise UsageError(f"{value} is not in the range {lo}<=x"
                             + ("" if hi is None else f"<={hi}"))
        return value
    return integer


def _check_kmax(spec: SystemSpec, kmax: int) -> None:
    """Hold --kmax to the size caps a spec file with kMax = kmax would meet."""
    try:
        check_sizes(spec._replace(k_max=kmax))
    except SpecFileError as exc:
        raise UsageError(f"--kmax {kmax}: {exc}")


def _write(out: str | None, write) -> None:
    """Call write(fh) on the file at `out`, or on stdout when out is None, and
    flush it: a path, or a closed stdout, that cannot be written is CannotWrite."""
    try:
        if out is None:
            write(sys.stdout)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                write(fh)
    except OSError as exc:
        name = "stdout" if out is None else out
        raise CannotWrite(f"cannot write {name}: {exc.strerror or exc}") from None


def build(spec_path: str, out: str) -> int:
    """Build the system a spec file describes and write it with its geometry."""
    spec = SystemSpec.from_jsonable(read_json(spec_path))
    payload = system_to_jsonable(build_system(spec), spec)
    try:
        write_json(out, payload)
    except OSError as exc:
        raise CannotWrite(f"cannot write {out}: {exc.strerror or exc}") from None
    print(f"wrote {out}", file=sys.stderr)
    return 0


def validate(system_path: str) -> int:
    """Re-derive and check every materialized block's geometry."""
    # the validator loads here, not with the commands that build horseshoes to scan
    from .validation import validate_horseshoe

    _, system = load_system(read_json(system_path))
    parts = [("" if chart == UNIT else "lower half: " if chart.offset == 0 else "upper half: ",
              part) for chart, part in system.parts]
    if len(parts) == 2 and parts[0][1] is parts[1][1]:  # alpha = beta shares one system
        parts = [("both halves: ", parts[0][1])]
    failures = 0
    blocks_seen = 0
    for name, part in parts:
        for block in part.blocks:
            if not block.materialized:
                continue
            blocks_seen += 1
            checks = validate_horseshoe(block.geometry())
            failed = [c for c in checks if not c.passed]
            print(f"{name}block k={block.k} (L={block.L}): "
                  f"{len(checks) - len(failed)}/{len(checks)} checks "
                  f"{'FAILED' if failed else 'ok'}", file=sys.stderr)
            for check in failed:
                print(f"  FAIL {check.name}: {check.detail}", file=sys.stderr)
            failures += len(failed)
    if blocks_seen == 0:
        print("no materialized blocks; file-level checks passed", file=sys.stderr)
    return 1 if failures else 0


def profile(system_path: str, kmax: int, out: str | None) -> int:
    """Export the symbolic rate profile as CSV, with its exact limits."""
    spec, system = load_system(read_json(system_path))
    _check_kmax(spec, kmax)
    rows = rate_profile(system, range(1, kmax + 1))
    lo, hi = extrapolate(system, range(1, kmax + 1))
    _write(out, lambda fh: write_profile_csv(fh, symbolic_csv_rows(rows)))
    target_lo, target_hi = analytic_targets(spec)
    print(f"limits: liminf = {lo} (target {target_lo}), limsup = {hi} (target {target_hi})",
          file=sys.stderr)
    return 0


def estimate(system_path, k, m_max, eps_str, out) -> int:
    """Measure separated-set growth on one block by exact greedy scans."""
    # the scan's layers load here, not with the commands that never scan
    from .estimators import mdim_numeric_profile

    spec, system = load_system(read_json(system_path))
    if [chart for chart, _ in system.parts] != [UNIT]:
        raise UsageError(f"estimates run on stacked systems (got kind {spec.kind!r})")
    eps_value = None
    if eps_str is not None:
        try:
            eps_value = rational_from_str(eps_str)
        except ValueError as exc:
            raise UsageError(f"--eps: {exc}")
        if eps_value <= 0:
            raise UsageError("--eps must be positive")
    row = mdim_numeric_profile(system, k, m_max, eps_value)
    _write(out, lambda fh: write_profile_csv(fh, numeric_csv_rows([row])))
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
    spec, system = load_system(read_json(system_path))
    _check_kmax(spec, kmax)
    targets, limits = analytic_targets(spec), extrapolate(system, range(1, kmax + 1))
    rows = [("quantity", "target", "limit", "equal"),
            *((name, target, limit, "yes" if limit == target else "NO")
              for name, target, limit in zip(("liminf", "limsup"), targets, limits))]
    _write(None, lambda fh: fh.writelines(f"{name:<10}{target!s:>12}{limit!s:>12}  {equal}\n"
                                          for name, target, limit, equal in rows))
    return 0 if limits == targets else 1


class Option(NamedTuple):
    """An option, or a positional (no flags): the keyword it fills, the check that
    makes its value (None for --help, which takes none), and what --help shows."""

    flags: tuple[str, ...]
    dest: str
    check: object
    default: object = None
    required: bool = False
    metavar: str = ""
    help: str = ""


_HELP = Option(("--help",), "help", None, help="Show this message and exit.")
_SYSTEM = Option((), "system_path", _existing_file, required=True, metavar="SYSTEM_PATH")
_OUT = Option(("-o", "--out"), "out", _file_path, metavar="PATH",
              help="CSV output path (default: stdout).")
_KMAX = _int_range(1, MAX_STORED_DIGITS)
_TOP = (Option((), "command", None, required=True, metavar="COMMAND"), _HELP)  # `mmdim` alone
# each command's positional, then its options
COMMANDS = {
    build: (Option((), "spec_path", _existing_file, required=True, metavar="SPEC_PATH"),
            Option(("-o", "--out"), "out", _file_path, required=True, metavar="PATH",
                   help="Where to write the built system JSON."), _HELP),
    validate: (_SYSTEM, _HELP),
    profile: (_SYSTEM, Option(("--kmax",), "kmax", _KMAX, 24, metavar="KMAX",
                              help="Profile block indices 1..kmax."), _OUT, _HELP),
    estimate: (_SYSTEM, Option(("--k",), "k", _int_range(1), required=True, metavar="K",
                               help="Block index to measure."),
               Option(("--m",), "m_max", _int_range(2), 3, metavar="M",
                      help="Greedy scans run at depths 1..m."),
               Option(("--eps",), "eps_str", str, metavar="EPS",
                      help='Override the separation scale (a "p/q" rational).'), _OUT, _HELP),
    verify: (_SYSTEM, Option(("--kmax",), "kmax", _KMAX, 30, metavar="KMAX",
                             help="Check the rows of block indices 1..kmax."), _HELP),
}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, though it starts with "-"


def _usage(run) -> str:
    """The usage line of `mmdim RUN`, or of `mmdim` when run is None."""
    positional, *options = COMMANDS.get(run, _TOP)
    words = [f"{o.flags[0]} {o.metavar}".strip() for o in options]
    words = [word if o.required else f"[{word}]" for o, word in zip(options, words)]
    name = f"mmdim {run.__name__}" if run else "mmdim"
    return f"Usage: {name} {' '.join(words)} {positional.metavar}{'' if run else ' ...'}\n"


def _help(run) -> str:
    """The usage, the summary, then the commands (of `mmdim`) and the options."""
    rows = [] if run else [("commands:", None), *((c.__name__, c.__doc__) for c in COMMANDS)]
    rows += [("options:", None)] + [
        (", ".join(f"{flag} {o.metavar}".strip() for flag in o.flags),
         o.help + ("" if o.default is None else f" (default: {o.default})"))
        for o in COMMANDS.get(run, _TOP)[1:]]
    return f"{_usage(run)}\n{(run or main).__doc__}\n" + "".join(
        f"\n{name}\n" if text is None else f"  {name:<19}  {text}\n" for name, text in rows)


def _fail(run, message: str):
    """Print the usage of `mmdim RUN` (of `mmdim` when run is None) and the
    error, the two lines of every usage error, and exit 2."""
    sys.stderr.write(f"{_usage(run)}mmdim{' ' + run.__name__ if run else ''}: error: {message}\n")
    raise SystemExit(2)


def _lookup(token: str, options) -> tuple[Option | bool | None, str | None]:
    """How `token` reads among `options`, with no abbreviations: (None, token)
    for a value, (False, None) for an unknown option, else the option it names
    and the text it carries after "=", or after a one-letter flag."""
    flags = {flag: o for o in options for flag in o.flags}
    name, eq, text = token.partition("=")
    if token in flags or (eq and name in flags):
        return flags[name], (text if eq else None)
    if token[:2] in flags:
        return flags[token[:2]], token[2:]
    value = token[:1] != "-" or token == "-" or _NEGATIVE_NUMBER.match(token) or " " in token
    return (None, token) if value else (False, None)


def _parse(argv: list[str]):
    """The command argv names and its keyword arguments: options before or
    after the positional, the last of a repeated option winning, "--opt=value"
    and "-oVALUE", no abbreviations, and every token after the first "--" a
    value.  --help prints the help and exits 0; a usage error exits 2, an
    unrecognized argument with the usage of `mmdim`."""
    run, options, args, seen, unrecognized = None, _TOP, {}, set(), []
    tokens, values_only, positional_value = iter(argv), False, False
    for token in tokens:
        if token == "--" and not values_only:
            values_only = True
            if positional_value or options[0] not in seen:  # it goes with that value
                continue
        option, text = (None, token) if values_only else _lookup(token, options)
        positional_value = option is None and options[0] not in seen
        if positional_value and run is None:
            token = "--" if values_only else token  # a "--" before the command names it
            run = next((c for c in COMMANDS if c.__name__ == token), None)
            if run is None:
                _fail(None, f"argument COMMAND: invalid choice: {token!r} (choose from "
                            f"{', '.join(repr(c.__name__) for c in COMMANDS)})")
            options = COMMANDS[run]
            args = {o.dest: o.default for o in options if o.check}
            continue
        if positional_value:
            option = options[0]
        elif not option:
            unrecognized.append(token)
            continue
        elif option.check is None:
            if text is not None:
                _fail(run, f"argument --help: ignored explicit argument {text!r}")
            _write(None, lambda fh: fh.write(_help(run)))
            raise SystemExit(0)
        elif text is None:
            text = next(tokens, None)
            if text is None or _lookup(text, options)[0] is not None:
                _fail(run, f"argument {'/'.join(option.flags)}: expected one argument")
        try:
            args[option.dest] = option.check(text)
        except UsageError as exc:
            _fail(run, f"argument {'/'.join(option.flags) or option.metavar}: {exc}")
        seen.add(option)
    missing = ["/".join(o.flags) or o.metavar for o in options if o.required and o not in seen]
    if missing:
        _fail(run, f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _fail(None, f"unrecognized arguments: {' '.join(unrecognized)}")
    return run, args


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Exact horseshoe systems with prescribed metric mean dimension."""
    run = None
    if standalone_mode:
        gc.disable()  # a command leaves no cyclic garbage
    try:
        run, args = _parse(sys.argv[1:] if argv is None else argv)
        code = run(**args)
    except (UsageError, SpecFileError, ScheduleError) as exc:
        _fail(run, str(exc))
    except CannotWrite as exc:
        print(exc, file=sys.stderr)
        code = 2
        if standalone_mode:  # a closed stdout: exit must not fail flushing it again
            try:
                sys.stdout.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except RowFault as exc:
        print(exc, file=sys.stderr)
        code = 1
    finally:
        if standalone_mode:
            gc.freeze()  # the exit's forced collections find nothing to walk
    if not standalone_mode:
        return code
    sys.exit(code)


if __name__ == "__main__":
    main()
