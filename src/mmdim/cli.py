"""Command-line front end.

Commands: build a system from a JSON spec, validate its geometry, export
symbolic or numeric rate profiles as CSV, and verify extrapolated dimension
estimates against the schedule's analytic targets.

Exit codes: 0 success, 1 verification failure, 2 usage or spec error.
CSV and JSON go to the requested output path (stdout by default for CSV);
human-readable progress and reports go to stderr.
"""

from __future__ import annotations

import sys

import click

from .constructions import (
    IdentitySystem,
    ScheduleError,
    StackedSystem,
    TwoBlockSystem,
    UnmaterializedBlockError,
)
from .geometry import rational_from_str
from .horseshoe import validate_horseshoe
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
from .symbolic import DEFAULT_BUDGET, analytic_targets, extrapolate, rate_profile


@click.group()
def main():
    """Exact horseshoe systems with prescribed metric mean dimension."""


def _load(path: str):
    try:
        return load_system(read_json(path))
    except (SpecFileError, ScheduleError) as exc:
        raise click.UsageError(str(exc))


def _check_kmax(spec: SystemSpec, kmax: int) -> None:
    """Hold --kmax to the size caps a spec file with kMax = kmax would meet."""
    if spec.k_max is None:
        return
    try:
        SystemSpec.from_jsonable(spec.to_jsonable() | {"kMax": kmax})
    except SpecFileError as exc:
        raise click.UsageError(f"--kmax {kmax}: {exc}")


def _write_rows(out: str | None, rows) -> None:
    if out is None:
        write_profile_csv(sys.stdout, rows)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        write_profile_csv(fh, rows)


@main.command()
@click.argument("spec_path", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False),
              help="Where to write the built system JSON.")
def build(spec_path: str, out: str):
    """Build the system a spec file describes and write it with its geometry."""
    try:
        spec = SystemSpec.from_jsonable(read_json(spec_path))
        system = build_system(spec)
        payload = system_to_jsonable(system, spec)
    except (SpecFileError, ScheduleError) as exc:
        raise click.UsageError(str(exc))
    write_json(out, payload)
    click.echo(f"wrote {out}", err=True)


@main.command()
@click.argument("system_path", type=click.Path(exists=True, dir_okay=False))
def validate(system_path: str):
    """Re-derive and check every materialized block's geometry."""
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
            click.echo(
                f"block k={block.k} (L={block.L}): "
                f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks {status}",
                err=True,
            )
            for check in report.failures():
                click.echo(f"  FAIL {check.name}: {check.detail}", err=True)
                failures += 1
    if blocks_seen == 0:
        click.echo("no materialized blocks; file-level checks passed", err=True)
    sys.exit(1 if failures else 0)


@main.command()
@click.argument("system_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--kmax", type=click.IntRange(min=1, max=MAX_STORED_DIGITS), default=24,
              show_default=True, help="Profile block indices 1..kmax.")
@click.option("-o", "--out", type=click.Path(dir_okay=False),
              help="CSV output path (default: stdout).")
def profile(system_path: str, kmax: int, out: str | None):
    """Export the symbolic rate profile as CSV, with an extrapolation summary."""
    spec, system = _load(system_path)
    _check_kmax(spec, kmax)
    rows = rate_profile(system, range(1, kmax + 1))
    _write_rows(out, symbolic_csv_rows(rows))
    lo, hi = analytic_targets(system)
    if len(rows) >= 4:
        fit = extrapolate(rows)
        click.echo(
            f"extrapolated liminf ~ {fit.liminf_estimate:.6g} (target {lo}), "
            f"limsup ~ {fit.limsup_estimate:.6g} (target {hi})",
            err=True,
        )
    else:
        click.echo("extrapolation needs kmax >= 4; skipped", err=True)


@main.command()
@click.argument("system_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "k", type=click.IntRange(min=1), required=True,
              help="Block index to measure.")
@click.option("--m", "m_max", type=click.IntRange(min=2), default=3, show_default=True,
              help="Greedy scans run at depths 1..m.")
@click.option("--eps", "eps_str", type=str, default=None,
              help='Override the separation scale (a "p/q" rational).')
@click.option("--budget", type=click.IntRange(min=1), default=DEFAULT_BUDGET,
              show_default=True, help="Maximum enumerated cylinders per depth.")
@click.option("-o", "--out", type=click.Path(dir_okay=False),
              help="CSV output path (default: stdout).")
def estimate(system_path, k, m_max, eps_str, budget, out):
    """Measure separated-set growth on one block by exact greedy scans."""
    # the scan's layers load here, not with the commands that never scan
    from .estimators import NumericRateRow, mdim_numeric_profile

    _, system = _load(system_path)
    if not isinstance(system, StackedSystem):
        raise click.UsageError("estimates run on stacked systems (got "
                               f"{type(system).__name__})")
    eps_value = None
    if eps_str is not None:
        try:
            eps_value = rational_from_str(eps_str)
        except ValueError as exc:
            raise click.UsageError(f"--eps: {exc}")
        if eps_value <= 0:
            raise click.UsageError("--eps must be positive")
    try:
        row = mdim_numeric_profile(system, k, m_max, budget, eps_value)
    except (UnmaterializedBlockError, ValueError) as exc:
        error_row = NumericRateRow(k, False, 0.0, 0.0, 0.0, None, {}, error=str(exc))
        _write_rows(out, numeric_csv_rows([error_row]))
        click.echo(f"k={k}: {exc}", err=True)
        sys.exit(2)
    _write_rows(out, numeric_csv_rows([row]))
    if row.error is not None:
        click.echo(f"k={k}: {row.error}", err=True)
    for m, count in sorted(row.counts.items()):
        click.echo(
            f"k={k} m={m} eps={row.eps_exact} count={count} "
            f"seeds={row.seeds[m]} pairs={row.pairs[m]}",
            err=True,
        )


@main.command()
@click.argument("system_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=0.05, show_default=True,
              help="Allowed |estimate - target| for both limits.")
@click.option("--kmax", type=click.IntRange(min=4, max=MAX_STORED_DIGITS), default=30,
              show_default=True, help="Profile block indices 1..kmax before extrapolating.")
def verify(system_path: str, tol: float, kmax: int):
    """Check extrapolated dimension estimates against the analytic targets."""
    if not tol >= 0:  # also NaN, which no difference is within
        raise click.UsageError(f"--tol must be a non-negative number (got {tol})")
    spec, system = _load(system_path)
    _check_kmax(spec, kmax)
    rows = rate_profile(system, range(1, kmax + 1))
    fit = extrapolate(rows)
    target_lo, target_hi = analytic_targets(system)
    table = [
        ("liminf", float(target_lo), fit.liminf_estimate),
        ("limsup", float(target_hi), fit.limsup_estimate),
    ]
    ok = True
    click.echo(f"{'quantity':<10}{'target':>12}{'estimate':>14}{'|diff|':>12}  within")
    for name, target, estimate_value in table:
        diff = abs(estimate_value - target)
        within = diff <= tol
        ok &= within
        click.echo(
            f"{name:<10}{target:>12.6g}{estimate_value:>14.6g}{diff:>12.3g}  "
            f"{'yes' if within else 'NO'}"
        )
    for name, limit_fit in (("liminf", fit.liminf_fit), ("limsup", fit.limsup_fit)):
        note = " (degenerate)" if limit_fit.degenerate else ""
        if limit_fit.points == 2:  # a line through two points fits them exactly
            note = " (2 points: exact line)"
        click.echo(
            f"{name} fit: residual {limit_fit.residual:.3g} over {limit_fit.points} tail points"
            + note,
            err=True,
        )
    click.echo(
        f"spanning-side estimates: liminf ~ {fit.upper_liminf_estimate:.6g}, "
        f"limsup ~ {fit.upper_limsup_estimate:.6g}",
        err=True,
    )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
