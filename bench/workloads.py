"""The benchmark's workloads: generated inputs, commands, and output checks.

Every check compares against something fixed outside the program: analytic
counts, a reference recorded once in ``references.json``, or the program's
own exit status and round trip.  Nothing pins ``eps_exact``/``eps_float`` or
the raw bytes of a system file, which later versions change on purpose.
Why each workload exists, and which cases are left out, is in ``NOTES.md``.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Seed-chosen values; index 0 is the default seed's and gives the ROADMAP
# baseline inputs.  Every B keeps the geometric rate r = 1 an integer and
# fits the 1/10 placement margins at n = 2 and n = 3.
B_CHOICES = (Fraction(1), Fraction(5, 4), Fraction(6, 7))
# two_block cost depends on alpha (alpha = 1/2 builds and verifies about 19%
# slower than 2/3), so the seed varies kMax instead: blocks past k = 10 stay
# unmaterialized and the profile up to --kmax 30 does not depend on it.
TWO_BLOCK_KMAX_CHOICES = (30, 31, 32)
PROFILE_KMAX = 30

COUNT_LINE = re.compile(r"\bk=(\d+)\s+m=(\d+)\b.*\bcount=(\d+)\b")
RATE_COLUMNS = ("lower_rate", "upper_rate", "lower_ratio", "upper_ratio")
REL_TOL = 1e-9


def choose(choices, seed: int):
    return choices[seed % len(choices)]


def q(x: Fraction) -> str:
    return str(Fraction(x))


@dataclass
class Outcome:
    """One command as it ran, plus the check failures found in its output."""

    command: str
    argv: list[str]
    returncode: int
    wall_s: float
    peak_rss_mb: float | None
    stdout: str
    stderr: str
    errors: list[str] = field(default_factory=list)
    cpu_s: float | None = None  # user + system CPU time of a child

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.errors)


@dataclass(frozen=True)
class Inputs:
    """What one seed generated, and where its files live."""

    spec: dict
    params: dict  # the seed-chosen values, for the record
    work: Path
    references: dict

    @property
    def spec_path(self) -> Path:
        return self.work / "spec.json"

    @property
    def system_path(self) -> Path:
        return self.work / "system.json"

    def out_path(self, command: str) -> Path:
        return self.work / f"{command}.csv"


@dataclass(frozen=True)
class Step:
    """One timed CLI command and the check its output must pass."""

    command: str
    args: Callable[[Inputs], list[str]]
    check: Callable[[Outcome, Inputs], list[str]]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in NOTES.md."""

    name: str
    make: Callable[[int], tuple[dict, dict]]  # seed -> (spec, params)
    timed: tuple[Step, ...]


# ---- checks ---------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_verify(out: Outcome, inputs: Inputs) -> list[str]:
    errors = []
    for quantity in ("liminf", "limsup"):
        rows = [line.split() for line in out.stdout.splitlines()
                if line.split()[:1] == [quantity]]
        if len(rows) != 1 or rows[0][-1] != "yes":
            errors.append(f"verify: {quantity} is not 'within yes': {rows}")
    return errors


def check_profile(out: Outcome, inputs: Inputs) -> list[str]:
    expected = inputs.references["symbolic_two_block"]["profile"]
    got = _read_csv(inputs.out_path(out.command))
    if len(got) != len(expected):
        return [f"profile: {len(got)} rows, reference has {len(expected)}"]
    errors = []
    for row, ref in zip(got, expected):
        if row.get("k") != ref["k"] or row.get("source") != ref["source"]:
            errors.append(f"profile: row {row.get('k')}/{row.get('source')} "
                          f"!= reference {ref['k']}/{ref['source']}")
            continue
        for col in RATE_COLUMNS:
            try:
                ok = _close(float(row[col]), float(ref[col]))
            except (KeyError, ValueError):
                ok = False
            if not ok:
                errors.append(f"profile: k={ref['k']} {col}={row.get(col)!r}, "
                              f"reference {ref[col]}")
    return errors


def _slope(counts: dict[int, int]) -> float:
    """Least-squares slope of ln(count) against m: the CSV's rate."""
    xs = sorted(counts)
    ys = [math.log(counts[m]) for m in xs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _check_counts(out: Outcome, inputs: Inputs, k: int,
                  expected: dict[int, int]) -> list[str]:
    got = {int(m): int(c) for kk, m, c in COUNT_LINE.findall(out.stderr) if int(kk) == k}
    errors = []
    if got != expected:
        errors.append(f"estimate: counts {got} != expected {expected}")
    rows = [r for r in _read_csv(inputs.out_path(out.command)) if r.get("k") == str(k)]
    if len(rows) != 1 or rows[0].get("source") != "numeric":
        return errors + [f"estimate: expected one numeric CSV row for k={k}, got {rows}"]
    rate = _slope(expected)
    for col in ("lower_rate", "upper_rate"):
        try:
            ok = _close(float(rows[0][col]), rate)
        except (KeyError, ValueError):
            ok = False
        if not ok:
            errors.append(f"estimate: {col}={rows[0].get(col)!r}, expected {rate:.12g}")
    return errors


def estimate_step(k: int, m: int, eps: Callable[[Inputs], str | None],
                  expected: Callable[[Inputs], dict[int, int]],
                  command: str = "estimate") -> Step:
    def args(inputs: Inputs) -> list[str]:
        out = ["estimate", str(inputs.system_path), "--k", str(k), "--m", str(m)]
        value = eps(inputs)
        if value is not None:
            out += ["--eps", value]
        return out + ["-o", str(inputs.out_path(command))]

    def check(out: Outcome, inputs: Inputs) -> list[str]:
        return _check_counts(out, inputs, k, expected(inputs))

    return Step(command, args, check)


def analytic_counts(k: int, m: int) -> Callable[[Inputs], dict[int, int]]:
    """Cylinder-center seeds at the native eps are all kept: 3^(k n m)."""
    return lambda inputs: {mm: 3 ** (k * inputs.spec["n"] * mm) for mm in range(1, m + 1)}


def reference_counts(key: str) -> Callable[[Inputs], dict[int, int]]:
    return lambda inputs: {int(m): c for m, c in inputs.references[key]["counts"].items()}


def coarse_eps(inputs: Inputs) -> str:
    """9/10 of block 1's side B/3^r, so the counts do not depend on B."""
    return q(Fraction(9, 10) * Fraction(inputs.params["B"]) / 3)


# ---- workloads ------------------------------------------------------------


def _two_block(seed: int) -> tuple[dict, dict]:
    k_max = choose(TWO_BLOCK_KMAX_CHOICES, seed)
    spec = {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": k_max}
    return spec, {"kMax": k_max}


def _geometric(n: int, k_max: int) -> Callable[[int], tuple[dict, dict]]:
    def make(seed: int) -> tuple[dict, dict]:
        B = q(choose(B_CHOICES, seed))
        return {"kind": "geometric", "n": n, "B": B, "r": "1", "kMax": k_max}, {"B": B}
    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "symbolic_two_block",
            _two_block,
            (
                Step("verify",
                     lambda i: ["verify", str(i.system_path), "--kmax", str(PROFILE_KMAX)],
                     check_verify),
                Step("profile",
                     lambda i: ["profile", str(i.system_path), "--kmax", str(PROFILE_KMAX),
                                "-o", str(i.out_path("profile"))],
                     check_profile),
            ),
        ),
        Workload(
            "greedy_square",
            _geometric(2, 3),
            (estimate_step(1, 3, lambda i: None, analytic_counts(1, 3)),),
        ),
        Workload(
            "coarse_cube",
            _geometric(3, 2),
            # --m 2, not 3: at m = 3 one estimate takes about 20 s, so a run
            # would hold a single sample (see NOTES.md)
            (estimate_step(1, 2, coarse_eps, reference_counts("coarse_cube")),),
        ),
    )
}
