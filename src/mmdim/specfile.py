"""JSON spec/system files and CSV profile export.

Spec files describe a system to build; system files additionally record each
block's cube and activity, and can be reloaded losslessly.
All rationals cross the file boundary as "p/q" strings, JSON is dumped in one
canonical form (sorted keys, compact separators, trailing newline), and
loading a system file rebuilds it from its own spec and cross-checks the
stored geometry, so build -> dump -> load -> dump is byte-identical.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .constructions import (
    ACTIVE_ALL,
    ACTIVE_SELF_POWERS,
    UNIT,
    Chart,
    Schedule,
    ScheduleError,
    StackedSystem,
    System,
    build_stacked,
)
from .geometry import rational_from_str
from .symbolic import RateBound

if TYPE_CHECKING:
    from .estimators import NumericRateRow

SYSTEM_FORMAT = "mmdim-system/5"

# The fields each spec kind takes besides "kind" and "n", in check order,
# each required (True) or optional (False).  "kMax" is an integer, the
# SystemSpec's k_max; the others are "p/q" rationals.
KIND_FIELDS = {
    "geometric": {"kMax": True, "B": True, "r": True},
    "quadratic": {"kMax": True, "B": True},
    "sparse": {"kMax": True, "B": True, "r": False},
    "two_block": {"kMax": True, "alpha": True, "beta": True},
    "identity": {},
}
SPEC_KINDS = tuple(KIND_FIELDS)

PROFILE_COLUMNS = (
    "k",
    "eps_exact",
    "eps_float",
    "lower_rate",
    "upper_rate",
    "lower_ratio",
    "upper_ratio",
    "source",
)
SOURCE_SYMBOLIC = "symbolic"
SOURCE_NUMERIC = "numeric"


# Python refuses to print integers of more than 4300 digits (its default
# int->str limit), so every rational a system file stores or `profile` prints
# must stay below that; specs meet these caps before anything is built.
MAX_N = 64
MAX_STORED_DIGITS = 4000
_LOG10_3 = math.log10(3)


class SpecFileError(ValueError):
    pass


def _require_int(data: dict, field: str, minimum: int, maximum: int) -> int:
    value = data[field]
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or not minimum <= value <= maximum
    ):
        raise SpecFileError(f"field {field!r} must be an integer in [{minimum}, {maximum}]")
    return value


def _require_rational(data: dict, field: str) -> Fraction:
    value = data[field]
    if not isinstance(value, str):
        raise SpecFileError(f'field {field!r} must be a "p/q" string')
    try:
        return rational_from_str(value)
    except ValueError as exc:
        raise SpecFileError(f"field {field!r}: {exc}") from exc


def _digits(x: int) -> int:
    return len(str(abs(x)))


def _stored_digits(B: Fraction, r: Fraction | None, k_max: int) -> float:
    """Upper estimate of the decimal digits of the numerators and denominators
    of the anchors and sides that blocks 1..k_max store and the eps that
    `profile` prints.

    Geometric sides B/3^(k r) and their telescoping anchors have denominators
    dividing den(B) 3^(k r).  Quadratic anchors sum the sides B/j^2, so their
    denominators divide 50 den(B) lcm(1..k)^2 < 50 den(B) e^(2.08 k)
    (Rosser & Schoenfeld's bound on the Chebyshev function).  eps adds a
    factor 2 L_k - 1 to the side.  A non-integer rate r stores no block, as
    `Schedule` refuses it; this cap runs before any `Schedule` is built,
    since building one forms 3^r.
    """
    base = _digits(B.numerator) + _digits(B.denominator) + 2
    leg = k_max * _LOG10_3 + 1
    if r is None:
        return base + max(2.08 * math.log10(math.e) * k_max, 2 * math.log10(k_max) + leg)
    if r.denominator != 1:
        return base
    return base + k_max * r.numerator * _LOG10_3 + leg


class SystemSpec(NamedTuple):
    """Validated contents of a spec file; one kind, only its own fields."""

    kind: str
    n: int
    B: Fraction | None = None
    r: Fraction | None = None
    k_max: int | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None

    @staticmethod
    def from_jsonable(data: object) -> "SystemSpec":
        if not isinstance(data, dict):
            raise SpecFileError("spec must be a JSON object")
        kind = data.get("kind")
        if kind not in SPEC_KINDS:
            raise SpecFileError(f"field 'kind' must be one of {SPEC_KINDS}, got {kind!r}")
        extra = sorted(set(data) - {"kind", "n", *KIND_FIELDS[kind]})
        if extra:
            hint = ""
            if kind == "quadratic" and "r" in extra:
                hint = " (quadratic schedules take no rate r)"
            raise SpecFileError(
                f"field(s) {', '.join(map(repr, extra))} do not apply to kind {kind!r}{hint}"
            )
        if "n" not in data:
            raise SpecFileError("field 'n' is required")
        values = {"n": _require_int(data, "n", 2, MAX_N)}
        for field, required in KIND_FIELDS[kind].items():
            if field == "kMax" and field in data:
                # a first cap that keeps check_sizes' arithmetic in float range
                values["k_max"] = _require_int(data, field, 1, MAX_STORED_DIGITS)
            elif field in data:
                values[field] = _require_rational(data, field)
            elif required:
                raise SpecFileError(f"field {field!r} is required for kind {kind!r}")
        spec = SystemSpec(kind, **values)
        check_sizes(spec)
        return spec

    def to_jsonable(self) -> dict:
        out: dict = {"kind": self.kind, "n": self.n}
        for field in KIND_FIELDS[self.kind]:
            if field == "kMax":
                out[field] = self.k_max
            elif (value := getattr(self, field)) is not None:
                out[field] = str(value)
        return out


def build_two_block(spec: SystemSpec) -> list[tuple[Chart, SystemSpec, str]]:
    """The parts of a two-block spec: lower metric mean dimension alpha, upper beta.

    The lower corner [0, 1/2]^n carries the sparse system for beta, active at
    the self powers {j^j}, which realizes beta as the superior limit while
    contributing nothing in between; the upper corner [1/2, 1]^n carries the
    dense system for alpha, which pins the inferior limit.  When alpha = beta
    both corners carry that one dense system.  A target t in (0, n) sets the
    geometric rate r = n/t - 1, the target n the quadratic sizes, and a target
    0 is the identity, no part.  Requires 0 <= alpha <= beta <= n.
    """
    if not 0 <= spec.alpha <= spec.beta <= spec.n:
        raise ScheduleError(f"need 0 <= alpha <= beta <= n, got ({spec.alpha}, {spec.beta})")
    half = Fraction(1, 2)
    parts = []
    for chart, field, sparse in ((Chart(Fraction(0), half), "beta", spec.alpha < spec.beta),
                                 (Chart(half, half), "alpha", False)):
        target = getattr(spec, field)
        if target > 0:
            r = spec.n / target - 1 if target < spec.n else None
            kind = "sparse" if sparse else "quadratic" if r is None else "geometric"
            parts.append((chart, SystemSpec(kind, spec.n, Fraction(1), r, spec.k_max), field))
    return parts


def spec_parts(spec: SystemSpec) -> list[tuple[Chart, SystemSpec, str | None]]:
    """Each part of the spec's system, in order: its chart, its stacked spec
    (geometric, quadratic or sparse) and the spec field that sets its rate,
    None for a stacked spec of quadratic sizes.  A stacked spec is its own one
    part in the unit chart, and the identity has none."""
    if spec.kind == "identity":
        return []
    if spec.kind == "two_block":
        return build_two_block(spec)
    return [(UNIT, spec, None if spec.r is None else "r")]


def check_sizes(spec: SystemSpec) -> None:
    """Raise unless blocks 1..kMax of each part store rationals within
    MAX_STORED_DIGITS.

    No `Schedule` is built here: its checks form 3^r, which a rate past the
    cap would take too long to form.
    """
    for _, part, field in spec_parts(spec):  # field names what sets the rate, for the message
        hint = "'kMax'" if field is None else f"'kMax' or {field!r}"
        if part.r is not None and part.r > MAX_STORED_DIGITS:
            raise SpecFileError(f"rate r above {MAX_STORED_DIGITS}; lower {hint}")
        digits = _stored_digits(part.B, part.r, part.k_max)
        if digits > MAX_STORED_DIGITS:
            raise SpecFileError(
                f"blocks 1..{part.k_max} would store rationals of about {digits:.0f} digits, "
                f"above {MAX_STORED_DIGITS}; lower {hint}"
            )


def build_system(spec: SystemSpec) -> System:
    """The spec's parts, each stacked spec built once: the two corners of an
    alpha = beta spec hold one system."""
    parts = spec_parts(spec)
    built = {}
    for part in dict.fromkeys(part for _, part, _ in parts):
        active = ACTIVE_SELF_POWERS if part.kind == "sparse" else ACTIVE_ALL
        schedule = (Schedule.quadratic(part.B, active) if part.r is None
                    else Schedule.geometric(part.B, part.r, active))
        built[part] = build_stacked(schedule, spec.n, spec.k_max)
    return System(spec.n, tuple((chart, built[part]) for chart, part, _ in parts))


def analytic_targets(spec: SystemSpec) -> tuple[Fraction, Fraction]:
    """Exact (liminf, limsup) the spec prescribes, from its own fields: a
    two_block spec's (alpha, beta), the identity's (0, 0), and a stacked
    spec's n / (1 + r), or n with no r, with liminf 0 when sparse.  Not read
    off `spec_parts`, which `verify` checks: a broken expansion would agree."""
    if spec.kind == "two_block":
        return spec.alpha, spec.beta
    if spec.kind == "identity":
        return Fraction(0), Fraction(0)
    target = Fraction(spec.n) if spec.r is None else spec.n / (1 + spec.r)
    return (Fraction(0) if spec.kind == "sparse" else target), target


def _stacked_payload(system: StackedSystem) -> dict:
    """The schedule and each block's cube and activity; block i of the list is
    k = i + 1, and its eps is the schedule's, so neither is stored."""
    schedule = system.schedule
    head = {"kind": schedule.kind, "B": str(schedule.B), "active": schedule.active}
    if schedule.r is not None:
        head["r"] = str(schedule.r)
    blocks = [{"anchor": str(block.cube.lo), "side": str(block.cube.side),
               "active": block.active} for block in system.blocks]
    return {"schedule": head, "blocks": blocks}


def system_to_jsonable(system: System, spec: SystemSpec) -> dict:
    """What the spec does not state: each distinct part's schedule and blocks,
    once, under "systems", and under "parts" the index of each part's, in the
    spec's order.  The spec fixes the charts, so the file states none."""
    payloads = [_stacked_payload(part) for _, part in system.parts]
    systems = [p for i, p in enumerate(payloads) if p not in payloads[:i]]
    return {"format": SYSTEM_FORMAT, "spec": spec.to_jsonable(),
            "parts": [systems.index(p) for p in payloads], "systems": systems}


def load_system(data: object) -> tuple[SystemSpec, System]:
    """Rebuild a system file's contents, verifying the stored geometry."""
    if not isinstance(data, dict):
        raise SpecFileError("system file must be a JSON object")
    if data.get("format") != SYSTEM_FORMAT:
        raise SpecFileError(
            f"field 'format' must be {SYSTEM_FORMAT!r}, got {data.get('format')!r}; "
            "to rebuild the file, run `mmdim build` on the spec stored under its 'spec' key"
        )
    if not {"spec", "parts", "systems"} <= data.keys():
        raise SpecFileError("system file needs 'spec', 'parts' and 'systems' fields")
    spec = SystemSpec.from_jsonable(data["spec"])
    system = build_system(spec)
    # equal canonical text is equal values, and tells 3.0 from 3 and 1 from true
    if canonical_dumps(system_to_jsonable(system, spec)) != canonical_dumps(data):
        raise SpecFileError("stored system geometry does not match its spec rebuild")
    return spec, system


def canonical_dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def read_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # unreadable: permission denied, or an I/O error
        raise SpecFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # also integers past Python's int->str limit
        raise SpecFileError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise SpecFileError(f"{path}: JSON nested too deeply") from exc


def _csv_row(
    k: int,
    eps_exact: Fraction | None,
    source: str,
    rate: float | None = None,
    lower_ratio: float | None = None,
    upper_ratio: float | None = None,
) -> dict:
    """One profile row: a row with a rate writes eps_exact rounded to a float
    as `eps_float` and `rate` as both the lower and the upper rate; a value
    left None is written empty."""
    eps_float = eps_exact if rate is not None else None
    floats = (eps_float, rate, rate, lower_ratio, upper_ratio)
    return dict(zip(PROFILE_COLUMNS, (
        str(k),
        str(eps_exact) if eps_exact is not None else "",
        *("" if x is None else format(float(x), ".12g") for x in floats),
        source,
    )))


def symbolic_csv_rows(profile: Sequence[RateBound]) -> list[dict]:
    return [
        _csv_row(b.k, b.eps_exact, SOURCE_SYMBOLIC,
                 float(b.rate), b.lower_ratio(), b.upper_ratio())
        for b in profile
    ]


def numeric_csv_rows(rows: Sequence[NumericRateRow]) -> list[dict]:
    return [
        _csv_row(row.k, row.eps_exact, SOURCE_NUMERIC)
        if row.error is not None
        else _csv_row(row.k, row.eps_exact, SOURCE_NUMERIC, row.rate, row.ratio, row.upper_ratio)
        for row in rows
    ]


def write_profile_csv(fh, rows: Sequence[dict]) -> None:
    """Write the header and the rows as comma-joined lines; no field holds a
    comma, a quote or a line break, so none is quoted."""
    for line in [PROFILE_COLUMNS, *([row[c] for c in PROFILE_COLUMNS] for row in rows)]:
        fh.write(",".join(line) + "\n")
