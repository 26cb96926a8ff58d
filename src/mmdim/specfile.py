"""JSON spec/system files and CSV profile export.

Spec files describe a system to build; system files additionally record each
block's cube, eps and activity, and can be reloaded losslessly.
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
    GEOMETRIC,
    QUADRATIC,
    UNIT,
    Schedule,
    StackedSystem,
    System,
    build_stacked,
    build_two_block,
)
from .geometry import rational_from_str
from .symbolic import RateBound

if TYPE_CHECKING:
    from .estimators import NumericRateRow

SYSTEM_FORMAT = "mmdim-system/3"

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
# int->str limit), so every rational a system file stores must stay below
# that.  Specs are checked against these caps before anything is built.
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
    of the anchors, sides and eps that blocks 1..k_max store.

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


def check_sizes(spec: SystemSpec) -> None:
    """Raise unless blocks 1..kMax of each half store rationals within
    MAX_STORED_DIGITS.

    A half's rate is the spec's r, or n/target - 1 for a two-block target
    in (0, n); a quadratic half (target n) has none, and the identity
    (target 0) stores nothing.  No `Schedule` is built here: its checks
    form 3^r, which a rate past the cap would take too long to form.
    """
    if spec.kind == "identity":
        return
    if spec.kind == "two_block":
        halves = [(Fraction(1), spec.n / target - 1 if target < spec.n else None, field)
                  for field, target in (("alpha", spec.alpha), ("beta", spec.beta))
                  if 0 < target <= spec.n]
    else:
        halves = [(spec.B, spec.r, None if spec.r is None else "r")]
    for B, r, field in halves:  # field names what sets the rate, for the message
        hint = "'kMax'" if field is None else f"'kMax' or {field!r}"
        if r is not None and r > MAX_STORED_DIGITS:
            raise SpecFileError(f"rate r above {MAX_STORED_DIGITS}; lower {hint}")
        digits = _stored_digits(B, r, spec.k_max)
        if digits > MAX_STORED_DIGITS:
            raise SpecFileError(
                f"blocks 1..{spec.k_max} would store rationals of about {digits:.0f} digits, "
                f"above {MAX_STORED_DIGITS}; lower {hint}"
            )


def build_system(spec: SystemSpec) -> System:
    if spec.kind == "identity":
        return System(spec.n, ())
    if spec.kind == "two_block":
        return build_two_block(spec.alpha, spec.beta, spec.n, spec.k_max)
    active = ACTIVE_SELF_POWERS if spec.kind == "sparse" else ACTIVE_ALL
    schedule = Schedule(QUADRATIC if spec.r is None else GEOMETRIC, spec.B, spec.r, active)
    return System(spec.n, ((UNIT, build_stacked(schedule, spec.n, spec.k_max)),))


def analytic_targets(spec: SystemSpec) -> tuple[Fraction, Fraction]:
    """Exact (liminf, limsup) the spec prescribes, from its own fields:
    n / (1 + r) with r given and n without, with liminf 0 when sparse;
    (alpha, beta) for a two-block spec; 0 for the identity."""
    if spec.kind == "identity":
        return Fraction(0), Fraction(0)
    if spec.kind == "two_block":
        return spec.alpha, spec.beta
    target = Fraction(spec.n) if spec.r is None else spec.n / (1 + spec.r)
    return (Fraction(0) if spec.kind == "sparse" else target), target


def _schedule_payload(schedule: Schedule) -> dict:
    out = {"kind": schedule.kind, "B": str(schedule.B), "active": schedule.active}
    if schedule.r is not None:
        out["r"] = str(schedule.r)
    return out


def _stacked_payload(system: StackedSystem) -> dict:
    blocks = [
        {
            "k": block.k,
            "anchor": str(block.cube.lo),
            "side": str(block.cube.side),
            "eps": str(system.schedule.eps(block.k)),
            "active": block.active,
        }
        for block in system.blocks
    ]
    return {"kind": system.kind, "schedule": _schedule_payload(system.schedule), "blocks": blocks}


def _system_payload(system: System, spec: SystemSpec) -> dict:
    """What the spec does not state: each part's schedule and blocks, under
    its corner's name for a two-block spec; a corner with no part is the
    identity."""
    corners = {chart.offset: _stacked_payload(part) for chart, part in system.parts}
    identity = {"kind": "identity"}
    if spec.kind == "two_block":
        return {"kind": "two-block", "lower": corners.get(0, identity),
                "upper": corners.get(Fraction(1, 2), identity)}
    return corners.get(0, identity)


def system_to_jsonable(system: System, spec: SystemSpec) -> dict:
    return {
        "format": SYSTEM_FORMAT,
        "spec": spec.to_jsonable(),
        "system": _system_payload(system, spec),
    }


def load_system(data: object) -> tuple[SystemSpec, System]:
    """Rebuild a system file's contents, verifying the stored geometry."""
    if not isinstance(data, dict):
        raise SpecFileError("system file must be a JSON object")
    if data.get("format") != SYSTEM_FORMAT:
        raise SpecFileError(
            f"field 'format' must be {SYSTEM_FORMAT!r}, got {data.get('format')!r}; "
            "to rebuild the file, run `mmdim build` on the spec stored under its 'spec' key"
        )
    if "spec" not in data or "system" not in data:
        raise SpecFileError("system file needs 'spec' and 'system' fields")
    spec = SystemSpec.from_jsonable(data["spec"])
    system = build_system(spec)
    # equal canonical text is equal values, and tells 3.0 from 3 and 1 from true
    if canonical_dumps(system_to_jsonable(system, spec)) != canonical_dumps(data):
        raise SpecFileError("stored system geometry does not match its spec rebuild")
    return spec, system


def canonical_dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def read_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also integers past Python's int->str limit
            raise SpecFileError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise SpecFileError(f"{path}: JSON nested too deeply") from exc


def write_json(path: str, obj: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


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
