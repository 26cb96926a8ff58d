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
    ACTIVE_SELF_POWERS,
    IdentitySystem,
    Schedule,
    StackedSystem,
    System,
    TwoBlockSystem,
    build_stacked,
    build_two_block,
)
from .geometry import rational_from_str
from .symbolic import RateBound

if TYPE_CHECKING:
    from .estimators import NumericRateRow

SYSTEM_FORMAT = "mmdim-system/3"

KIND_GEOMETRIC = "geometric"
KIND_QUADRATIC = "quadratic"
KIND_SPARSE = "sparse"
KIND_TWO_BLOCK = "two_block"
KIND_IDENTITY = "identity"
SPEC_KINDS = (KIND_GEOMETRIC, KIND_QUADRATIC, KIND_SPARSE, KIND_TWO_BLOCK, KIND_IDENTITY)

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
    factor 2 L_k - 1 to the side.  A non-integer rate r stores no block: cube
    placement refuses it.
    """
    base = _digits(B.numerator) + _digits(B.denominator) + 2
    leg = k_max * _LOG10_3 + 1
    if r is None:
        return base + max(2.08 * math.log10(math.e) * k_max, 2 * math.log10(k_max) + leg)
    if r.denominator != 1:
        return base
    return base + k_max * r.numerator * _LOG10_3 + leg


def _check_stored_digits(B, r, k_max, field: str | None) -> None:
    """Raise unless blocks 1..k_max store rationals within MAX_STORED_DIGITS.

    `field` names the spec field that sets the rate, for the message.
    """
    hint = "'kMax'" if field is None else f"'kMax' or {field!r}"
    if r is not None and r > MAX_STORED_DIGITS:
        raise SpecFileError(f"rate r above {MAX_STORED_DIGITS}; lower {hint}")
    digits = _stored_digits(B, r, k_max)
    if digits > MAX_STORED_DIGITS:
        raise SpecFileError(
            f"blocks 1..{k_max} would store rationals of about {digits:.0f} digits, "
            f"above {MAX_STORED_DIGITS}; lower {hint}"
        )


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
        allowed = {"kind", "n"}
        if kind in (KIND_GEOMETRIC, KIND_QUADRATIC, KIND_SPARSE):
            allowed |= {"B", "kMax"}
        if kind in (KIND_GEOMETRIC, KIND_SPARSE):
            allowed |= {"r"}
        if kind == KIND_TWO_BLOCK:
            allowed |= {"alpha", "beta", "kMax"}
        extra = sorted(set(data) - allowed)
        if extra:
            hint = ""
            if kind == KIND_QUADRATIC and "r" in extra:
                hint = " (quadratic schedules take no rate r)"
            raise SpecFileError(
                f"field(s) {', '.join(map(repr, extra))} do not apply to kind {kind!r}{hint}"
            )
        if "n" not in data:
            raise SpecFileError("field 'n' is required")
        n = _require_int(data, "n", 2, MAX_N)

        if kind == KIND_IDENTITY:
            return SystemSpec(kind=kind, n=n)

        if "kMax" not in data:
            raise SpecFileError("field 'kMax' is required")
        # a first cap that keeps the digit estimate's arithmetic in float range
        k_max = _require_int(data, "kMax", 1, MAX_STORED_DIGITS)

        if kind == KIND_TWO_BLOCK:
            for field in ("alpha", "beta"):
                if field not in data:
                    raise SpecFileError(f"field {field!r} is required for two_block")
            alpha = _require_rational(data, "alpha")
            beta = _require_rational(data, "beta")
            for field, target in (("alpha", alpha), ("beta", beta)):
                if 0 < target < n:  # a dense or sparse half with rate n/target - 1
                    _check_stored_digits(Fraction(1), n / target - 1, k_max, field)
                elif target == n:  # a quadratic half
                    _check_stored_digits(Fraction(1), None, k_max, field)
            return SystemSpec(kind=kind, n=n, k_max=k_max, alpha=alpha, beta=beta)

        if "B" not in data:
            raise SpecFileError("field 'B' is required")
        B = _require_rational(data, "B")
        r = None
        if kind == KIND_GEOMETRIC:
            if "r" not in data:
                raise SpecFileError("field 'r' is required for geometric schedules")
            r = _require_rational(data, "r")
        elif kind == KIND_SPARSE and "r" in data:
            r = _require_rational(data, "r")
        _check_stored_digits(B, r, k_max, "r" if r is not None else None)
        return SystemSpec(kind=kind, n=n, B=B, r=r, k_max=k_max)

    def to_jsonable(self) -> dict:
        out: dict = {"kind": self.kind, "n": self.n}
        if self.k_max is not None:
            out["kMax"] = self.k_max
        if self.B is not None:
            out["B"] = str(self.B)
        if self.r is not None:
            out["r"] = str(self.r)
        if self.alpha is not None:
            out["alpha"] = str(self.alpha)
        if self.beta is not None:
            out["beta"] = str(self.beta)
        return out


def build_system(spec: SystemSpec) -> System:
    if spec.kind == KIND_IDENTITY:
        return IdentitySystem(spec.n)
    if spec.kind == KIND_TWO_BLOCK:
        return build_two_block(spec.alpha, spec.beta, spec.n, spec.k_max)
    if spec.kind == KIND_GEOMETRIC:
        schedule = Schedule.geometric(spec.B, spec.r)
    elif spec.kind == KIND_QUADRATIC:
        schedule = Schedule.quadratic(spec.B)
    elif spec.r is not None:  # sparse: self-power activity over either size law
        schedule = Schedule.geometric(spec.B, spec.r, active=ACTIVE_SELF_POWERS)
    else:
        schedule = Schedule.quadratic(spec.B, active=ACTIVE_SELF_POWERS)
    return build_stacked(schedule, spec.n, spec.k_max)


def _schedule_payload(schedule: Schedule) -> dict:
    out = {"kind": schedule.kind, "B": str(schedule.B), "active": schedule.active}
    if schedule.r is not None:
        out["r"] = str(schedule.r)
    return out


def _system_payload(system: System) -> dict:
    """What the spec does not state: each half's schedule and blocks."""
    if isinstance(system, IdentitySystem):
        return {"kind": system.kind}
    if isinstance(system, StackedSystem):
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
        return {
            "kind": system.kind,
            "schedule": _schedule_payload(system.schedule),
            "blocks": blocks,
        }
    if isinstance(system, TwoBlockSystem):
        return {
            "kind": system.kind,
            "lower": _system_payload(system.lower),
            "upper": _system_payload(system.upper),
        }
    raise TypeError(f"unknown system type {type(system).__name__}")


def system_to_jsonable(system: System, spec: SystemSpec) -> dict:
    return {
        "format": SYSTEM_FORMAT,
        "spec": spec.to_jsonable(),
        "system": _system_payload(system),
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
    rebuilt = system_to_jsonable(system, spec)
    # == takes 3.0 for 3 and 1 for true; the canonical text tells them apart
    if rebuilt != data or canonical_dumps(rebuilt) != canonical_dumps(data):
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
    import csv  # only the commands that write CSV load it

    writer = csv.DictWriter(fh, fieldnames=PROFILE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
