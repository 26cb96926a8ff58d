"""In-memory spans around the public functions of each mmdim layer.

The program itself carries no instrumentation, so the traced run wraps the
layer entry points from here.  The modules import each other's names with
``from .x import y``, which binds a second reference in the calling module;
a wrapper therefore replaces the name in the namespace of the module that
calls it (``mmdim.estimators.orbits_separate``, not
``mmdim.metrics.orbits_separate``).  A target that a later version of the
program no longer has is skipped and listed in ``Tracer.missing``, so its
metrics read 0 instead of breaking the run.

Spans carry (name, start, end, parent) and are kept in memory until the run
ends.  Calls too frequent to keep one span each (``orbits_separate`` runs
half a million times on the greedy workload) are folded: their time is added
to the enclosing span, and their time, calls and truthy results to per-name
totals.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s", "outer")

    def __init__(self, id_: int, name: str, parent: "Span | None", start: float, outer: bool):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0  # time covered by child spans and folded calls
        self.outer = outer  # no enclosing span of the same name

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_jsonable(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent.id if self.parent is not None else None,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
        }


class Tracer:
    """Span stack, finished spans, folded-call totals and integer counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        # name -> [seconds, calls, truthy results] of folded calls
        self.folded: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        self._open_names: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.escaped: object = None  # the program's escape marker, once installed

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter(),
                    self._open_names[name] == 0)
        self.spans.append(span)
        self.stack.append(span)
        self._open_names[name] += 1
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._open_names[span.name] -= 1
        if span.parent is not None:
            span.parent.child_s += span.duration

    def total_s(self, name: str) -> float:
        """Time inside spans of this name, not counting same-name nesting twice."""
        spans = sum(s.duration for s in self.spans if s.name == name and s.outer)
        folded = self.folded.get(name)
        return spans + (folded[0] if folded else 0.0)

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def merged(self, other: "Tracer") -> "Tracer":
        """A tracer holding both runs' spans and summed totals."""
        out = Tracer()
        out.spans = self.spans + other.spans
        for src in (self, other):
            for key, value in src.counters.items():
                out.counters[key] += value
            for key, value in src.folded.items():
                out.folded[key] = [a + b for a, b in zip(out.folded[key], value)]
        out.missing = sorted(set(self.missing) | set(other.missing))
        return out

    def write_jsonl(self, fh, label: str) -> None:
        """One line per span, then one line of counters and folded totals."""
        for span in self.spans:
            fh.write(json.dumps({"command": label, **span.to_jsonable()}) + "\n")
        fh.write(json.dumps({"command": label, "counters": dict(self.counters),
                             "folded": dict(self.folded)}) + "\n")


@dataclass(frozen=True)
class Target:
    """One name to replace: ``module.attr`` (or ``module.cls.attr``)."""

    module: str
    attr: str
    span: str
    count: Callable[[Tracer, object], None] | None = None  # (tracer, return value)
    folded: bool = False


def _count_horseshoe(tr: Tracer, result) -> None:
    tr.counters["horseshoe.build_horseshoe_calls"] += 1
    tr.counters["horseshoe.pieces"] += len(result.pamap.pieces)


def _count_stacked(tr: Tracer, result) -> None:
    tr.counters["constructions.blocks_materialized"] += sum(
        1 for block in result.blocks if block.horseshoe is not None
    )


def _count_cylinder(tr: Tracer, result) -> None:
    tr.counters["symbolic.cylinders"] += 1


def _count_orbit(tr: Tracer, result) -> None:
    tr.counters["mapping.orbits"] += 1
    if result and result[-1] is tr.escaped:
        tr.counters["mapping.escaped_orbits"] += 1


def _count_greedy(tr: Tracer, result) -> None:
    tr.counters["estimators.seeds"] += result.seed_count
    tr.counters["estimators.kept"] += len(result.chosen)


BUILD_SYSTEM = "constructions.build_system"

TARGETS = (
    Target("mmdim.cli", "read_json", "specfile.read_json"),
    Target("mmdim.cli", "load_system", "specfile.load_system"),
    Target("mmdim.cli", "system_to_jsonable", "specfile.system_to_jsonable"),
    Target("mmdim.specfile", "system_to_jsonable", "specfile.system_to_jsonable"),
    Target("mmdim.specfile", "build_stacked", BUILD_SYSTEM, _count_stacked),
    Target("mmdim.specfile", "build_two_block", BUILD_SYSTEM),
    Target("mmdim.constructions", "build_stacked", BUILD_SYSTEM, _count_stacked),
    Target("mmdim.constructions", "build_horseshoe", "horseshoe.build_horseshoe",
           _count_horseshoe),
    Target("mmdim.mapping", "find_interior_overlap", "geometry.find_interior_overlap"),
    Target("mmdim.estimators", "square", "horseshoe.square"),
    Target("mmdim.symbolic", "cylinder_geometry", "symbolic.cylinder_geometry",
           _count_cylinder),
    Target("mmdim.estimators", "cylinder_centers", "estimators.cylinder_centers"),
    Target("mmdim.mapping", "PAMap.orbit", "mapping.orbit", _count_orbit),
    Target("mmdim.estimators", "orbits_separate", "metrics.orbits_separate", folded=True),
    Target("mmdim.estimators", "greedy_separated", "estimators.greedy", _count_greedy),
    Target("mmdim.cli", "rate_profile", "symbolic.rate_profile"),
    Target("mmdim.estimators", "rate_profile", "symbolic.rate_profile"),
    Target("mmdim.cli", "extrapolate", "symbolic.extrapolate"),
)


def _span_wrapper(tr: Tracer, fn, target: Target):
    name, count = target.span, target.count

    def wrapper(*args, **kwargs):
        span = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(span)
        if count is not None:
            count(tr, result)
        return result

    return wrapper


def _folded_wrapper(tr: Tracer, fn, target: Target):
    # kept lean: it runs once per orbit-pair comparison
    totals, stack, clock = tr.folded[target.span], tr.stack, time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        elapsed = clock() - start
        totals[0] += elapsed
        totals[1] += 1
        if result:
            totals[2] += 1
        if stack:
            stack[-1].child_s += elapsed
        return result

    return wrapper


def _resolve(target: Target):
    """(owner, attribute name, original), or None when the target is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = vars(owner).get(attr) if owner is not None else None
    return None if original is None else (owner, attr, original)


class installed:
    """Context manager: wrap every available target, restore on exit."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        mapping = importlib.import_module("mmdim.mapping")
        self.tracer.escaped = getattr(mapping, "ESCAPED", None)
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.tracer.missing.append(f"{target.module}.{target.attr}")
                continue
            owner, attr, original = found
            make = _folded_wrapper if target.folded else _span_wrapper
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(self.tracer, original, target))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures named as in BENCHMARK.json (times in seconds)."""
    c = tr.counters
    _, calls, separated = tr.folded.get("metrics.orbits_separate", (0.0, 0, 0))
    seeds = c.get("estimators.seeds", 0)
    return {
        "specfile.read_json_s": tr.total_s("specfile.read_json"),
        "specfile.load_system_s": tr.total_s("specfile.load_system"),
        "specfile.system_to_jsonable_s": tr.total_s("specfile.system_to_jsonable"),
        "constructions.build_system_s": tr.total_s(BUILD_SYSTEM),
        "constructions.blocks_materialized": c.get("constructions.blocks_materialized", 0),
        "horseshoe.build_horseshoe_s": tr.total_s("horseshoe.build_horseshoe"),
        "horseshoe.build_horseshoe_calls": c.get("horseshoe.build_horseshoe_calls", 0),
        "horseshoe.pieces": c.get("horseshoe.pieces", 0),
        "geometry.find_interior_overlap_s": tr.total_s("geometry.find_interior_overlap"),
        "horseshoe.square_s": tr.total_s("horseshoe.square"),
        "symbolic.cylinder_geometry_s": tr.total_s("symbolic.cylinder_geometry"),
        "symbolic.cylinders": c.get("symbolic.cylinders", 0),
        "estimators.cylinder_centers_s": tr.total_s("estimators.cylinder_centers"),
        "mapping.orbit_s": tr.total_s("mapping.orbit"),
        "mapping.orbits": c.get("mapping.orbits", 0),
        "mapping.escaped_orbits": c.get("mapping.escaped_orbits", 0),
        "metrics.orbits_separate_s": tr.total_s("metrics.orbits_separate"),
        "metrics.orbits_separate_calls": calls,
        "metrics.separated_share": separated / calls if calls else 0.0,
        "estimators.greedy_s": tr.total_s("estimators.greedy"),
        "estimators.greedy_self_s": tr.self_s("estimators.greedy"),
        "estimators.seeds": seeds,
        "estimators.kept": c.get("estimators.kept", 0),
        "estimators.pairs_per_seed": calls / seeds if seeds else 0.0,
        "symbolic.rate_profile_s": tr.total_s("symbolic.rate_profile"),
        "symbolic.extrapolate_s": tr.total_s("symbolic.extrapolate"),
    }
