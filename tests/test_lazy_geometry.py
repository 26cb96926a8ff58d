"""Horseshoes are built on first use: equality with eager construction, file
bytes, and which commands construct which blocks."""

import hashlib
import json

import pytest

import mmdim.constructions as constructions
from mmdim.constructions import UnmaterializedBlockError
from mmdim.horseshoe import build_horseshoe
from mmdim.specfile import (
    SpecFileError,
    SystemSpec,
    build_system,
    canonical_dumps,
    load_system,
    system_to_jsonable,
)
from mmdim.symbolic import rate_profile

import corpus

# SHA-256 of each corpus spec's system file in format /2.  Each digest is
# that of the file written when every materializable horseshoe was
# constructed up front, in format /1, with "format" set to /2 and every
# "assignment" key deleted; lazy geometry must not change a byte.  Format /3
# drops what the spec or the block index fixes, and `as_format_2` puts it
# back, so a /3 file that turns into the pinned /2 bytes stores the same
# values.  The /3 file's own digest is its `build` line's pin.
FORMAT_2 = {
    "square": "673bdb6aead610bd54f183a1a1fcea8d8641f1a52e0d20a5b9aae4a0b6b993e3",
    "quadratic_4": "9fc4a4f3e48e77d6124e4a92329ca084daa7c290fac48a9aab10f5d0427be57c",
    "sparse_5": "8f2847388610368c1f4931ced24ab7aa7b55dc7b4bdcd802bb20d91ec027ce6a",
    # unchanged by the removal of leg overrides: it is the digest of the same
    # spec built while the spec format still took "legScheduleOverride"
    "geometric_n3_r2": "d686757d541dd91ad4225eca0a551aaf652e915d2cd58410f12d78b60c5efd4f",
    "two_block_5": "8d1f36273f5d76c623703bc4e96a923bc95ab169e6fc48ce4f12cfa5a3f8c14d",
    "zero_lower_8": "5f79552658124188ea95cc70dee4f2eb188f1a629f2e2371bc1c56714b14e6d5",
    "two_block": "362a6121acfb5d37f53a185b6805584c20ea0737b96803f08cd5c5257d3ecd68",
}


def spec_of(name: str) -> SystemSpec:
    return SystemSpec.from_jsonable(corpus.SPECS[name][0])


def as_format_2(payload: dict) -> dict:
    """The format /2 file of a format /3 payload.

    /2 also stored the spec's n at every level, its kMax in each stacked half
    and in a two_block system, its alpha and beta in a two_block system, the
    geometry budget in each stacked half, and per block L = 3^k and whether
    the block is materialized: active with L^(n-1) at most the budget.
    """
    spec = payload["spec"]
    n = spec["n"]

    def restate(system: dict) -> dict:
        out = dict(system, n=n)
        if system["kind"] == "stacked":
            out.update(kMax=spec["kMax"], geometryBudget=100000, blocks=[
                dict(block, L=3 ** block["k"],
                     materialized=block["active"] and 3 ** (block["k"] * (n - 1)) <= 100000)
                for block in system["blocks"]
            ])
        elif system["kind"] == "two-block":
            out.update(kMax=spec["kMax"], alpha=spec["alpha"], beta=spec["beta"],
                       lower=restate(system["lower"]), upper=restate(system["upper"]))
        return out

    return dict(payload, format="mmdim-system/2", system=restate(payload["system"]))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stacked_halves(system):
    return [part for _, part in system.parts]


@pytest.fixture()
def build_calls(monkeypatch):
    """Record (cube, L) of every horseshoe that `constructions` builds."""
    calls = []

    def counting(cube, L):
        calls.append((cube, L))
        return build_horseshoe(cube, L)

    monkeypatch.setattr(constructions, "build_horseshoe", counting)
    return calls


# the kMax 30 two-block blocks reach L = 3^10, which take seconds to build
@pytest.mark.parametrize("name", sorted(FORMAT_2.keys() - {"two_block"}))
def test_lazy_horseshoe_equals_eager_build(name):
    system = build_system(spec_of(name))
    materialized = 0
    for half in stacked_halves(system):
        for block in half.blocks:
            if not block.materialized:
                with pytest.raises(UnmaterializedBlockError):
                    block.geometry()
                continue
            materialized += 1
            assert block.horseshoe is None
            h = block.geometry()
            assert h == build_horseshoe(block.cube, block.L)
            assert block.geometry() is h and block.horseshoe is h
    assert materialized > 0


def test_cache_takes_no_part_in_equality():
    spec = spec_of("square")
    built, fresh = build_system(spec), build_system(spec)
    built.parts[0][1].block(1).geometry()
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)


@pytest.mark.parametrize("name", sorted(FORMAT_2))
def test_build_output_is_byte_identical(name, build_calls):
    spec = spec_of(name)
    payload = system_to_jsonable(build_system(spec), spec)
    pin = corpus.read_pins()[corpus.build_line(name)]
    assert sha256(canonical_dumps(payload)) == pin["file"]
    assert sha256(canonical_dumps(as_format_2(payload))) == FORMAT_2[name]
    assert build_calls == []


def test_two_block_kmax_30_loads_and_profiles_without_geometry(build_calls):
    spec = spec_of("two_block")
    text = canonical_dumps(system_to_jsonable(build_system(spec), spec))
    _, system = load_system(json.loads(text))
    rate_profile(system, range(1, 31))
    assert build_calls == []
    assert sum(b.materialized for h in stacked_halves(system) for b in h.blocks) == 12


def test_estimate_builds_only_the_block_it_measures(cli, build_calls, tmp_path):
    spec = spec_of("square")
    path = tmp_path / "sys.json"
    path.write_text(canonical_dumps(system_to_jsonable(build_system(spec), spec)))
    result = cli(["estimate", str(path), "--k", "1", "--m", "2"])
    assert result.exit_code == 0, result.stderr
    assert [L for _, L in build_calls] == [3]


@pytest.mark.parametrize("name", ["square", "sparse_5", "two_block_5", "zero_lower_8"])
def test_validate_builds_each_materialized_block_once(name, cli, build_calls, tmp_path):
    spec = spec_of(name)
    system = build_system(spec)
    path = tmp_path / "sys.json"
    path.write_text(canonical_dumps(system_to_jsonable(system, spec)))
    result = cli(["validate", str(path)])
    assert result.exit_code == 0, result.stderr
    expected = [(b.cube, b.L) for h in stacked_halves(system) for b in h.blocks if b.materialized]
    assert build_calls == expected


def test_tampered_unbuilt_block_is_rejected(build_calls):
    spec = spec_of("square")
    payload = system_to_jsonable(build_system(spec), spec)
    payload["system"]["blocks"][2]["eps"] = "1/27"
    with pytest.raises(SpecFileError, match="does not match"):
        load_system(payload)
    assert build_calls == []
