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
# values.
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

# SHA-256 of every corpus spec's system file in format /3, as its `build`
# line last pinned it.  Format /4 stores each distinct part once and names no
# corner, and `as_format_3` restates the /3 layout, so a /4 file that turns
# into these bytes stores the same values.  The /4 file's own digest is its
# `build` line's pin.
FORMAT_3 = {
    "square": "5125ce4d817367d9db87ab76c4eaf07f5e0b30bd0b06145d70ada3ff43117e96",
    "geometric_r2": "4fccb7e35ee0126f959b59e2f1df0666bbd7dad79c88a8ac7992c3fbc4dd883e",
    "cube": "5946d74dcabf1ba3a492939cbeecabae6d47bf7ec7ea0a6e0d7ed69e6b944635",
    "geometric_n3_r2": "15c431cd0621d3caf4085a46518ae04257be3836d91dd54cf301bc1e8783c9eb",
    "quadratic": "b653eb7b9b2f636497a0553a4547f330cf089996851fa9c89dca85e2f69f4279",
    "quadratic_4": "a638d71ed45af80197e45281c3764c4ed5dbcb0209fb52e97d29755c6674964c",
    "quadratic_30": "d02e7b845085cbd19091e55316cae6b951518ca0c0ba79e5871919b39590a6ed",
    "quadratic_n3": "e1452c817cb43224a8d6bab18893d3a0cb6da877a7adb2e50c663034b1ea275d",
    "sparse": "168aee3e98b3c5b51d03d02b8001016d4ac33f85ffb87f493d9839ff1b0f839c",
    "sparse_5": "550ced0710471dd2bcfe821a05620c3f4c7dbbb8b4206ad77f56351355f8ab53",
    "sparse_quadratic": "2513e563a84444a41436039aa0217ad8b95a06c554e19d979314c683b4b9f3c8",
    "two_block": "0fceefae1e8d4ed9b537cc70df3f1894805e49b1789855cccf920fd3a31c1ac6",
    "two_block_5": "3f0f5d8453c33c7d5854edeaed521e52808aee640a4b3f5ade90bacd504b6f11",
    "two_block_1_2": "51dbb661886ede8592e50d479e446cb35b7253d6033e78969a5982d6783f026b",
    "two_block_1_3": "c0ed15076a65a005fffa839b1fa3efd887f743b68e3d15c112f83c7cbea65896",
    "shared": "bf8784b7df7e931cba755e14a5a423543a40bb092cebbbcfa9eb7e1f876d57c2",
    "zero_lower": "ec98dcd229e040f1ee5aa23d61df697318e78827fde7cb4e8882278b6499930c",
    "zero_lower_8": "32911e6268fa2cec01e4dcbc284312bfa2fb79f138e41bb727c35cce8d9ff6f3",
    "zero_both": "c69e7adba20a2f5bd67582ceb29d00849d9fbbd18c839c92d4d02c7e2d86427d",
    "identity": "9d1453a67c4443c168b257304cfe8c90a475f58b83eeb38d532026db95a2451b",
}


def spec_of(name: str) -> SystemSpec:
    return SystemSpec.from_jsonable(corpus.SPECS[name][0])


def as_format_3(payload: dict) -> dict:
    """The format /3 file of a format /4 payload.

    /3 stored one system under "system": a stacked part's payload with its
    "kind", the identity's kind alone, and for a two_block spec its "lower"
    and "upper" corners, each a part's payload or the identity.  A two_block
    spec's parts are its lower corner's, then its upper corner's, and a
    corner whose target is 0 has none; as alpha <= beta, only the upper one
    can lack a part while the lower has one.
    """
    systems = [dict(system, kind="stacked") for system in payload["systems"]]
    parts = [systems[i] for i in payload["parts"]] + [{"kind": "identity"}] * 2
    if payload["spec"]["kind"] == "two_block":
        system = {"kind": "two-block", "lower": parts[0], "upper": parts[1]}
    else:
        system = parts[0]
    return {"format": "mmdim-system/3", "spec": payload["spec"], "system": system}


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


@pytest.mark.parametrize("name", sorted(FORMAT_3))
def test_build_output_is_byte_identical(name, build_calls):
    spec = spec_of(name)
    payload = system_to_jsonable(build_system(spec), spec)
    pin = corpus.read_pins()[corpus.build_line(name)]
    text, format_3 = canonical_dumps(payload), canonical_dumps(as_format_3(payload))
    assert sha256(text) == pin["file"]
    assert sha256(format_3) == FORMAT_3[name]
    assert len(text) <= len(format_3)
    if name in FORMAT_2:
        assert sha256(canonical_dumps(as_format_2(as_format_3(payload)))) == FORMAT_2[name]
    assert build_calls == []


def test_equal_targets_store_their_one_system_once():
    spec = spec_of("shared")
    payload = system_to_jsonable(build_system(spec), spec)
    assert payload["parts"] == [0, 0] and len(payload["systems"]) == 1
    # format /3 stored it twice, in 912 bytes, 383 of them repeated
    assert len(canonical_dumps(payload)) <= 912 - 383


def test_two_block_kmax_30_loads_and_profiles_without_geometry(build_calls):
    spec = spec_of("two_block")
    text = canonical_dumps(system_to_jsonable(build_system(spec), spec))
    assert len(text) == 6979  # 7,033 bytes in format /3
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
    payload["systems"][0]["blocks"][2]["eps"] = "1/27"
    with pytest.raises(SpecFileError, match="does not match"):
        load_system(payload)
    assert build_calls == []
