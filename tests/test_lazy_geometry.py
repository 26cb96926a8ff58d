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
    write_json,
)
from mmdim.symbolic import rate_profile

# SHA-256 of each spec's system file in format /2 and in format /3.  Each /2
# digest is that of the file written when every materializable horseshoe was
# constructed up front, in format /1, with "format" set to /2 and every
# "assignment" key deleted; lazy geometry must not change a byte.  Format /3
# drops what the spec or the block index fixes, and `as_format_2` puts it back,
# so a /3 file that turns into the pinned /2 bytes stores the same values.
SPECS = {
    "geometric": (
        {"kind": "geometric", "n": 2, "B": "1", "r": "1", "kMax": 3},
        "673bdb6aead610bd54f183a1a1fcea8d8641f1a52e0d20a5b9aae4a0b6b993e3",
        "5125ce4d817367d9db87ab76c4eaf07f5e0b30bd0b06145d70ada3ff43117e96",
    ),
    "quadratic": (
        {"kind": "quadratic", "n": 2, "B": "1", "kMax": 4},
        "9fc4a4f3e48e77d6124e4a92329ca084daa7c290fac48a9aab10f5d0427be57c",
        "a638d71ed45af80197e45281c3764c4ed5dbcb0209fb52e97d29755c6674964c",
    ),
    "sparse": (
        {"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 5},
        "8f2847388610368c1f4931ced24ab7aa7b55dc7b4bdcd802bb20d91ec027ce6a",
        "550ced0710471dd2bcfe821a05620c3f4c7dbbb8b4206ad77f56351355f8ab53",
    ),
    # unchanged by the removal of leg overrides: it is the digest of the same
    # spec built while the spec format still took "legScheduleOverride"
    "geometric n=3": (
        {"kind": "geometric", "n": 3, "B": "1", "r": "2", "kMax": 3},
        "d686757d541dd91ad4225eca0a551aaf652e915d2cd58410f12d78b60c5efd4f",
        "15c431cd0621d3caf4085a46518ae04257be3836d91dd54cf301bc1e8783c9eb",
    ),
    "two_block": (
        {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 5},
        "8d1f36273f5d76c623703bc4e96a923bc95ab169e6fc48ce4f12cfa5a3f8c14d",
        "3f0f5d8453c33c7d5854edeaed521e52808aee640a4b3f5ade90bacd504b6f11",
    ),
    "two_block_identity": (
        {"kind": "two_block", "n": 2, "alpha": "0", "beta": "1", "kMax": 8},
        "5f79552658124188ea95cc70dee4f2eb188f1a629f2e2371bc1c56714b14e6d5",
        "32911e6268fa2cec01e4dcbc284312bfa2fb79f138e41bb727c35cce8d9ff6f3",
    ),
}

TWO_BLOCK_30 = {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 30}
TWO_BLOCK_30_SHA256 = "362a6121acfb5d37f53a185b6805584c20ea0737b96803f08cd5c5257d3ecd68"
TWO_BLOCK_30_SHA256_FORMAT_3 = "0fceefae1e8d4ed9b537cc70df3f1894805e49b1789855cccf920fd3a31c1ac6"


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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_lazy_horseshoe_equals_eager_build(name):
    spec = SystemSpec.from_jsonable(SPECS[name][0])
    system = build_system(spec)
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
    spec = SystemSpec.from_jsonable(SPECS["geometric"][0])
    built, fresh = build_system(spec), build_system(spec)
    built.parts[0][1].block(1).geometry()
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_build_output_is_byte_identical(name, build_calls):
    data, digest_2, digest_3 = SPECS[name]
    spec = SystemSpec.from_jsonable(data)
    payload = system_to_jsonable(build_system(spec), spec)
    assert sha256(canonical_dumps(payload)) == digest_3
    assert sha256(canonical_dumps(as_format_2(payload))) == digest_2
    assert build_calls == []


def test_two_block_kmax_30_loads_and_profiles_without_geometry(build_calls):
    spec = SystemSpec.from_jsonable(TWO_BLOCK_30)
    payload = system_to_jsonable(build_system(spec), spec)
    text = canonical_dumps(payload)
    assert sha256(text) == TWO_BLOCK_30_SHA256_FORMAT_3
    assert sha256(canonical_dumps(as_format_2(payload))) == TWO_BLOCK_30_SHA256
    _, system = load_system(json.loads(text))
    rate_profile(system, range(1, 31))
    assert build_calls == []
    assert sum(b.materialized for h in stacked_halves(system) for b in h.blocks) == 12


def test_estimate_builds_only_the_block_it_measures(cli, build_calls, tmp_path):
    spec = SystemSpec.from_jsonable(SPECS["geometric"][0])
    path = tmp_path / "sys.json"
    write_json(path, system_to_jsonable(build_system(spec), spec))
    result = cli(["estimate", str(path), "--k", "1", "--m", "2"])
    assert result.exit_code == 0, result.stderr
    assert [L for _, L in build_calls] == [3]


@pytest.mark.parametrize("name", ["geometric", "sparse", "two_block", "two_block_identity"])
def test_validate_builds_each_materialized_block_once(name, cli, build_calls, tmp_path):
    spec = SystemSpec.from_jsonable(SPECS[name][0])
    system = build_system(spec)
    path = tmp_path / "sys.json"
    write_json(path, system_to_jsonable(system, spec))
    result = cli(["validate", str(path)])
    assert result.exit_code == 0, result.stderr
    expected = [(b.cube, b.L) for h in stacked_halves(system) for b in h.blocks if b.materialized]
    assert build_calls == expected


def test_tampered_unbuilt_block_is_rejected(build_calls):
    spec = SystemSpec.from_jsonable(SPECS["geometric"][0])
    payload = system_to_jsonable(build_system(spec), spec)
    payload["system"]["blocks"][2]["eps"] = "1/27"
    with pytest.raises(SpecFileError, match="does not match"):
        load_system(payload)
    assert build_calls == []
